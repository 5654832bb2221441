"""The benchmark tracer wraps tgames attributes by name; each must exist."""

import ast
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    targets = tracing.current_targets()  # raises on a missing module or name
    assert len(targets) == len(tracing.TARGETS)
    for (module, attr, kind), target in zip(tracing.TARGETS, targets):
        assert callable(target), f"{module}.{attr}"
        assert kind in tracing.SELF_METRIC, kind


def test_every_tracer_only_import_is_traced():
    """An import kept with `# noqa: F401` is there only for the tracer to
    wrap, so it must be a (module, attribute) pair of `TARGETS`."""
    tracing = load_tracing()
    wrapped = {(module, attr) for module, attr, _kind in tracing.TARGETS}
    package = TRACING.parent.parent / "src" / "tgames"
    kept = []
    for path in sorted(package.glob("*.py")):
        for line in path.read_text().splitlines():
            code, _, comment = line.partition("#")
            if "noqa: F401" in comment:
                name = code.split(" import ")[-1].strip(" ,")
                kept.append((f"tgames.{path.stem}", name))
    for module, name in kept:
        assert name.isidentifier(), (module, name)
        assert (module, name) in wrapped, (module, name)


def test_no_module_changes_the_recursion_limit():
    """The recursion limit is interpreter-global state: no module of the
    package may set it, so deep inputs need loops, not recursion."""
    package = TRACING.parent.parent / "src" / "tgames"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in nodes}
        names |= {node.name for node in nodes if isinstance(node, ast.alias)}
        assert "setrecursionlimit" not in names, path.name


def test_no_module_asserts():
    """`python -O` strips assert statements, so every check on input in the
    package must raise instead."""
    package = TRACING.parent.parent / "src" / "tgames"
    for path in sorted(package.glob("*.py")):
        nodes = ast.walk(ast.parse(path.read_text()))
        assert not any(isinstance(node, ast.Assert) for node in nodes), path.name
