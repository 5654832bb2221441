"""The benchmark tracer wraps tgames attributes by name; each must exist."""

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
