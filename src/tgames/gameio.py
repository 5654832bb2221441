"""Line-oriented text format for game arenas.

::

    game <reachability|buchi|parity>
    alphabet1 <sym> <sym> ...
    alphabet2 <sym> <sym> ...
    vertex <name> owner=<1|2> color=<uint>
    init <name>
    edge <src> <action> <dst>

`#` starts a comment.  Action symbols match ``[A-Za-z0-9_~!]+``; vertex
names may use any non-whitespace characters (product positions are named
``(v,m)``).  Partial edge maps are accepted; `validate` flags the gaps.
"""

from __future__ import annotations

from .graphs import GameGraph, GameError, OBJECTIVES, check_alphabet, make_game


class ParseError(GameError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_game(text: str) -> GameGraph:
    objective = None
    alpha1: list[str] = []
    alpha2: list[str] = []
    vertices: list[tuple[str, int, int]] = []
    names: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    init = None
    init_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "game":
            if objective is not None:
                raise ParseError(lineno, "duplicate game line")
            if len(args) != 1 or args[0] not in OBJECTIVES:
                raise ParseError(lineno, f"expected game <{'|'.join(OBJECTIVES)}>")
            objective = args[0]
        elif kind in ("alphabet1", "alphabet2"):
            dst = alpha1 if kind == "alphabet1" else alpha2
            if dst:
                raise ParseError(lineno, f"duplicate {kind} line")
            if not args:
                raise ParseError(lineno, f"{kind} must list at least one symbol")
            try:
                dst.extend(check_alphabet(args))
            except GameError as e:
                raise ParseError(lineno, str(e)) from None
        elif kind == "vertex":
            if len(args) != 3:
                raise ParseError(lineno, "expected vertex <name> owner=<1|2> color=<uint>")
            name = args[0]
            if name in names:
                raise ParseError(lineno, f"duplicate vertex name {name!r}")
            opts = {}
            for tok in args[1:]:
                if "=" not in tok:
                    raise ParseError(lineno, f"expected key=value, got {tok!r}")
                k, v = tok.split("=", 1)
                opts[k] = v
            if set(opts) != {"owner", "color"}:
                raise ParseError(lineno, "vertex needs owner= and color=")
            try:
                owner = int(opts["owner"])
                color = int(opts["color"])
            except ValueError:
                raise ParseError(lineno, "owner/color must be integers") from None
            if owner not in (1, 2):
                raise ParseError(lineno, "owner must be 1 or 2")
            if color < 0:
                raise ParseError(lineno, "color must be non-negative")
            names.add(name)
            vertices.append((name, owner, color))
        elif kind == "init":
            if init is not None:
                raise ParseError(lineno, "duplicate init line")
            if len(args) != 1:
                raise ParseError(lineno, "expected init <name>")
            init, init_line = args[0], lineno
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError(lineno, "expected edge <src> <action> <dst>")
            edges.append((args[0], args[1], args[2]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    if objective is None:
        raise ParseError(0, "missing game line")
    if not alpha1 or not alpha2:
        raise ParseError(0, "missing alphabet1/alphabet2 line")
    if init is None:
        raise ParseError(0, "missing init line")
    if init not in names:
        raise ParseError(init_line, f"init names unknown vertex {init!r}")
    try:
        return make_game(objective, alpha1, alpha2, vertices, edges, init)
    except GameError as e:
        raise ParseError(0, str(e)) from None


def serialize_game(g: GameGraph) -> str:
    """Deterministic text form: fixed section order, vertices in declaration
    order, edges grouped by source and ordered by the acting alphabet.

    `parse_game(serialize_game(g))` reproduces `g` exactly; isomorphic graphs
    with different declaration orders serialize differently on purpose.
    """
    out = [f"game {g.objective}"]
    out.append("alphabet1 " + " ".join(g.alphabet1))
    out.append("alphabet2 " + " ".join(g.alphabet2))
    for v in g.vertices:
        out.append(f"vertex {v.name} owner={v.owner} color={v.color}")
    out.append(f"init {g.vertices[g.initial].name}")
    for v in g.vertices:
        for a, tgt in g.successors(v.id):
            out.append(f"edge {v.name} {a} {g.vertices[tgt].name}")
    return "\n".join(out) + "\n"
