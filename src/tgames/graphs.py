"""Game arenas: bipartite two-player graphs with labeled edges and colors.

A game is played on a graph whose vertices are split between player 1 and
player 2.  Player-1 vertices move on symbols from ``alphabet1``, player-2
vertices on symbols from ``alphabet2``, and edges strictly alternate
ownership.  Every vertex carries a color; the objective kind decides how an
infinite play is scored:

* ``parity``       -- player 2 wins iff the largest color seen infinitely
                      often is even,
* ``buchi``        -- colors are restricted to {1, 2}; player 2 wins iff a
                      color-2 vertex recurs forever,
* ``reachability`` -- player 2 wins iff a color-2 vertex is ever visited.

Plays that are not winning for player 2 are winning for player 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

REACHABILITY = "reachability"
BUCHI = "buchi"
PARITY = "parity"
OBJECTIVES = (REACHABILITY, BUCHI, PARITY)

SYMBOL_RE = re.compile(r"^[A-Za-z0-9_~!]+$")

# Reserved vertex names used by `complete`.  Each paradise is an absorbing
# two-vertex cycle, colored so its owner wins any play trapped inside:
# (1, 1) for player 1, (2, 2) for player 2.  The `_a` member is owned by
# player 1, the `_b` member by player 2.
P1_PARADISE = ("~p1_paradise_a", "~p1_paradise_b")
P2_PARADISE = ("~p2_paradise_a", "~p2_paradise_b")


class GameError(Exception):
    """Malformed arena, word, or query."""


@dataclass(frozen=True)
class Vertex:
    id: int
    name: str
    owner: int
    color: int


class Violation(NamedTuple):
    kind: str
    vertex: str
    action: Optional[str] = None

    def __str__(self):
        if self.action is None:
            return f"VIOLATION {self.kind} {self.vertex}"
        return f"VIOLATION {self.kind} {self.vertex} {self.action}"


@dataclass
class GameGraph:
    """Immutable-by-convention arena.  Build with `make_game` or the parser.

    `edges` maps (vertex id, action symbol) to a target vertex id.  The map
    may be partial; `validate` reports gaps and `complete` fills them.
    """

    objective: str
    alphabet1: tuple[str, ...]
    alphabet2: tuple[str, ...]
    vertices: tuple[Vertex, ...]
    edges: dict[tuple[int, str], int]
    initial: int
    _by_name: dict[str, int] = field(default_factory=dict, repr=False)
    _total: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self._by_name:
            self._by_name.update((v.name, v.id) for v in self.vertices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex(self, name: str) -> Vertex:
        return self.vertices[self._by_name[name]]

    def has_vertex(self, name: str) -> bool:
        return name in self._by_name

    def acting_alphabet(self, vid: int) -> tuple[str, ...]:
        return self.alphabet1 if self.vertices[vid].owner == 1 else self.alphabet2

    def successors(self, vid: int) -> Iterator[tuple[str, int]]:
        """Outgoing (action, target) pairs in alphabet order."""
        for a in self.acting_alphabet(vid):
            tgt = self.edges.get((vid, a))
            if tgt is not None:
                yield a, tgt

    def step(self, vid: int, action: str) -> int:
        try:
            return self.edges[(vid, action)]
        except KeyError:
            raise GameError(
                f"no edge from {self.vertices[vid].name!r} on {action!r}"
            ) from None

    def is_total(self) -> bool:
        """Whether every vertex has an edge on every acting symbol; computed
        on the first call and kept, since the arena does not change."""
        if self._total is None:
            self._total = all(
                (v.id, a) in self.edges
                for v in self.vertices
                for a in self.acting_alphabet(v.id)
            )
        return self._total


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """`symbols` as an alphabet tuple; raises on a malformed or repeated one."""
    alphabet = tuple(symbols)
    for i, sym in enumerate(alphabet):
        if not SYMBOL_RE.match(sym):
            raise GameError(f"bad action symbol {sym!r}")
        if sym in alphabet[:i]:
            raise GameError(f"duplicate action symbol {sym!r}")
    return alphabet


def make_game(
    objective: str,
    alphabet1: Sequence[str],
    alphabet2: Sequence[str],
    vertices: Iterable[tuple[str, int, int]],
    edges: Iterable[tuple[str, str, str]],
    init: str,
) -> GameGraph:
    """Assemble an arena from (name, owner, color) vertices and named edges.

    Vertex declaration order is preserved; it is the iteration order used by
    every algorithm and by the serializer.
    """
    if objective not in OBJECTIVES:
        raise GameError(f"unknown objective {objective!r}")
    a1 = check_alphabet(alphabet1)
    a2 = check_alphabet(alphabet2)
    if not a1 or not a2:
        raise GameError("alphabets must be nonempty")
    vs: list[Vertex] = []
    by_name: dict[str, int] = {}
    for name, owner, color in vertices:
        if name in by_name:
            raise GameError(f"duplicate vertex {name!r}")
        if owner not in (1, 2):
            raise GameError(f"vertex {name!r}: owner must be 1 or 2")
        if color < 0:
            raise GameError(f"vertex {name!r}: negative color")
        by_name[name] = len(vs)
        vs.append(Vertex(len(vs), name, owner, color))
    emap: dict[tuple[int, str], int] = {}
    for src, action, dst in edges:
        if src not in by_name or dst not in by_name:
            raise GameError(f"edge references unknown vertex: {src} {action} {dst}")
        sid = by_name[src]
        acting = a1 if vs[sid].owner == 1 else a2
        if action not in acting:
            raise GameError(
                f"edge {src} {action} {dst}: {action!r} is not a player-"
                f"{vs[sid].owner} action"
            )
        key = (sid, action)
        if key in emap:
            raise GameError(f"duplicate edge {src} {action}")
        emap[key] = by_name[dst]
    if init not in by_name:
        raise GameError(f"unknown initial vertex {init!r}")
    return GameGraph(objective, a1, a2, tuple(vs), emap, by_name[init])


def validate(g: GameGraph) -> list[Violation]:
    """Check arena invariants; returns violations instead of raising.

    Reported kinds: `init-owner`, `typing` (edge uses the wrong player's
    alphabet or targets the wrong side), `totality` (missing edge), and
    `color-range` (non-{1,2} color under buchi/reachability).
    """
    out: list[Violation] = []
    init = g.vertices[g.initial]
    if init.owner != 1:
        out.append(Violation("init-owner", init.name))
    for v in g.vertices:
        if g.objective in (BUCHI, REACHABILITY) and v.color not in (1, 2):
            out.append(Violation("color-range", v.name))
        acting = g.acting_alphabet(v.id)
        for a in acting:
            tgt = g.edges.get((v.id, a))
            if tgt is None:
                out.append(Violation("totality", v.name, a))
            elif g.vertices[tgt].owner == v.owner:
                out.append(Violation("typing", v.name, a))
    for (vid, a), _tgt in g.edges.items():
        if a not in g.acting_alphabet(vid):
            out.append(Violation("typing", g.vertices[vid].name, a))
    return out


def complete(g: GameGraph) -> GameGraph:
    """Total-ize a well-typed arena.

    Appends (when absent) one paradise pair per player and routes every
    missing (vertex, action) edge to the paradise of the acting player's
    opponent: a player skipping an action it has no listed move for
    concedes the play.  Vertex ids are kept.  `g` is trusted as built by
    `make_game` or `parse_game` and is not re-checked; only a paradise
    vertex it already declares is checked for its owner.
    """
    vertices = list(g.vertices)
    for pair, color in ((P1_PARADISE, 1), (P2_PARADISE, 2)):
        for owner, name in enumerate(pair, start=1):
            if not g.has_vertex(name):
                vertices.append(Vertex(len(vertices), name, owner, color))
            elif g.vertex(name).owner != owner:
                raise GameError(f"vertex {name!r} is reserved for player {owner}")
    out = GameGraph(
        g.objective, g.alphabet1, g.alphabet2, tuple(vertices), dict(g.edges), g.initial
    )
    p1a, p1b, p2a, p2b = (out.vertex(name).id for name in P1_PARADISE + P2_PARADISE)
    # each paradise member moves to its partner; any other vertex concedes
    # to the opponent's paradise member owned by the opponent
    partner = {p1a: p1b, p1b: p1a, p2a: p2b, p2b: p2a}
    concede = {1: p2b, 2: p1a}
    for v in vertices:
        tgt = partner.get(v.id, concede[v.owner])
        for a in out.acting_alphabet(v.id):
            out.edges.setdefault((v.id, a), tgt)
    return out


@dataclass(frozen=True)
class Word:
    """Alternating action sequence; a nonempty `cycle` makes it infinite.

    The cycle must have even length so that the player alternation survives
    unrolling.
    """

    prefix: tuple[str, ...]
    cycle: tuple[str, ...] = ()

    def __post_init__(self):
        if self.cycle and len(self.cycle) % 2 != 0:
            raise GameError("lasso cycle must have even length")

    @property
    def finite(self) -> bool:
        return not self.cycle

    def actions(self) -> tuple[str, ...]:
        """Prefix actions; only meaningful in full for finite words."""
        return self.prefix if self.finite else self.prefix + self.cycle


@dataclass(frozen=True)
class Lasso:
    """Eventually periodic path: (vertex, action) steps, cycle closing on its head."""

    prefix: tuple[tuple[int, str], ...]
    cycle: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not self.cycle:
            raise GameError("lasso cycle must be nonempty")

    @property
    def start(self) -> int:
        return self.prefix[0][0] if self.prefix else self.cycle[0][0]

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def to_word(self) -> Word:
        return Word(
            tuple(a for _, a in self.prefix), tuple(a for _, a in self.cycle)
        )


def check_lasso(g: GameGraph, lasso: Lasso) -> None:
    """Raise unless every lasso transition is a real edge and the cycle closes."""
    steps = list(lasso.prefix) + list(lasso.cycle)
    for i, (v, a) in enumerate(steps):
        tgt = g.edges.get((v, a))
        if tgt is None:
            raise GameError(f"lasso step {i}: no edge from {g.vertices[v].name} on {a}")
        nxt = steps[i + 1][0] if i + 1 < len(steps) else lasso.cycle[0][0]
        if tgt != nxt:
            raise GameError(f"lasso step {i}: edge target mismatch")


def _loop_colors(
    g: GameGraph, w: Word, start: int
) -> tuple[list[int], list[int]]:
    """Replay a lasso word; return colors on the transient part and on the loop."""
    if w.finite:
        raise GameError("winner is defined for infinite (lasso) words only")
    pos = start
    visited = [pos]
    for i, a in enumerate(w.prefix):
        try:
            pos = g.step(pos, a)
        except GameError:
            raise GameError(f"illegal action at index {i}") from None
        visited.append(pos)
    seen: dict[tuple[int, int], int] = {}
    trace = [pos]
    i = 0
    while True:
        key = (i % len(w.cycle), pos)
        if key in seen:
            loop_at = seen[key]
            break
        seen[key] = i
        a = w.cycle[i % len(w.cycle)]
        try:
            pos = g.step(pos, a)
        except GameError:
            raise GameError(f"illegal action at index {len(w.prefix) + i}") from None
        trace.append(pos)
        i += 1
    head = visited[:-1] + trace[:loop_at]
    loop = trace[loop_at:]
    return [g.vertices[v].color for v in head], [g.vertices[v].color for v in loop]


def winner_of_lasso(w: Word, g: GameGraph, start: Optional[int] = None) -> int:
    """Decide who wins the infinite play generated by `w` from `start` (default: initial)."""
    obj = g.objective
    head, loop = _loop_colors(g, w, g.initial if start is None else start)
    if obj == PARITY or obj == BUCHI:
        # for buchi, colors are {1,2}: max-even on the loop == a 2 recurs
        return 2 if max(loop) % 2 == 0 else 1
    if obj == REACHABILITY:
        return 2 if 2 in head or 2 in loop else 1
    raise GameError(f"unknown objective {obj!r}")
