"""Restricted arenas in which player 1 must follow a fixed machine.

`build_product` pairs each game vertex with a machine state.  At a player-1
position only the machine's labeled action continues the game; every other
player-1 action falls into an absorbing player-2 paradise (the machine would
never play it, so player 1 deviating concedes).  Player-2 actions advance
both the game vertex and the machine state.

The product is one case of `_explore`, which crosses an arena with any
deterministic observer whose states are ints: a machine here, and the
subset construction over all k-state machines in `synthesis.solve_bounded`
(whose states are belief bitmasks, settled to `SETTLED` on player 2's base
winning region).  It numbers the reachable (vertex, state) pairs in
breadth-first order and writes one successor row per vertex id, naming
nothing.  `_int_arena` reads the rows as the parity solver's integer form,
which is all `solve_bounded` needs; `_named_graph` names them as a
`GameGraph`, which a product builds only when its `graph` is first read.

Because player 1 has no real choice left, each product solves in polynomial
time via `solve_one_player` on its on-policy rows (`ProductGame.arena`),
where a player-1 position keeps only the machine's action.  Witness lassos
are built only when one is first read.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

from .graphs import GameError, GameGraph, Lasso, Vertex, Word
from .graphs import make_game  # noqa: F401  -- unused here; bench/tracing.py wraps it
from .solvers import Arena, LazyMap, solve_one_player
from .transducers import Transducer, agrees, run

Position = tuple[int, int]  # (base vertex id, machine state)

TOP_NAMES = ("~top_a", "~top_b")  # player-2 paradise absorbing deviations
SETTLED = -1  # observer state that offers every action and steps to itself


class ProductGame:
    """One machine's product, as the explorer left it.

    `positions` maps each reachable (vertex, state) pair to its id and
    `order` lists them by id; the paradise pair `top` takes the last two
    ids.  The solvers read `arena`, the on-policy rows; the named arena
    `graph` and the inverse map `of_vertex` are built on first read.
    """

    def __init__(
        self,
        base: GameGraph,
        transducer: Transducer,
        rows: list[list[int]],
        positions: dict[Position, int],
        order: Sequence[Position],
    ):
        self.base = base
        self.transducer = transducer
        self.positions = positions
        self.order = tuple(order)
        self.initial = self.order[0]
        self.top = (len(order), len(order) + 1)
        self._rows = rows
        self._solution: Optional[tuple[frozenset[int], Mapping[int, Lasso]]] = None

    @cached_property
    def graph(self) -> GameGraph:
        """The realized arena, total, positions named `(<vertex>,<state>)`."""
        return _named_graph(self.base, self._rows, self.order)

    @cached_property
    def of_vertex(self) -> dict[int, Position]:
        """Graph vertex id -> position, excluding the paradise pair."""
        return dict(enumerate(self.order))

    @cached_property
    def arena(self) -> Arena:
        """The arena's rows with player 1 pinned to the machine: a player-1
        position keeps only the machine's action, player-2 positions keep
        every action, and the paradise pair keeps one player-1 move into
        `top[1]` and every player-2 move back."""
        g, rows, t = self.base, self._rows, self.transducer
        alphabet2, vertices = g.alphabet2, g.vertices
        pinned = [(a,) for a in t.labels]
        at = [t.outputs.index(a) for a in t.labels]
        owner, color, succ, acts = [], [], [], []
        for (u, x), row in zip(self.order, rows):
            v = vertices[u]
            owner.append(v.owner)
            color.append(v.color)
            if v.owner == 1:
                succ.append([row[at[x]]])
                acts.append(pinned[x])
            else:
                succ.append(row)
                acts.append(alphabet2)
        owner += (1, 2)
        color += (2, 2)
        succ += (rows[-2][:1], rows[-1])
        acts += (g.alphabet1[:1], alphabet2)
        return Arena(g.objective, g.alphabet1, alphabet2, owner, color, succ, acts)

    def solution(self) -> tuple[frozenset[int], Mapping[int, Lasso]]:
        if self._solution is None:
            self._solution = solve_one_player(self.arena)
        return self._solution


def _explore(
    g: GameGraph,
    start: int,
    offer: Callable[[int], Mapping[str, int]],
    step: Callable[[int, str], int],
    cap: float = math.inf,
    settled: frozenset[int] = frozenset(),
) -> tuple[Optional[list[list[int]]], dict[Position, int], list[Position]]:
    """Cross the total arena `g` with a deterministic observer.

    Numbers the (base vertex, state) pairs reachable from (initial vertex,
    `start`) in breadth-first order.  At a player-1 position with state x,
    `offer(x)` maps each action the observer allows to its next state; every
    other action concedes to the `TOP_NAMES` paradise on the last two ids.
    Player-2 actions advance the state by `step(x, b)`.  A move into a base
    vertex of `settled`, and the start when the initial vertex is one,
    takes the state `SETTLED` instead, which offers every action and steps
    to itself: from there on the play is the base arena's.  Returns the
    successor rows by vertex id, each in its owner's alphabet order, the
    position ids and the positions in id order; no position is named
    (`_named_graph` does that).  Exploration stops as soon as more than
    `cap` positions exist; the rows are then None.
    """
    first = (g.initial, SETTLED if g.initial in settled else start)
    positions: dict[Position, int] = {first: 0}
    order: list[Position] = [first]
    rows: list[list[int]] = []
    off: list[list[int]] = []  # rows with a move into the paradise, marked -1

    vertices, base_edges = g.vertices, g.edges
    everything = dict.fromkeys(g.alphabet1, SETTLED)  # what `SETTLED` offers
    i = 0
    while i < len(order) <= cap:  # stop once more than `cap` positions exist
        u, x = order[i]
        row = []
        if vertices[u].owner == 1:
            moves = everything if x == SETTLED else offer(x)
            for a in g.alphabet1:
                y = moves.get(a)
                if y is None:
                    row.append(-1)
                    continue
                pos = (base_edges[(u, a)], y)
                j = positions.get(pos)
                if j is None:
                    if pos[0] in settled:  # per new key, not per edge
                        pos = (pos[0], SETTLED)
                        j = positions.get(pos)
                    if j is None:
                        j = positions[pos] = len(order)
                        order.append(pos)
                row.append(j)
            if len(row) != len(moves):
                off.append(row)
        else:
            for b in g.alphabet2:
                pos = (base_edges[(u, b)], x if x == SETTLED else step(x, b))
                j = positions.get(pos)
                if j is None:
                    if pos[0] in settled:
                        pos = (pos[0], SETTLED)
                        j = positions.get(pos)
                    if j is None:
                        j = positions[pos] = len(order)
                        order.append(pos)
                row.append(j)
        rows.append(row)
        i += 1
    if len(order) > cap:
        return None, positions, order

    top_a, top_b = len(order), len(order) + 1
    for row in off:
        row[:] = [top_b if j < 0 else j for j in row]
    rows.append([top_b] * len(g.alphabet1))
    rows.append([top_a] * len(g.alphabet2))
    return rows, positions, order


def _named_graph(
    g: GameGraph, rows: list[list[int]], order: Sequence[Position]
) -> GameGraph:
    """The explorer's arena as a `GameGraph`: position (u, x) is named
    `(<name of u>,<x>)` and keeps u's owner and color."""
    vertices = []
    for i, (u, x) in enumerate(order):
        v = g.vertices[u]
        vertices.append(Vertex(i, f"({v.name},{x})", v.owner, v.color))
    vertices.append(Vertex(len(order), TOP_NAMES[0], 1, 2))
    vertices.append(Vertex(len(order) + 1, TOP_NAMES[1], 2, 2))
    edges = {
        (v.id, a): t
        for v, row in zip(vertices, rows)
        for a, t in zip(g.alphabet1 if v.owner == 1 else g.alphabet2, row)
    }
    return GameGraph(g.objective, g.alphabet1, g.alphabet2, tuple(vertices), edges, 0)


def _int_arena(g: GameGraph, rows: list[list[int]], order: Sequence[Position]) -> Arena:
    """The explorer's arena in the solver's integer form, with no names."""
    vertices = g.vertices
    owner = [vertices[u].owner for u, _x in order] + [1, 2]
    color = [vertices[u].color for u, _x in order] + [2, 2]
    acts = [g.alphabet1 if o == 1 else g.alphabet2 for o in owner]
    return Arena(g.objective, g.alphabet1, g.alphabet2, owner, color, rows, acts)


def build_product(g: GameGraph, t: Transducer) -> ProductGame:
    """Pair `g` with machine `t`.  Only positions reachable from (initial
    vertex, initial state) are materialized, numbered in breadth-first
    discovery order; the deviation paradise takes the last two ids."""
    if tuple(t.outputs) != g.alphabet1 or tuple(t.inputs) != g.alphabet2:
        raise GameError("machine alphabets do not match the arena")
    if not g.is_total():
        raise GameError("build_product requires a total arena (run complete first)")
    offer = [{label: m} for m, label in enumerate(t.labels)].__getitem__
    by_input = [dict(zip(t.inputs, row)) for row in t.trans]
    rows, positions, order = _explore(
        g, t.initial, offer, lambda x, b: by_input[x][b]
    )
    return ProductGame(g, t, rows, positions, order)


def reachable_positions(p: ProductGame) -> tuple[Position, ...]:
    """Positions reachable from the initial one, in breadth-first order.
    The deviation paradise is not listed (it is not a game/state pair)."""
    return p.order


def p2_winning_positions(
    p: ProductGame,
) -> tuple[frozenset[Position], Mapping[Position, Lasso]]:
    """Positions player 2 wins from (player 1 pinned to the machine), with
    one witness lasso per winning position.  The lassos are a read-only
    mapping keyed by position in id order; each is built on first access."""
    region, lassos = p.solution()
    won = [pos for pos in p.order if p.positions[pos] in region]
    return frozenset(won), LazyMap(won, lambda pos: lassos[p.positions[pos]])


def winning_lasso(p: ProductGame, pos: Position) -> Lasso:
    """Witness lasso for a winning position; raises if the position loses."""
    region, lassos = p.solution()
    vid = p.positions[pos]
    if vid not in region:
        raise GameError(f"position {pos} is not winning for player 2")
    return lassos[vid]


def distinguish_extension(
    alpha: Union[Word, Sequence[str]],
    t1: Transducer,
    t2: Transducer,
) -> Optional[tuple[str, ...]]:
    """Shortest input sequence telling the two machines apart after `alpha`.

    Both machines must agree with `alpha`.  Feeding the returned sequence
    from the states the machines reach after alpha's player-2 actions makes
    their outputs differ at some point (possibly before any input, when the
    current labels already differ).  Returns None iff the machines behave
    identically from those states; the sequence never needs more inputs than
    the number of state pairs.
    """
    word = alpha if isinstance(alpha, Word) else Word(tuple(alpha))
    if not word.finite:
        raise GameError("alpha must be a finite word")
    if t1.inputs != t2.inputs or t1.outputs != t2.outputs:
        raise GameError("machines must share their alphabets")
    for t in (t1, t2):
        if not agrees(word, t):
            raise GameError("a machine does not agree with alpha")
    s1, _ = run(t1, word.prefix[1::2])
    s2, _ = run(t2, word.prefix[1::2])
    start = (s1, s2)
    parent: dict[tuple[int, int], tuple[tuple[int, int], str]] = {start: (start, "")}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        m1, m2 = pair
        if t1.labels[m1] != t2.labels[m2]:
            path: list[str] = []
            cur = pair
            while cur != start:
                prev, sym = parent[cur]
                path.append(sym)
                cur = prev
            path.reverse()
            return tuple(path)
        for sym in t1.inputs:
            nxt = (t1.step(m1, sym), t2.step(m2, sym))
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None
