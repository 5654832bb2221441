"""Restricted arenas in which player 1 must follow a fixed machine.

`build_product` pairs each game vertex with a machine state.  At a player-1
position only the machine's labeled action continues the game; every other
player-1 action falls into an absorbing player-2 paradise (the machine would
never play it, so player 1 deviating concedes).  Player-2 actions advance
both the game vertex and the machine state.

The product is one case of `_explore`, which crosses an arena with any
deterministic observer whose states are ints: a machine here, and the
subset construction over all k-state machines in `synthesis.solve_bounded`.
It numbers the reachable (vertex, state) pairs in breadth-first order and
writes the arena by vertex id, with no name lookups.

Because player 1 has no real choice left, each product solves in polynomial
time via `solve_one_player` on the on-policy restriction.  Witness lassos
are built only when one is first read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .graphs import GameError, GameGraph, Lasso, Vertex, Word
from .graphs import make_game  # noqa: F401  -- unused here; bench/tracing.py wraps it
from .solvers import LazyMap, solve_one_player
from .transducers import Transducer, agrees, run

Position = tuple[int, int]  # (base vertex id, machine state)

TOP_NAMES = ("~top_a", "~top_b")  # player-2 paradise absorbing deviations


@dataclass
class ProductGame:
    base: GameGraph
    transducer: Transducer
    graph: GameGraph  # realized arena; total
    positions: dict[Position, int]  # position -> graph vertex id
    of_vertex: dict[int, Position]  # inverse, excluding the top pair
    top: tuple[int, int]  # graph ids of the paradise pair (owner 1, owner 2)
    initial: Position
    order: tuple[Position, ...]  # reachable positions, in id order
    _solution: Optional[tuple[frozenset[int], Mapping[int, Lasso]]] = field(
        default=None, repr=False
    )

    def policy_view(self) -> GameGraph:
        """Copy of the arena keeping only the machine's action at player-1
        positions (the top pair keeps a single arbitrary action).  Only
        off-policy moves and the top pair's own moves enter `top[1]`."""
        top_a, top_b = self.top
        edges = {key: t for key, t in self.graph.edges.items() if t != top_b}
        edges[(top_a, self.graph.alphabet1[0])] = top_b
        return GameGraph(
            self.graph.objective,
            self.graph.alphabet1,
            self.graph.alphabet2,
            self.graph.vertices,
            edges,
            self.graph.initial,
            _by_name=self.graph._by_name,
        )

    def solution(self) -> tuple[frozenset[int], Mapping[int, Lasso]]:
        if self._solution is None:
            self._solution = solve_one_player(self.policy_view())
        return self._solution


def _explore(
    g: GameGraph,
    start: int,
    offer: Callable[[int], Mapping[str, int]],
    step: Callable[[int, str], int],
    cap: float = math.inf,
) -> tuple[Optional[GameGraph], dict[Position, int], list[Position]]:
    """Cross the total arena `g` with a deterministic observer.

    Numbers the (base vertex, state) pairs reachable from (initial vertex,
    `start`) in breadth-first order.  At a player-1 position with state x,
    `offer(x)` maps each action the observer allows to its next state; every
    other action concedes to the `TOP_NAMES` paradise on the last two ids.
    Player-2 actions advance the state by `step(x, b)`.  Returns the arena,
    the position ids and the positions in id order.  Exploration stops as
    soon as more than `cap` positions exist; the arena is then None.
    """
    first = (g.initial, start)
    positions: dict[Position, int] = {first: 0}
    order: list[Position] = [first]
    edges: dict[tuple[int, str], int] = {}
    off: list[tuple[int, str]] = []  # into the paradise, id not yet known

    vertices, base_edges = g.vertices, g.edges
    i = 0
    while i < len(order) <= cap:  # stop once more than `cap` positions exist
        u, x = order[i]
        if vertices[u].owner == 1:
            moves = offer(x)
            for a in g.alphabet1:
                if a not in moves:
                    off.append((i, a))
                    continue
                pos = (base_edges[(u, a)], moves[a])
                j = positions.get(pos)
                if j is None:
                    j = positions[pos] = len(order)
                    order.append(pos)
                edges[(i, a)] = j
        else:
            for b in g.alphabet2:
                pos = (base_edges[(u, b)], step(x, b))
                j = positions.get(pos)
                if j is None:
                    j = positions[pos] = len(order)
                    order.append(pos)
                edges[(i, b)] = j
        i += 1
    if len(order) > cap:
        return None, positions, order

    top_a, top_b = len(order), len(order) + 1
    for key in off:
        edges[key] = top_b
    for a in g.alphabet1:
        edges[(top_a, a)] = top_b
    for b in g.alphabet2:
        edges[(top_b, b)] = top_a
    vertices = []
    for i, (u, x) in enumerate(order):
        v = g.vertices[u]
        vertices.append(Vertex(i, f"({v.name},{x})", v.owner, v.color))
    vertices.append(Vertex(top_a, TOP_NAMES[0], 1, 2))
    vertices.append(Vertex(top_b, TOP_NAMES[1], 2, 2))
    graph = GameGraph(g.objective, g.alphabet1, g.alphabet2, tuple(vertices), edges, 0)
    return graph, positions, order


def build_product(g: GameGraph, t: Transducer) -> ProductGame:
    """Pair `g` with machine `t`.  Only positions reachable from (initial
    vertex, initial state) are materialized, numbered in breadth-first
    discovery order; the deviation paradise takes the last two ids."""
    if tuple(t.outputs) != g.alphabet1 or tuple(t.inputs) != g.alphabet2:
        raise GameError("machine alphabets do not match the arena")
    if not g.is_total():
        raise GameError("build_product requires a total arena (run complete first)")
    offer = [{label: m} for m, label in enumerate(t.labels)].__getitem__
    graph, positions, order = _explore(g, t.initial, offer, t.step)
    return ProductGame(
        base=g,
        transducer=t,
        graph=graph,
        positions=positions,
        of_vertex=dict(enumerate(order)),
        top=(len(order), len(order) + 1),
        initial=order[0],
        order=tuple(order),
    )


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
