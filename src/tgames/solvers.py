"""Winning-region computation.

`solve_parity` runs Zielonka's algorithm, its frames on an explicit stack,
and returns positional strategies together with the two regions.  Büchi
games are parity games over colors {1, 2}; a reachability game is won by
player 2 exactly on its attractor to the color-2 vertices.  It runs on
`Arena`, an integer form of an arena: owner and color lists, successor rows
in alphabet order and predecessor rows in vertex order.  A `GameGraph` is
compiled to that form once per call (`compile_arena`); the knowledge arena
is built in it directly.

`solve_one_player` handles arenas in which player 1 has exactly one outgoing
edge per vertex (a deterministic environment) in polynomial time.  It runs
on rows too: a machine's product hands it rows whose player-1 vertices keep
only the machine's action, and a `GameGraph` is checked and compiled to
such rows once.  Tarjan's algorithm finds the cycles, one backward search
gives the region, and the witness lasso for a vertex player 2 wins from is
built only when it is first read.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence, Union

from .graphs import GameError, GameGraph, Lasso, REACHABILITY


@dataclass
class ParitySolution:
    region1: frozenset[int]
    region2: frozenset[int]
    strategy1: dict[int, str]
    strategy2: dict[int, str]

    def winner(self, vid: int) -> int:
        return 2 if vid in self.region2 else 1


@dataclass
class Arena:
    """Integer form of an arena, the one form the solvers run on.

    Vertex v has owner `owner[v]` and color `color[v]`; its edges go to the
    targets `succ[v]` on the actions `acts[v]`, in alphabet order.  In a
    total arena every row holds the owner's whole alphabet; the one-player
    solver also takes rows in which each player-1 vertex keeps one edge.
    `pred[t]` lists the (source, action) pairs into t, sources in vertex
    order; it is built on first read.
    """

    objective: str
    alphabet1: tuple[str, ...]
    alphabet2: tuple[str, ...]
    owner: list[int]
    color: list[int]
    succ: list[list[int]] = field(repr=False)
    acts: list[tuple[str, ...]] = field(repr=False)

    @cached_property
    def pred(self) -> list[list[tuple[int, str]]]:
        pred: list[list[tuple[int, str]]] = [[] for _ in self.owner]
        for v, (row, acts) in enumerate(zip(self.succ, self.acts)):
            for a, t in zip(acts, row):
                pred[t].append((v, a))
        return pred

    @property
    def n(self) -> int:
        return len(self.owner)


def compile_arena(g: GameGraph) -> Arena:
    """The integer form of `g`, same vertex ids.  Each row keeps the edges
    `g` has, in alphabet order; a vertex with all of them shares the
    alphabet tuple as its actions."""
    owner = [v.owner for v in g.vertices]
    color = [v.color for v in g.vertices]
    edges = g.edges
    succ, acts = [], []
    for v, o in enumerate(owner):
        alphabet = g.alphabet1 if o == 1 else g.alphabet2
        row = [edges.get((v, a)) for a in alphabet]
        if None in row:
            alphabet = tuple(a for a, t in zip(alphabet, row) if t is not None)
            row = [t for t in row if t is not None]
        acts.append(alphabet)
        succ.append(row)
    return Arena(g.objective, g.alphabet1, g.alphabet2, owner, color, succ, acts)


def _attractor(
    arena: Arena,
    region: set[int],
    targets: set[int],
    player: int,
) -> tuple[set[int], dict[int, str]]:
    """Player's attractor to `targets` inside `region`, with a pull strategy
    for the player's vertices added along the way."""
    owner, succ, pred = arena.owner, arena.succ, arena.pred
    attr = set(targets)
    strat: dict[int, str] = {}
    # remaining region-internal out-degree for the opponent's vertices
    degree = {
        vid: len([t for t in succ[vid] if t in region])
        for vid in region
        if owner[vid] != player
    }
    queue = deque(sorted(targets))
    while queue:
        w = queue.popleft()
        for vid, a in pred[w]:
            if vid not in region or vid in attr:
                continue
            if owner[vid] == player:
                attr.add(vid)
                strat[vid] = a
                queue.append(vid)
            else:
                degree[vid] -= 1
                if degree[vid] == 0:
                    attr.add(vid)
                    queue.append(vid)
    return attr, strat


def _first_action_within(arena: Arena, vid: int, region: set[int]) -> str:
    for a, tgt in zip(arena.acts[vid], arena.succ[vid]):
        if tgt in region:
            return a
    raise GameError(f"vertex {vid} has no successor in subgame")


def _zielonka(arena: Arena, region: set[int]):
    """Zielonka's algorithm on `region`, as a generator: it yields each
    subgame it needs solved, is sent that subgame's (w1, w2, s1, s2), and
    returns its own.  Each pass solves the game below the player's
    attractor to the top color; where the opponent wins part of it, the
    opponent's attractor to that part is peeled off and the next pass runs
    on the rest.  So frames nest at most once per color."""
    color, owner = arena.color, arena.owner
    regions, strats = {1: set(), 2: set()}, {1: {}, 2: {}}
    peeled = []  # (opponent, its attractor, pull, subgame strategy), in order
    while region:
        d = max(color[vid] for vid in region)
        player = 2 if d % 2 == 0 else 1
        opponent = 3 - player
        targets = {vid for vid in region if color[vid] == d}
        attr, pull = _attractor(arena, region, targets, player)
        w1, w2, s1, s2 = yield region - attr
        lose_sub = w1 if player == 2 else w2
        if lose_sub:
            attr_b, pull_b = _attractor(arena, region, lose_sub, opponent)
            peeled.append((opponent, attr_b, pull_b, s1 if player == 2 else s2))
            region = region - attr_b
            continue
        strat = dict(s2 if player == 2 else s1)
        strat.update(pull)
        for vid in targets:
            if owner[vid] == player and vid not in strat:
                strat[vid] = _first_action_within(arena, vid, region)
        regions[player], strats[player] = set(region), strat
        break
    for q, attr_b, pull_b, sub in reversed(peeled):  # innermost pass first
        regions[q] = regions[q] | attr_b
        strats[q].update(pull_b)
        strats[q].update(sub)
    return regions[1], regions[2], strats[1], strats[2]


def solve_parity(g: Union[GameGraph, Arena]) -> ParitySolution:
    """Regions and positional strategies for both players on a total arena.

    A `GameGraph` is compiled to an `Arena` once; an `Arena` is taken as it
    is, so its maker vouches that it is total."""
    arena = g
    if isinstance(g, GameGraph):
        if not g.is_total():
            raise GameError("solve_parity requires a total arena")
        arena = compile_arena(g)
    owner, n = arena.owner, arena.n
    everything = set(range(n))
    if arena.objective == REACHABILITY:
        targets = {vid for vid in range(n) if arena.color[vid] == 2}
        w2, s2 = _attractor(arena, everything, targets, 2)
        # a play at a target is already won; any action is as good as any other
        for vid in targets:
            if owner[vid] == 2:
                s2[vid] = arena.alphabet2[0]
        w1 = everything - w2
        s1 = {
            vid: _first_action_within(arena, vid, w1)
            for vid in w1
            if owner[vid] == 1
        }
        return ParitySolution(frozenset(w1), frozenset(w2), s1, s2)
    # the frames wait on their subgames on an explicit stack
    stack, solved = [_zielonka(arena, everything)], None
    while stack:
        try:
            stack.append(_zielonka(arena, stack[-1].send(solved)))
            solved = None
        except StopIteration as done:
            stack.pop()
            solved = done.value
    w1, w2, s1, s2 = solved
    return ParitySolution(frozenset(w1), frozenset(w2), s1, s2)


def _tarjan_sccs(inside: Sequence[bool], succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan over the vertices v with `inside[v]`, roots in id
    order, edges in row order; edges leaving the subset are ignored."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if not inside[root] or index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not inside[w]:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _bfs_path(arena: Arena, src: int, goals: set[int], allowed=None):
    """Shortest (vertex, action) path from src to any goal; ties broken by
    row (alphabet) order.  Returns (steps, goal) or None."""
    if src in goals:
        return [], src
    succ, acts = arena.succ, arena.acts
    parent: dict[int, tuple[int, str]] = {src: (-1, "")}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for a, t in zip(acts[v], succ[v]):
            if allowed is not None and t not in allowed:
                continue
            if t in parent:
                continue
            parent[t] = (v, a)
            if t in goals:
                steps = []
                cur = t
                while cur != src:
                    pv, pa = parent[cur]
                    steps.append((pv, pa))
                    cur = pv
                steps.reverse()
                return steps, t
            queue.append(t)
    return None


def _shortest_cycle(arena: Arena, u: int, allowed: set[int]):
    """Shortest nonempty (vertex, action) cycle through u inside `allowed`."""
    best = None
    for a, t in zip(arena.acts[u], arena.succ[u]):
        if t not in allowed:
            continue
        if t == u:
            return [(u, a)]
        found = _bfs_path(arena, t, {u}, allowed)
        if found is not None:
            steps, _ = found
            cand = [(u, a)] + steps
            if best is None or len(cand) < len(best):
                best = cand
    return best


class LazyMap(Mapping):
    """Read-only mapping over a fixed key sequence whose values are computed
    by `compute(key)` on first access and kept."""

    def __init__(self, keys: Sequence, compute: Callable):
        self._keys = tuple(keys)
        self._members = frozenset(self._keys)
        self._compute = compute
        self._values: dict = {}

    def __getitem__(self, key):
        if key not in self._values:
            if key not in self._members:
                raise KeyError(key)
            self._values[key] = self._compute(key)
        return self._values[key]

    def __contains__(self, key) -> bool:
        return key in self._members

    def __iter__(self) -> Iterator:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def solve_one_player(
    g: Union[GameGraph, Arena],
) -> tuple[frozenset[int], Mapping[int, Lasso]]:
    """Player-2 winning set plus witness lassos when player 1 never chooses.

    Every owner-1 vertex must have exactly one outgoing edge; the arena
    degenerates to a graph in which only player 2 branches, so winning is
    reachability of a suitable vertex/cycle.  A `GameGraph` has its
    out-degrees checked and is compiled to rows once; an `Arena` is taken
    as it is, so its maker vouches for the out-degrees.  The region comes
    from one backward search from the goal vertices.  The lassos are a
    read-only mapping keyed by the winning vertices in id order; each lasso
    is built on first access.
    """
    arena = g
    if isinstance(g, GameGraph):
        arena = compile_arena(g)
        for v, row in enumerate(arena.succ):
            if arena.owner[v] == 1 and len(row) != 1:
                name, degree = g.vertices[v].name, len(row)
                raise GameError(
                    f"owner-1 vertex {name!r} has out-degree {degree}, expected 1"
                )
    succ, color = arena.succ, arena.color
    good: dict[int, Optional[set[int]]] = {}  # anchor -> allowed set for its cycle
    if arena.objective == REACHABILITY:
        good = {v: None for v, c in enumerate(color) if c == 2}
    else:
        for c in sorted({c for c in color if c % 2 == 0}):
            inside = [d <= c for d in color]
            for comp in _tarjan_sccs(inside, succ):
                if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                    continue  # trivial: no cycle through it
                members = set(comp)  # Tarjan stays within `inside`
                for u in comp:
                    if color[u] == c:
                        good[u] = members

    goals = set(good)
    # sources only: the search needs no actions, and skipping the pairs of
    # `arena.pred` saves about a tenth of a controller move
    pred: list[list[int]] = [[] for _ in succ]
    for v, row in enumerate(succ):
        for t in row:
            pred[t].append(v)
    winning = set(goals)
    queue = deque(goals)
    while queue:
        for v in pred[queue.popleft()]:
            if v not in winning:
                winning.add(v)
                queue.append(v)

    def lasso(vid: int) -> Lasso:
        steps, u = _bfs_path(arena, vid, goals)
        if arena.objective == REACHABILITY:
            # color 2 already reached at u; close any cycle afterwards
            tail: list[tuple[int, str]] = []
            seen_at = {u: 0}
            cur = u
            while True:
                a, t = arena.acts[cur][0], succ[cur][0]
                tail.append((cur, a))
                if t in seen_at:
                    cut = seen_at[t]
                    return Lasso(tuple(steps) + tuple(tail[:cut]), tuple(tail[cut:]))
                seen_at[t] = len(tail)
                cur = t
        return Lasso(tuple(steps), tuple(_shortest_cycle(arena, u, good[u])))

    return frozenset(winning), LazyMap(sorted(winning), lasso)
