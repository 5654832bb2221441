"""Deciding whether probing a bounded environment can ever be fatal.

A game is k-live when every finite word that some k-state machine could have
produced still extends to a play player 2 wins while the environment keeps
following some k-state machine, that is, when for every machine every
position of its product reachable from the initial one is winning for
player 2.

`check_k_live` decides this for a whole window of machines at once.  Bit j
of an int stands for machine lo + j of the ordinal window [lo, lo + WINDOW),
and each product position (v, s) carries two such sets: `reach`, the
machines whose product reaches it, from a forward worklist, and `win`, the
machines whose product player 2 wins from it, from the objective's
fixpoint (a least fixpoint for reachability, a greatest over a least one
for Büchi, and for parity one such Büchi fixpoint per even color inside
the positions of no larger color).  A player-1 edge carries the machines
whose state emits its action, a player-2 edge into state s2 the machines
that step there; `transducers.machine_masks` builds both from the digits
of the ordinals.  The machines that fail are the union of `reach & ~win`.
`first_marked` walks the windows in ordinal order up to the first one
holding a failure; its lowest failing bit is the first failing machine in
ordinal order, whose product is then built and solved once
(`_scan_machine`) for the counterexample (machine, access word, position)
that `verify_witness` re-checks from scratch.  A window costs
O(|V|·k·WINDOW) bits per set.

`word_in_Ak` walks the same windows with a set of (machine, state) pairs
per window, in the layout of `transducers.MachineSet`, which owns it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .graphs import REACHABILITY, GameError, GameGraph, Word
from .product import ProductGame, build_product, p2_winning_positions, reachable_positions
from .solvers import _bfs_path
from .transducers import (
    MachineSet,
    Transducer,
    agrees,
    count,
    enumerate_transducers,  # noqa: F401  -- unused here; bench/tracing.py wraps it
    from_ordinal,
    machine_masks,
)

DEFAULT_CAP = 10_000_000
WINDOW = 1 << 14  # machines decided at once, one bit each
# Machines per window of the controller's hypothesis scan (synthesis.py).
# The controller keeps one window's masks between moves, so the window is
# sized for memory: on robot(2) at k = 2 one kernel pass allocates at most
# about 0.7 MB against 2.6 MB at 1 << 14, and a scan that skips thousands
# of hypotheses still crosses only a few windows.
SCAN_WINDOW = 1 << 12


@dataclass
class LivenessWitness:
    transducer: Transducer
    alpha: tuple[str, ...]
    position: tuple[int, int]  # (base vertex id, machine state)

    def position_name(self, g: GameGraph) -> str:
        vid, m = self.position
        return f"({g.vertices[vid].name},{m})"


@dataclass
class LivenessStats:
    transducers_examined: int = 0
    windows: int = 0  # ordinal windows swept
    wall_time: float = 0.0


@dataclass
class LivenessVerdict:
    live: Optional[bool]  # None: undecided, machine count above the cap
    witness: Optional[LivenessWitness] = None
    stats: LivenessStats = field(default_factory=LivenessStats)

    @property
    def undecided(self) -> bool:
        return self.live is None


def _access_word(p: ProductGame, target: tuple[int, int]) -> tuple[str, ...]:
    """Shortest action path from the initial position to `target`; ties are
    broken by alphabet order.  Follows the machine's actions only, so the
    word agrees with the machine."""
    found = _bfs_path(p.arena, 0, {p.positions[target]})
    if found is None:
        raise GameError("internal error: losing position not reachable")
    steps, _goal = found
    return tuple(a for _v, a in steps)


def _scan_machine(g: GameGraph, t: Transducer) -> Optional[LivenessWitness]:
    """One machine's counterexample, from its own product, or None."""
    prod = build_product(g, t)
    win, _ = p2_winning_positions(prod)
    for pos in reachable_positions(prod):
        if pos not in win:
            return LivenessWitness(t, _access_word(prod, pos), pos)
    return None


def _close(sets: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    """Least fixpoint above `sets` (updated in place) in which each edge
    (mask, y) of `adj[x]` carries `sets[x] & mask` into `sets[y]`.  Only the
    bits a node gained since it was last visited are pushed on.  Nodes wait
    in FIFO order, so each collects bits from many edges before its visit;
    a LIFO stack made the robot(2) sweep at k = 2 about 70 times slower."""
    delta = sets[:]
    work = deque(x for x, d in enumerate(delta) if d)
    while work:
        x = work.popleft()
        d = delta[x]
        delta[x] = 0
        for m, y in adj[x]:
            new = d & m & ~sets[y]
            if new:
                if not delta[y]:
                    work.append(y)
                delta[y] |= new
                sets[y] |= new
    return sets


class _Kernel:
    """The bit-parallel sweep of one game at one k.  Node v * k + s is the
    product position (v, s); its edges are grouped by target once, and each
    window gives every group the OR of its label or step masks."""

    def __init__(self, g: GameGraph, k: int):
        self.g, self.k = g, k
        n1, n2 = len(g.alphabet1), len(g.alphabet2)
        self.groups: list[list[tuple[int, list[int]]]] = []
        # a mask index: label (s, i) is s * n1 + i, step (s, b, s2) follows
        for v in g.vertices:
            for s in range(k):
                into: dict[int, list[int]] = {}
                if v.owner == 1:
                    for i, a in enumerate(g.alphabet1):
                        into.setdefault(g.edges[(v.id, a)] * k + s, []).append(s * n1 + i)
                else:
                    for b, sym in enumerate(g.alphabet2):
                        w = g.edges[(v.id, sym)]
                        for s2 in range(k):
                            into.setdefault(w * k + s2, []).append(
                                k * n1 + (s * n2 + b) * k + s2
                            )
                self.groups.append(list(into.items()))
        self.color = [v.color for v in g.vertices for _s in range(k)]

    def sets(self, lo: int, hi: int) -> tuple[list[int], list[int]]:
        """Per node, the machines of [lo, hi) whose product reaches it
        (`reach`) and those whose product player 2 wins from it (`win`), as
        bit masks over the window."""
        g, k = self.g, self.k
        labels, steps = machine_masks(k, g.alphabet1, g.alphabet2, lo, hi)
        flat = [m for row in labels for m in row]
        flat += [m for row in steps for col in row for m in col]
        full = (1 << (hi - lo)) - 1
        nodes = range(len(self.groups))
        fwd: list[list[tuple[int, int]]] = [[] for _ in nodes]
        bwd: list[list[tuple[int, int]]] = [[] for _ in nodes]
        for x, groups in enumerate(self.groups):
            for y, members in groups:
                m = flat[members[0]]  # shared, not copied, when it stands alone
                for i in members[1:]:
                    m |= flat[i]
                if m:
                    fwd[x].append((m, y))
                    bwd[y].append((m, x))
        reach = [0] * len(self.groups)
        reach[g.initial * k] = full
        _close(reach, fwd)
        return reach, self._win(fwd, bwd, full)

    def winnable(self, lo: int, hi: int) -> list[int]:
        """Per base vertex v, the machines of [lo, hi) whose product reaches
        some (v, s) that player 2 wins from, as bit masks over the window."""
        k = self.k
        masks = [0] * len(self.g.vertices)
        for x, (r, w) in enumerate(zip(*self.sets(lo, hi))):
            masks[x // k] |= r & w
        return masks

    def failing(self, lo: int, hi: int) -> int:
        """The machines of [lo, hi) whose product reaches a position player
        2 loses from, as a bit mask over the window."""
        fail = 0
        for r, w in zip(*self.sets(lo, hi)):
            fail |= r & ~w
        return fail

    def _win(self, fwd, bwd, full) -> list[int]:
        """Per node, the machines whose product player 2 wins from it."""
        color = self.color
        if self.g.objective == REACHABILITY:
            return _close([full if c == 2 else 0 for c in color], bwd)
        even = sorted({c for c in color if c % 2 == 0})
        anchors = [0] * len(color)
        for c in even:
            inside = [d <= c for d in color]
            adj = bwd
            if not all(inside):
                adj = [[(m, y) for m, y in row if inside[y]] for row in bwd]
            for x, z in enumerate(self._buchi(fwd, adj, inside, c, full)):
                anchors[x] |= z
        if len(even) == 1 and max(color) <= even[0]:
            return anchors  # one Büchi set over every node: already closed
        return _close(anchors, bwd)

    def _buchi(self, fwd, adj, inside, c, full) -> list[int]:
        """nu Z. mu Y. (C ∩ Pre(Z)) ∪ Pre(Y) inside the nodes `inside`, C
        the nodes of color c: the machines that can visit color c forever
        without leaving `inside`."""
        goals = [x for x, d in enumerate(self.color) if d == c]
        z = [full if i else 0 for i in inside]
        while True:
            y = [0] * len(z)
            for x in goals:
                pre = 0
                for m, t in fwd[x]:
                    pre |= m & z[t]
                y[x] = pre
            _close(y, adj)
            if y == z:
                return z
            z = y


def first_marked(
    marks: Callable[[int], int], i: int, stop: int, size: int
) -> Optional[int]:
    """The first ordinal in [i, stop) whose bit is set, or None.

    `marks(start)` is the bit mask of the aligned window [start, start +
    size), bit j for ordinal start + j; windows are asked for in order and
    only as far as the first mark."""
    while i < stop:
        start = i - i % size
        marked = marks(start) >> (i - start)
        if marked:
            i += (marked & -marked).bit_length() - 1
            return i if i < stop else None
        i = start + size
    return None


def check_k_live(g: GameGraph, k: int, cap: int = DEFAULT_CAP) -> LivenessVerdict:
    """Sweep all k-state machines; not-live when one admits a reachable
    position that player 2 loses under the arena's objective.  The witness
    is the first such machine in ordinal order.

    A machine count above `cap` yields an undecided verdict instead of a
    silent multi-day run.  `stats.transducers_examined` counts the machines
    up to and including the witness, or all of them when the game is live,
    and `stats.windows` the ordinal windows that holds.
    """
    if k < 1:
        raise GameError("k must be >= 1")
    if not g.is_total():
        raise GameError("check_k_live requires a total arena (run complete first)")
    started = time.perf_counter()
    stats = LivenessStats()
    total = count(k, g.alphabet1, g.alphabet2)
    if total > cap:
        stats.wall_time = time.perf_counter() - started
        return LivenessVerdict(live=None, stats=stats)

    kernel = _Kernel(g, k)
    ordinal = first_marked(
        lambda start: kernel.failing(start, min(start + WINDOW, total)), 0, total, WINDOW
    )
    stats.transducers_examined = total if ordinal is None else ordinal + 1
    stats.windows = -(-stats.transducers_examined // WINDOW)
    if ordinal is None:
        verdict = LivenessVerdict(live=True, stats=stats)
    else:
        w = _scan_machine(g, from_ordinal(ordinal, k, g.alphabet1, g.alphabet2))
        if w is None:
            raise GameError(f"internal error: machine {ordinal} failed in the sweep only")
        verdict = LivenessVerdict(live=False, witness=w, stats=stats)
    stats.wall_time = time.perf_counter() - started
    return verdict


def verify_witness(g: GameGraph, k: int, w: LivenessWitness) -> bool:
    """Re-check a counterexample independently of how it was found: the
    access word must agree with the machine, replaying it in the product
    must land on the claimed position, and that position must be losing."""
    if w.transducer.k != k:
        return False
    try:
        if not agrees(Word(tuple(w.alpha)), w.transducer):
            return False
        prod = build_product(g, w.transducer)
        vid = prod.graph.initial
        for a in w.alpha:
            vid = prod.graph.step(vid, a)
        if prod.of_vertex.get(vid) != tuple(w.position):
            return False
        win, _ = p2_winning_positions(prod)
        return tuple(w.position) not in win
    except GameError:
        return False


def word_in_Ak(
    w: Word,
    k: int,
    outputs: Sequence[str],
    inputs: Sequence[str],
) -> Optional[Transducer]:
    """Some k-state machine agreeing with `w`, or None.

    Existence is decided by folding the word's input-prefix chain into at
    most k states (exhaustive backtracking over state assignments with
    forced-transition propagation).  When the machine count is at most
    `DEFAULT_CAP`, the machine returned is the first agreeing one in
    enumeration order: the word is replayed through the `MachineSet` of
    each ordinal window in turn, and the lowest machine left in the first
    window with a survivor is it.  Above the cap the machine the search
    built is returned, which need not be the first.
    """
    outputs = tuple(outputs)
    inputs = tuple(inputs)
    actions = w.prefix
    if not w.finite:
        # unroll far enough that any k-state machine agreeing with the
        # unrolled part repeats a (cycle position, state) pair
        actions += w.cycle * (k + 1)
    for sym in set(actions[1::2]):
        if sym not in inputs:
            raise GameError(f"player-2 action {sym!r} outside the input alphabet")
    for out in set(actions[0::2]):
        if out not in outputs:
            raise GameError(f"player-1 action {out!r} outside the output alphabet")
    found = _fold_chain(actions, k, outputs, inputs)
    total = count(k, outputs, inputs)
    if found is None or total > DEFAULT_CAP:
        return found

    def agreeing(start: int) -> int:
        machines = MachineSet(k, outputs, inputs, start, min(start + WINDOW, total))
        return machines.machines(machines.replay(actions))

    first = first_marked(agreeing, 0, total, WINDOW)
    return None if first is None else from_ordinal(first, k, outputs, inputs)


def _fold_chain(actions, k, outputs, inputs):
    """A machine agreeing with `actions`, or None: assign a state to every
    position of the word's input-prefix chain, merging under determinism.

    Depth-first over positions 1..length: a position whose transition is
    already fixed takes its forced state, any other tries every state used
    so far and then one new one, in increasing order.  The open positions
    live on an explicit stack, so no word length can overflow the call
    stack."""
    # player-1 action 2i must be the label of the state reached after the
    # player-2 actions before it, which are the first i of `chain`
    required = dict(enumerate(actions[0::2]))
    chain = actions[1 : 2 * len(required) - 2 : 2]
    length = len(chain)
    labels: dict[int, str] = {0: required[0]} if 0 in required else {}
    trans: dict[tuple[int, str], int] = {}
    assign = [0] * (length + 1)
    # per open position: states left to try, states used before it, the
    # transition its choice fixes (None when forced), the label it set
    frames: list[list] = []
    i, used = 1, 1
    while 1 <= i <= length:
        if len(frames) < i:
            key = (assign[i - 1], chain[i - 1])
            forced = trans.get(key)
            if forced is not None:
                frames.append([iter((forced,)), used, None, None])
            else:
                frames.append([iter(range(min(used + 1, k))), used, key, None])
        frame = frames[-1]
        states, used, key, label = frame
        if label is not None:  # undo the state tried last at this position
            del labels[label]
            frame[3] = None
        if key is not None:
            trans.pop(key, None)
        req = required.get(i)
        state = next((m for m in states if req is None or labels.get(m, req) == req), None)
        if state is None:
            frames.pop()
            i -= 1
            continue
        if req is not None and state not in labels:
            labels[state] = req
            frame[3] = state
        if key is not None:
            trans[key] = state
            if state == used and used < k:
                used += 1
        assign[i] = state
        i += 1
    if i == 0:
        return None
    label_row = tuple(labels.get(m, outputs[0]) for m in range(k))
    rows = tuple(tuple(trans.get((m, s), 0) for s in inputs) for m in range(k))
    return Transducer(outputs, inputs, label_row, rows)
