"""Playing against an unknown bounded environment.

Two routes:

* `solve_bounded` decides outright whether player 2 can win against every
  k-state machine, via a knowledge arena whose player-1 positions carry the
  set of (machine, state) pairs still consistent with the observed play.
  Player 1's available moves at a knowledge position are exactly the labels
  some consistent pair would emit; a move both reveals information (the
  belief shrinks to the consistent subset) and advances the game.  Beliefs
  are interned to ints, so the arena comes from the same explorer as a
  machine's product (`product._explore`); other labels concede to its
  paradise.

* `adaptive_controller` produces the online strategy that wins every k-live
  game: hypothesize machines in enumeration order, track the candidate
  states consistent with observations, follow a winning lasso computed in
  the hypothesis' product, and advance the hypothesis whenever the
  environment contradicts it.

`simulate` runs a controller against a concrete hidden machine and decides
the winner either by reaching a color-2 vertex (reachability) or by closing
a lasso once the joint (vertex, machine state, controller state)
configuration repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .graphs import (
    GameError,
    GameGraph,
    Lasso,
    REACHABILITY,
    Word,
    winner_of_lasso,
)
from .graphs import make_game  # noqa: F401  -- unused here; bench/tracing.py wraps it
from .solvers import ParitySolution, solve_parity
from .product import (
    ProductGame,
    _explore,
    build_product,
    reachable_positions,
    winning_lasso,
)
from .transducers import (
    Transducer,
    canonical_ordinal,
    count,
    dedupe_behavioral,
    enumerate_transducers,
    from_ordinal,
)

DEFAULT_BELIEF_CAP = 1_000_000
DEFAULT_MACHINE_CAP = 10_000_000

Belief = frozenset[tuple[int, int]]  # (machine ordinal, machine state)


@dataclass
class BeliefArena:
    graph: GameGraph
    belief_of: dict[int, tuple[int, Belief]]  # arena vid -> (base vid, belief)
    machines: dict[int, Transducer]


@dataclass
class BoundedSolveResult:
    p2_wins: Optional[bool]  # None: hit a cap, undecided
    reason: str = ""
    positions: int = 0
    strategy: dict[int, str] = field(default_factory=dict)
    arena: Optional[BeliefArena] = None
    solution: Optional[ParitySolution] = None


def solve_bounded(
    g: GameGraph,
    k: int,
    dedupe: bool = False,
    belief_cap: int = DEFAULT_BELIEF_CAP,
    machine_cap: int = DEFAULT_MACHINE_CAP,
) -> BoundedSolveResult:
    """Can player 2 win against every k-state machine?

    Builds the reachable knowledge arena, scored under `g.objective`, and
    hands it to the parity solver.  Beliefs only ever shrink along a play
    and the machine pool is finite, so an infinite play consistent at every
    prefix is consistent with one fixed machine: the arena decides exactly
    the bounded-environment question.
    """
    if not g.is_total():
        raise GameError("solve_bounded requires a total arena")
    if count(k, g.alphabet1, g.alphabet2) > machine_cap:
        return BoundedSolveResult(None, reason="machine count above cap")
    stream = enumerate_transducers(k, g.alphabet1, g.alphabet2)
    if dedupe:
        stream = dedupe_behavioral(stream)
    machines = {canonical_ordinal(t): t for t in stream}

    # beliefs are interned to ids, the observer states of the explorer
    ids: dict[Belief, int] = {}
    beliefs: list[Belief] = []

    def intern(belief: Belief) -> int:
        x = ids.setdefault(belief, len(beliefs))
        if x == len(beliefs):
            beliefs.append(belief)
        return x

    def offer(x: int) -> dict[str, int]:
        # a label reveals information: the belief shrinks to the pairs emitting it
        groups: dict[str, list[tuple[int, int]]] = {}
        for o, m in beliefs[x]:
            groups.setdefault(machines[o].labels[m], []).append((o, m))
        return {a: intern(frozenset(grp)) for a, grp in groups.items()}

    def step(x: int, b: str) -> int:
        return intern(frozenset((o, machines[o].step(m, b)) for o, m in beliefs[x]))

    start = intern(frozenset((o, t.initial) for o, t in machines.items()))
    arena_graph, _positions, order = _explore(g, start, offer, step, belief_cap)
    if arena_graph is None:
        return BoundedSolveResult(
            None, reason="belief position count above cap", positions=len(order)
        )
    solution = solve_parity(arena_graph)
    belief_of = {i: (u, beliefs[x]) for i, (u, x) in enumerate(order)}
    arena = BeliefArena(arena_graph, belief_of, machines)
    strategy = {
        vid: a for vid, a in solution.strategy2.items() if vid < len(order)
    }
    return BoundedSolveResult(
        p2_wins=0 in solution.region2,
        positions=len(order),
        strategy=strategy,
        arena=arena,
        solution=solution,
    )


def steps_bound(
    n: int, k: int, outputs: Union[int, Sequence[str]], inputs: Union[int, Sequence[str]]
) -> int:
    """Guaranteed step budget for the adaptive controller to win a k-live
    reachability game: one lasso attempt costs at most 4*n*k steps, each
    machine burns at most k candidate states, and there are count(...) machines.
    """
    return count(k, outputs, inputs) * k * (4 * n * k)


@dataclass
class HypothesisRecord:
    step: int
    ordinal: int
    candidates: int


@dataclass
class Trace:
    actions: tuple[str, ...]
    winner: Optional[int]  # 1, 2, or None when undecided at the step cap
    steps: int
    hypothesis_log: tuple[HypothesisRecord, ...]


class AdaptiveController:
    """Online player-2 strategy that learns the environment machine.

    The controller walks the machine enumeration.  For the current
    hypothesis it keeps `candidates`: machine states m such that (current
    vertex, m) is reachable in the hypothesis' product and no observation
    since has contradicted m.  It conjectures the smallest candidate,
    follows a winning lasso computed from that product position, advances
    candidate states on its own moves, and drops candidates whose predicted
    output a player-1 observation refutes.  An empty candidate set moves to
    the next machine; after the last machine the scan wraps around.

    Storage stays polynomial: one ordinal and its product (the product's
    `.transducer` is the hypothesis machine, `from_ordinal(ordinal)`), at
    most k candidate states, one lasso with a cursor, and the current
    vertex.  Observation history is never kept.  With `dedupe` the
    hypotheses are the behaviour-class representatives instead, so the
    controller also keeps one machine per class.
    """

    def __init__(self, g: GameGraph, k: int, dedupe: bool = False):
        if not g.is_total():
            raise GameError("the controller needs a total arena")
        self.game = g
        self.k = k
        if dedupe:
            reps = tuple(
                dedupe_behavioral(enumerate_transducers(k, g.alphabet1, g.alphabet2))
            )
            self._machine = reps.__getitem__
            self.hypotheses = len(reps)
        else:
            self._machine = lambda i: from_ordinal(i, k, g.alphabet1, g.alphabet2)
            self.hypotheses = count(k, g.alphabet1, g.alphabet2)
        self.vertex = g.initial
        self.ordinal = 0
        self.candidates: list[int] = []
        self.conjecture: Optional[int] = None
        self.lasso: Optional[Lasso] = None
        self.cursor = 0
        self.tracking = False
        self.steps = 0
        self.log: list[HypothesisRecord] = []
        self._held: Optional[tuple[int, ProductGame]] = None

    # -- product plumbing ---------------------------------------------------

    def _product(self) -> ProductGame:
        """The current hypothesis' product, built when the ordinal moved."""
        if self._held is None or self._held[0] != self.ordinal:
            self._held = None  # let the old product go before building
            self._held = (
                self.ordinal,
                build_product(self.game, self._machine(self.ordinal)),
            )
        return self._held[1]

    # -- hypothesis management ----------------------------------------------

    def _scan(self) -> bool:
        """Find the next machine with some (current vertex, m) reachable;
        initialize its candidate set.  False when a full wrap found none."""
        for _ in range(self.hypotheses):
            reach = reachable_positions(self._product())
            ms = sorted(m for (v, m) in reach if v == self.vertex)
            if ms:
                self.candidates = ms
                self.tracking = True
                if self._conjecture_from_current():
                    return True
                self.tracking = False
            self.ordinal = (self.ordinal + 1) % self.hypotheses
        return False

    def _conjecture_from_current(self) -> bool:
        """Pick the least candidate with a winning lasso at the current
        vertex; drop candidates that admit none."""
        prod = self._product()
        while self.candidates:
            m = self.candidates[0]
            pos = (self.vertex, m)
            if pos in prod.positions:
                try:
                    self.lasso = winning_lasso(prod, pos)
                    self.conjecture = m
                    self.cursor = 0
                    return True
                except GameError:
                    pass
            self.candidates.pop(0)
        self.conjecture = None
        self.lasso = None
        return False

    def _lasso_entry(self) -> tuple[int, str]:
        steps = self.lasso.prefix + self.lasso.cycle
        return steps[self.cursor]

    def _bump_cursor(self):
        # past the end, play continues at the cycle head; the cycle has even
        # length, so the player alternation phase is preserved
        self.cursor += 1
        if self.cursor >= len(self.lasso.prefix) + len(self.lasso.cycle):
            self.cursor = len(self.lasso.prefix)

    def _advance_hypothesis(self):
        self.tracking = False
        self.conjecture = None
        self.lasso = None
        self.candidates = []
        self.ordinal = (self.ordinal + 1) % self.hypotheses

    # -- the actual strategy -------------------------------------------------

    def next_action(self, observed: str) -> str:
        """Consume the environment's move, emit ours."""
        g = self.game
        if g.vertices[self.vertex].owner != 1:
            raise GameError("next_action called out of turn")

        if self.tracking:
            # candidates predicting a different output are refuted; machine
            # states do not advance on player-1 moves
            labels = self._product().transducer.labels
            self.candidates = [m for m in self.candidates if labels[m] == observed]
            if self.conjecture is not None and self.conjecture not in self.candidates:
                # the conjectured lasso predicted exactly this machine's
                # label, so a refuted conjecture is a lasso deviation
                self.conjecture = None
                self.lasso = None
            elif self.conjecture is not None:
                self._bump_cursor()  # prediction confirmed, step past the entry

        self.vertex = g.step(self.vertex, observed)

        # hypothesis upkeep, now standing on a player-2 vertex
        if self.tracking and not self.candidates:
            self._advance_hypothesis()
        if self.tracking and self.lasso is None:
            if not self._conjecture_from_current():
                self._advance_hypothesis()
        if not self.tracking:
            self._scan()

        action = None
        guard = self.hypotheses + 2
        while action is None and self.tracking and guard > 0:
            guard -= 1
            pos, act = self._lasso_entry()
            vid = self._product().positions.get((self.vertex, self.conjecture))
            if vid is not None and pos == vid:
                action = act
                self._bump_cursor()
            else:
                # stale track: recompute the lasso at our actual position;
                # the candidate itself was not refuted by any observation
                self.conjecture = None
                self.lasso = None
                if not self._conjecture_from_current():
                    self._advance_hypothesis()
                    self._scan()
        if action is None:
            # nothing fits: the environment is outside the machine class.
            # Emit a default move and keep rescanning on the next turn.
            action = g.alphabet2[0]

        if self.tracking:
            t = self._product().transducer
            self.candidates = sorted({t.step(m, action) for m in self.candidates})
            if self.conjecture is not None:
                self.conjecture = t.step(self.conjecture, action)
        self.vertex = g.step(self.vertex, action)
        self.steps += 1
        self.log.append(
            HypothesisRecord(self.steps, self.ordinal, len(self.candidates))
        )
        return action

    def snapshot(self):
        """Hashable full controller state, for periodicity detection."""
        return (
            self.vertex,
            self.ordinal,
            tuple(self.candidates),
            self.conjecture,
            self.tracking,
            self.cursor,
            None if self.lasso is None else (self.lasso.prefix, self.lasso.cycle),
        )


def adaptive_controller(g: GameGraph, k: int, dedupe: bool = False) -> AdaptiveController:
    return AdaptiveController(g, k, dedupe=dedupe)


def simulate(
    g: GameGraph,
    controller,
    hidden: Transducer,
    max_steps: int,
) -> Trace:
    """Alternate the hidden machine's outputs with the controller's replies.

    Reachability plays stop as soon as a color-2 vertex is seen.  Otherwise
    the run stops when the joint configuration (game vertex, hidden state,
    controller state) repeats, and the closed lasso is scored; hitting
    `max_steps` first leaves the winner undecided.
    """
    if tuple(hidden.outputs) != g.alphabet1 or tuple(hidden.inputs) != g.alphabet2:
        raise GameError("hidden machine alphabets do not match the arena")
    vertex = g.initial
    state = hidden.initial
    actions: list[str] = []
    seen: dict[tuple, int] = {}
    reached_two = g.vertices[vertex].color == 2
    log = getattr(controller, "log", None)
    if g.objective == REACHABILITY and reached_two:
        return Trace((), 2, 0, ())

    for step in range(max_steps):
        snap = (
            vertex,
            state,
            controller.snapshot() if hasattr(controller, "snapshot") else None,
        )
        if snap[2] is not None:
            if snap in seen:
                at = seen[snap]
                w = Word(tuple(actions[: 2 * at]), tuple(actions[2 * at :]))
                winner = winner_of_lasso(w, g)
                return Trace(
                    tuple(actions),
                    winner,
                    step,
                    tuple(log) if log is not None else (),
                )
            seen[snap] = step

        a = hidden.labels[state]
        b = controller.next_action(a)
        mid = g.step(vertex, a)
        vertex = g.step(mid, b)
        state = hidden.step(state, b)
        actions += [a, b]
        if g.vertices[mid].color == 2 or g.vertices[vertex].color == 2:
            reached_two = True
        if g.objective == REACHABILITY and reached_two:
            return Trace(
                tuple(actions), 2, step + 1, tuple(log) if log is not None else ()
            )

    return Trace(
        tuple(actions), None, max_steps, tuple(log) if log is not None else ()
    )
