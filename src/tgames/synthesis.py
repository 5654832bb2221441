"""Playing against an unknown bounded environment.

Two routes:

* `solve_bounded` decides outright whether player 2 can win against every
  k-state machine, via a knowledge arena whose player-1 positions carry the
  set of (machine, state) pairs still consistent with the observed play.
  Player 1's available moves at a knowledge position are exactly the labels
  some consistent pair would emit; a move both reveals information (the
  belief shrinks to the consistent subset) and advances the game.  A belief
  is one int of a `transducers.MachineSet`, which owns the bit layout and
  the label and step operations, so the arena comes from the same
  explorer as a machine's product (`product._explore`), with the int as
  the observer state; other labels concede to its paradise.
  One parity solve of the base game comes first: a k-state machine is one
  player-1 strategy there, so player 2 wins from every belief at a vertex
  of its base winning region W2.  A move into W2 therefore settles the
  belief to the explorer's `SETTLED` state, which offers every label and
  steps to itself, and play goes on in a copy of the base game of at most
  |V| positions; `BoundedSolveResult.settled` counts them.  The parity
  solver gets the explored integer arena as it is; the named `GameGraph`
  and the decoded beliefs (`BeliefArena`) are built only when read.

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
from functools import cached_property
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
from . import liveness
from .solvers import Arena, ParitySolution, solve_parity
from .product import (
    SETTLED,
    ProductGame,
    _explore,
    _named_graph,
    build_product,
    reachable_positions,
    winning_lasso,
)
from .transducers import (
    MachineSet,
    Transducer,
    count,
    enumerate_transducers,  # noqa: F401  -- unused here; bench/tracing.py wraps it
    from_ordinal,
)

DEFAULT_BELIEF_CAP = 1_000_000

Belief = frozenset[tuple[int, int]]  # (machine ordinal, machine state)


class BeliefArena:
    """The knowledge arena of one solve, read by callers, not by the solver.

    `graph` names each position `(<game vertex>,<belief number>)`, beliefs
    numbered in order of first appearance; `belief_of` maps each position
    id to (game vertex id, belief as (ordinal, state) pairs).  A settled
    position, one that play reached through a vertex of player 2's base
    winning region, carries no belief: `belief_of` gives (vertex id, None)
    there, and its belief number is that of the `SETTLED` state.  Both are
    built on first read; the beliefs are decoded by the solve's
    `MachineSet.pairs`, which knows their layout.
    """

    def __init__(
        self,
        base: GameGraph,
        arena: Arena,
        order: list[tuple[int, int]],
        machines: MachineSet,
    ):
        self._base, self._arena, self._order = base, arena, order
        self._machines = machines

    @cached_property
    def graph(self) -> GameGraph:
        number: dict[int, int] = {}
        named = [(u, number.setdefault(x, len(number))) for u, x in self._order]
        return _named_graph(self._base, self._arena, named)

    @cached_property
    def belief_of(self) -> dict[int, tuple[int, Optional[Belief]]]:
        decoded: dict[int, Optional[Belief]] = {SETTLED: None}
        for _u, x in self._order:
            if x not in decoded:
                decoded[x] = self._machines.pairs(x)
        return {i: (u, decoded[x]) for i, (u, x) in enumerate(self._order)}


@dataclass
class BoundedSolveResult:
    p2_wins: Optional[bool]  # None: hit a cap, undecided
    reason: str = ""
    positions: int = 0
    settled: int = 0  # positions reached through player 2's base winning region
    strategy: dict[int, str] = field(default_factory=dict)
    arena: Optional[BeliefArena] = None
    solution: Optional[ParitySolution] = None


def solve_bounded(
    g: GameGraph,
    k: int,
    belief_cap: int = DEFAULT_BELIEF_CAP,
    machine_cap: int = liveness.DEFAULT_CAP,
) -> BoundedSolveResult:
    """Can player 2 win against every k-state machine?

    Builds the knowledge arena reachable from the belief that every k-state
    machine may be playing, each in state 0, scores it under `g.objective`,
    and hands the explored integer arena to the parity solver.  Beliefs
    only ever shrink along a play and the machine pool is finite, so an
    infinite play consistent at every prefix is consistent with one fixed
    machine: the arena decides exactly the bounded-environment question.  Each belief is
    an int of one `MachineSet` over all machines, which gives the layout
    and the arena's `offer` and `step`.

    Player 2 wins from every belief at a vertex of its base winning region,
    so the explorer settles play there (`product.SETTLED`): one base solve
    replaces every belief at such a vertex, and player 2 wins the settled
    copy of the base game as it wins the base game.  The named arena and the
    decoded beliefs in `result.arena` are built only when read.
    """
    if not g.is_total():
        raise GameError("solve_bounded requires a total arena")
    total = count(k, g.alphabet1, g.alphabet2)
    if total > machine_cap:
        return BoundedSolveResult(None, reason="machine count above cap")
    base = solve_parity(g)

    machines = MachineSet(k, g.alphabet1, g.alphabet2, 0, total)
    arena, _positions, order = _explore(
        g, machines.start, machines.offer, machines.step, belief_cap, base.region2
    )
    settled = sum(x == SETTLED for _u, x in order)
    if arena is None:
        return BoundedSolveResult(
            None,
            reason="belief position count above cap",
            positions=len(order),
            settled=settled,
        )
    solution = solve_parity(arena)
    del arena.pred  # the solver's predecessor rows; `result.arena` need not keep them
    strategy = {
        vid: a for vid, a in solution.strategy2.items() if vid < len(order)
    }
    return BoundedSolveResult(
        p2_wins=0 in solution.region2,
        positions=len(order),
        settled=settled,
        strategy=strategy,
        arena=BeliefArena(g, arena, order, machines),
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

    The controller walks the machine enumeration: its hypotheses are all
    `hypotheses` k-state machines, in ordinal order (Gold's identification
    by enumeration).  For the current hypothesis it keeps `candidates`:
    machine states m such that (current vertex, m) is reachable in the
    hypothesis' product and no observation since has contradicted m.  It
    conjectures the least candidate with a winning lasso from that product
    position and follows the lasso, so at each of its turns the lasso entry
    under the cursor is (vertex, conjecture).  Observations refute
    candidates; a refuted conjecture passes to the next candidate, and with
    none left the hypothesis dies and the scan resumes at the next machine,
    wrapping around after the last.  With no hypothesis held (the
    environment is outside the machine class) it plays its first action.

    Hypotheses are skipped without building their products: a machine is
    worth a product only when some (current vertex, m) is reachable and
    winning in it, and `liveness._Kernel.winnable` computes that for a
    whole aligned window of `liveness.SCAN_WINDOW` (2^12) ordinals at once,
    one bit per machine.  The scan checks the cursor's product first, which
    a qualifying hypothesis needs for its lasso anyway, and past a miss
    adopts the next hypothesis whose bit is set, so it stops where a
    product-by-product scan would.

    Storage stays polynomial in the arena, with one window of bits: one
    ordinal and its product (the product's `.transducer` is the hypothesis
    machine, `from_ordinal(ordinal)`), at most k candidate states, one
    lasso with a cursor, the current vertex, and the last scan window's
    masks, one per game vertex, O(|V|·2^12) bits.  A kernel pass over a
    window holds O(|V|·k·2^12) bits while it runs.  Observation history is
    never kept.  `products_built` and `scan_windows` count the products
    and kernel passes so far.
    """

    def __init__(self, g: GameGraph, k: int):
        if not g.is_total():
            raise GameError("the controller needs a total arena")
        self.game = g
        self.k = k
        self.hypotheses = count(k, g.alphabet1, g.alphabet2)
        self.vertex = g.initial
        self.ordinal = 0
        self.candidates: list[int] = []  # empty: no hypothesis held
        self.conjecture: Optional[int] = None
        self.lasso: Optional[Lasso] = None
        self.cursor = 0
        self.steps = 0
        self.log: list[HypothesisRecord] = []
        self.products_built = 0
        self.scan_windows = 0
        self._held: Optional[tuple[int, ProductGame]] = None
        self._kernel: Optional[liveness._Kernel] = None  # built on the first miss
        self._window: Optional[tuple[int, list[int]]] = None  # start, mask per vertex

    def _product(self) -> ProductGame:
        """The current hypothesis' product, built when the ordinal moved."""
        if self._held is None or self._held[0] != self.ordinal:
            self._held = None  # let the old product go before building
            g = self.game
            machine = from_ordinal(self.ordinal, self.k, g.alphabet1, g.alphabet2)
            self._held = (self.ordinal, build_product(g, machine))
            self.products_built += 1
        return self._held[1]

    def _marked(self, start: int) -> int:
        """The machines of the scan window at `start` with some (current
        vertex, m) reachable and winning in their product.  One kernel pass
        gives the masks of every vertex; the last window's are kept."""
        if self._window is None or self._window[0] != start:
            self._window = None  # let the old masks go before the pass
            if self._kernel is None:
                self._kernel = liveness._Kernel(self.game, self.k)
            stop = min(start + liveness.SCAN_WINDOW, self.hypotheses)
            self._window = (start, self._kernel.winnable(start, stop))
            self.scan_windows += 1
        return self._window[1][self.vertex]

    def _scan(self) -> bool:
        """Adopt the first machine from the current ordinal on, wrapping
        around, with some (current vertex, m) reachable and winning.  False,
        with the ordinal where the scan began, when none has."""
        if self._adopt():
            return True
        begin, size = self.ordinal, liveness.SCAN_WINDOW
        found = liveness.first_marked(self._marked, begin + 1, self.hypotheses, size)
        if found is None:
            found = liveness.first_marked(self._marked, 0, begin, size)
        if found is None:
            return False
        self.ordinal = found
        return self._adopt()

    def _adopt(self) -> bool:
        """Take the current machine as the hypothesis when some (current
        vertex, m) is reachable in its product and has a winning lasso."""
        reach = reachable_positions(self._product())
        self.candidates = sorted(m for (v, m) in reach if v == self.vertex)
        return self._conjecture_from_current()

    def _conjecture_from_current(self) -> bool:
        """Pick the least candidate with a winning lasso at the current
        vertex; drop candidates that admit none."""
        prod = self._product()
        while self.candidates:
            m = self.candidates[0]
            try:
                self.lasso = winning_lasso(prod, (self.vertex, m))
                self.conjecture = m
                self.cursor = 0
                return True
            except GameError:
                self.candidates.pop(0)
        self.conjecture = None
        self.lasso = None
        return False

    def _bump_cursor(self):
        # past the end, play continues at the cycle head; the cycle has even
        # length, so the player alternation phase is preserved
        self.cursor += 1
        if self.cursor >= len(self.lasso):
            self.cursor = len(self.lasso.prefix)

    def next_action(self, observed: str) -> str:
        """Consume the environment's move, emit ours."""
        g = self.game
        if g.vertices[self.vertex].owner != 1:
            raise GameError("next_action called out of turn")
        held = bool(self.candidates)
        self.vertex = g.step(self.vertex, observed)
        if held:
            # candidates predicting a different output are refuted; machine
            # states do not advance on player-1 moves
            labels = self._product().transducer.labels
            self.candidates = [m for m in self.candidates if labels[m] == observed]
            if self.conjecture in self.candidates:
                self._bump_cursor()  # prediction confirmed, step past the entry
            elif not self._conjecture_from_current():
                self.ordinal = (self.ordinal + 1) % self.hypotheses  # hypothesis died
        if not self.candidates:
            self._scan()

        if self.candidates:
            prod = self._product()
            pos, action = (self.lasso.prefix + self.lasso.cycle)[self.cursor]
            if pos != prod.positions[(self.vertex, self.conjecture)]:
                raise GameError("internal error: lasso entry not at the conjecture")
            self._bump_cursor()
            t = prod.transducer
            self.candidates = sorted({t.step(m, action) for m in self.candidates})
            self.conjecture = t.step(self.conjecture, action)
        else:
            # nothing fits: the environment is outside the machine class
            action = g.alphabet2[0]
        self.vertex = g.step(self.vertex, action)
        self.steps += 1
        self.log.append(HypothesisRecord(self.steps, self.ordinal, len(self.candidates)))
        return action

    def snapshot(self):
        """Hashable full controller state, for periodicity detection."""
        return (
            self.vertex,
            self.ordinal,
            tuple(self.candidates),
            self.conjecture,
            self.cursor,
            None if self.lasso is None else (self.lasso.prefix, self.lasso.cycle),
        )


def adaptive_controller(g: GameGraph, k: int) -> AdaptiveController:
    return AdaptiveController(g, k)


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
    if max_steps < 0:
        raise GameError(f"max_steps {max_steps} is negative")
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
