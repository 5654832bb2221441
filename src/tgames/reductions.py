"""Game families that encode Boolean satisfaction questions, plus brute-force
oracles to test them against, and the shared-workspace robot scenario.

`qbf_to_game` encodes an alternating formula over pairs (x_i, y_i) into a
recurrence game: player 1 owns the x-assignments plus an exit move `e`,
player 2 owns the y-assignments, and the arena walks one stage per clause,
tracking in each vertex whether the current clause is already satisfied.
Player 2 wins by completing the full round of clauses, satisfied, over and
over; a falsified clause or a well-timed exit move hands the play to
player 1's paradise.

`cnf_to_game` encodes a plain CNF: player 1 assigns all variables, once per
clause, while player 2 only has a dummy move.  Finishing a clause
unsatisfied drops into the player-2 paradise; surviving all clauses ends in
the player-1 paradise.  A k-state environment cannot change its assignment
between stages, which is what ties satisfiability to liveness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import (
    GameError,
    GameGraph,
    P1_PARADISE,
    P2_PARADISE,
    REACHABILITY,
    BUCHI,
    complete,
    make_game,
)
from .liveness import LivenessVerdict, check_k_live
from .product import build_product, p2_winning_positions, reachable_positions
from .synthesis import simulate, solve_bounded
from .transducers import Transducer

# ---------------------------------------------------------------------------
# formulas
#
# Literals are nonzero ints, DIMACS style.  CNF formulas use variables
# 1..k.  Alternating formulas use 1..2k with odd numbers for the x (player
# 1) variables and even numbers for the y (player 2) variables: x_i = 2i-1,
# y_i = 2i.


def _check_clauses(clauses: tuple[tuple[int, ...], ...], nvars: int) -> None:
    """At least one clause, none empty, every literal over 1..nvars."""
    for c in clauses:
        if not c:
            raise GameError("empty clause")
        if any(lit == 0 or abs(lit) > nvars for lit in c):
            raise GameError(f"literal out of range in clause {c}")
    if not clauses:
        raise GameError("need at least one clause")


@dataclass(frozen=True)
class CnfFormula:
    k: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise GameError("need at least one variable")
        _check_clauses(self.clauses, self.k)


@dataclass(frozen=True)
class QbfFormula:
    """Prefix is implicitly: for all x1, exists y1, ..., for all xk, exists yk."""

    k: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise GameError("need at least one variable pair")
        _check_clauses(self.clauses, 2 * self.k)

    @staticmethod
    def x(i: int, positive: bool = True) -> int:
        v = 2 * i - 1
        return v if positive else -v

    @staticmethod
    def y(i: int, positive: bool = True) -> int:
        v = 2 * i
        return v if positive else -v


def _clause_true(clause: Sequence[int], assignment: dict[int, bool]) -> bool:
    return any(assignment[abs(l)] == (l > 0) for l in clause)


def sat_brute_force(phi: CnfFormula) -> Optional[dict[int, bool]]:
    """First satisfying assignment in lexicographic order (False < True), or None."""
    for bits in itertools.product((False, True), repeat=phi.k):
        assignment = {v: bits[v - 1] for v in range(1, phi.k + 1)}
        if all(_clause_true(c, assignment) for c in phi.clauses):
            return assignment
    return None


def qbf_brute_force(psi: QbfFormula) -> bool:
    """Validity by recursive quantifier expansion."""
    return _holds(psi, 1, {})


# ---------------------------------------------------------------------------
# DIMACS-style input


def _ints(tokens: list[str], lineno: int, what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise GameError(f"line {lineno}: bad {what}") from None


def _read_dimacs(
    text: str, comments: str, quantifier: Optional[Callable[[list[str], int], None]] = None
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Variable count and clauses of a DIMACS text, checked against its
    problem line.  Lines starting with a character of `comments` are
    skipped; with a `quantifier`, each line starting with 'a' or 'e' goes
    to it as (tokens, line number)."""
    problem = None
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in comments:
            continue
        tok = line.split()
        if line[0] == "p":
            if len(tok) != 4 or tok[1] != "cnf":
                raise GameError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            problem = (lineno, *_ints(tok[2:], lineno, "problem line"))
        elif quantifier is not None and line[0] in "ae":
            quantifier(tok, lineno)
        else:
            lits = _ints(tok, lineno, "literal")
            if not lits or lits[-1] != 0:
                raise GameError(f"line {lineno}: clause must end with 0")
            clauses.append(tuple(lits[:-1]))
    if problem is None:
        raise GameError("missing problem line")
    lineno, nvars, nclauses = problem
    if len(clauses) != nclauses:
        raise GameError(f"line {lineno}: bad clause count, {len(clauses)} clauses follow")
    return nvars, tuple(clauses)


def parse_dimacs_cnf(text: str) -> CnfFormula:
    return CnfFormula(*_read_dimacs(text, "c%"))


def parse_qdimacs(text: str) -> QbfFormula:
    """QDIMACS with a strictly alternating singleton prefix: a 1 / e 2 / a 3
    / ...  Variables must appear in that order; anything else is rejected
    rather than repaired."""
    prefix: list[tuple[str, int]] = []

    def quantifier(tok: list[str], lineno: int) -> None:
        if len(tok) != 3 or tok[-1] != "0":
            raise GameError(f"line {lineno}: quantifier blocks must bind one variable")
        prefix.append((tok[0], _ints(tok[1:2], lineno, "quantifier variable")[0]))

    nvars, clauses = _read_dimacs(text, "c", quantifier)
    if nvars % 2 != 0 or len(prefix) != nvars:
        raise GameError("prefix must bind an even number of variables, one each")
    for i, (q, v) in enumerate(prefix, start=1):
        expect = "a" if i % 2 == 1 else "e"
        if q != expect or v != i:
            raise GameError(
                "prefix must alternate 'a 1', 'e 2', 'a 3', ... in order"
            )
    return QbfFormula(nvars // 2, clauses)


# ---------------------------------------------------------------------------
# the alternating-formula game


def _qbf_symbols(k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    a1 = tuple(
        sym for i in range(1, k + 1) for sym in (f"x{i}", f"!x{i}")
    ) + ("e",)
    a2 = tuple(sym for i in range(1, k + 1) for sym in (f"y{i}", f"!y{i}"))
    return a1, a2


def _lit_satisfied(clause: Sequence[int], var: int, value: bool) -> bool:
    lit = var if value else -var
    return lit in clause


def qbf_to_game(psi: QbfFormula) -> GameGraph:
    """Recurrence arena over the clause-checking stages; player 2 wins by
    completing every stage satisfied over and over (or by catching player 1
    misbehaving: its illegal moves and ill-timed exits drain to the color-2
    pair).

    Layout per stage j (one per clause), positions p = 1..2k: odd p belongs
    to player 1 assigning x_((p+1)/2), even p to player 2 assigning y_(p/2).
    Vertex ``v<p>_<j>_T|F`` records whether clause j is already satisfied by
    the assignments made so far in this stage.  The exit action `e` is an
    explicit edge to the player-1 paradise from every stage vertex player 1
    owns, except the very first one; everywhere else `e` and other unlisted
    actions drain to the acting player's opponent via `complete`.

    Finishing the last stage satisfied re-enters stage 1 through the fresh
    color-2 vertex ``v1_loop`` rather than ending the play: a machine that
    wants to punish a deviation at the very last reply still gets its exit
    move there.  With an end-of-stages sink instead, such late deviations
    would be unpunishable and formulas needing only them would come out
    winnable despite being invalid.
    """
    k, r = psi.k, len(psi.clauses)
    a1, a2 = _qbf_symbols(k)
    vertices: list[tuple[str, int, int]] = []
    edges: list[tuple[str, str, str]] = []

    vertices.append(("iota", 1, 1))
    vertices.append(("n", 2, 1))
    edges.append(("iota", "e", "n"))

    # assignment warm-up chain: both polarities land on the same vertex
    for p in range(1, 2 * k + 1):
        owner = 1 if p % 2 == 1 else 2
        vertices.append((f"a{p}", owner, 1))
    for b in a2:
        edges.append(("n", b, "a1"))
    for p in range(1, 2 * k):
        var = (p + 1) // 2
        syms = (f"x{var}", f"!x{var}") if p % 2 == 1 else (f"y{var}", f"!y{var}")
        for s in syms:
            edges.append((f"a{p}", s, f"a{p + 1}"))
    for s in (f"y{k}", f"!y{k}"):
        edges.append((f"a{2 * k}", s, f"v1_1_F"))

    # paradise pairs are declared up front so stage edges can target them
    vertices.append((P1_PARADISE[0], 1, 1))
    vertices.append((P1_PARADISE[1], 2, 1))
    vertices.append((P2_PARADISE[0], 1, 2))
    vertices.append((P2_PARADISE[1], 2, 2))

    def vname(p: int, j: int, sat: bool) -> str:
        return f"v{p}_{j}_{'T' if sat else 'F'}"

    # stage construction: only superscripts reachable from a fresh clause
    sups: dict[tuple[int, int], set[bool]] = {}
    for j in range(1, r + 1):
        cur = {False}
        for p in range(1, 2 * k + 1):
            sups[(p, j)] = set(cur)
            var_index = (p + 1) // 2
            var = (
                QbfFormula.x(var_index) if p % 2 == 1 else QbfFormula.y(var_index)
            )
            cur = {
                s or _lit_satisfied(psi.clauses[j - 1], abs(var), b)
                for s in cur
                for b in (True, False)
            }
    for j in range(1, r + 1):
        for p in range(1, 2 * k + 1):
            owner = 1 if p % 2 == 1 else 2
            for s in sorted(sups[(p, j)]):
                vertices.append((vname(p, j, s), owner, 1))
    vertices.append(("v1_loop", 1, 2))
    for j in range(1, r + 1):
        clause = psi.clauses[j - 1]
        for p in range(1, 2 * k + 1):
            var_index = (p + 1) // 2
            base = f"x{var_index}" if p % 2 == 1 else f"y{var_index}"
            varnum = (
                QbfFormula.x(var_index) if p % 2 == 1 else QbfFormula.y(var_index)
            )
            for s in sorted(sups[(p, j)]):
                src = vname(p, j, s)
                for sym, value in ((base, True), (f"!{base}", False)):
                    new = s or _lit_satisfied(clause, abs(varnum), value)
                    if p < 2 * k:
                        edges.append((src, sym, vname(p + 1, j, new)))
                    elif new:
                        tgt = vname(1, j + 1, False) if j < r else "v1_loop"
                        edges.append((src, sym, tgt))
                    # an unsatisfied clause at the stage end stays unlisted:
                    # the completion rule sends it to the player-1 paradise
            if p % 2 == 1 and not (p == 1 and j == 1):
                for s in sorted(sups[(p, j)]):
                    edges.append((vname(p, j, s), "e", P1_PARADISE[1]))
    # the re-entry assigns x1 for clause 1 again, exit allowed
    first = psi.clauses[0]
    for sym, value in (("x1", True), ("!x1", False)):
        edges.append(("v1_loop", sym, vname(2, 1, _lit_satisfied(first, 1, value))))
    edges.append(("v1_loop", "e", P1_PARADISE[1]))

    g = make_game(BUCHI, a1, a2, vertices, edges, "iota")
    return complete(g)


# ---------------------------------------------------------------------------
# the CNF game


def _cnf_symbols(k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (
        tuple(sym for i in range(1, k + 1) for sym in (f"T{i}", f"F{i}")),
        ("eps",),
    )


def cnf_to_game(phi: CnfFormula) -> GameGraph:
    """Reachability arena for a CNF; player 2's target (color 2) is reached
    exactly when some clause comes out unsatisfied.

    Stage j checks clause j: player 1 assigns x_1..x_k in order (action
    ``T<i>`` or ``F<i>``), player 2 replies with the dummy `eps`.
    ``x<i>_<j>_T|F`` is player 2's vertex after the i-th assignment,
    ``y<i>_<j>_T|F`` player 1's vertex after the dummy reply; the suffix
    records whether clause j is satisfied so far.
    """
    k, r = phi.k, len(phi.clauses)
    a1, a2 = _cnf_symbols(k)
    vertices: list[tuple[str, int, int]] = [("iota", 1, 1)]
    edges: list[tuple[str, str, str]] = []

    vertices.append((P1_PARADISE[0], 1, 1))
    vertices.append((P1_PARADISE[1], 2, 1))
    vertices.append((P2_PARADISE[0], 1, 2))
    vertices.append((P2_PARADISE[1], 2, 2))

    sups: dict[tuple[int, int], set[bool]] = {}
    for j in range(1, r + 1):
        cur = {False}
        for i in range(1, k + 1):
            cur = {
                s or _lit_satisfied(phi.clauses[j - 1], i, b)
                for s in cur
                for b in (True, False)
            }
            sups[(i, j)] = set(cur)

    def xname(i: int, j: int, s: bool) -> str:
        return f"x{i}_{j}_{'T' if s else 'F'}"

    def yname(i: int, j: int, s: bool) -> str:
        return f"y{i}_{j}_{'T' if s else 'F'}"

    for j in range(1, r + 1):
        for i in range(1, k + 1):
            for s in sorted(sups[(i, j)]):
                vertices.append((xname(i, j, s), 2, 1))
                vertices.append((yname(i, j, s), 1, 1))

    def entry_edges(src: str, j: int):
        """Player 1 assigns x_1 of clause j from `src`."""
        clause = phi.clauses[j - 1]
        for value, sym in ((True, "T1"), (False, "F1")):
            edges.append((src, sym, xname(1, j, _lit_satisfied(clause, 1, value))))

    entry_edges("iota", 1)
    for j in range(1, r + 1):
        clause = phi.clauses[j - 1]
        for i in range(1, k + 1):
            for s in sorted(sups[(i, j)]):
                edges.append((xname(i, j, s), "eps", yname(i, j, s)))
                src = yname(i, j, s)
                if i < k:
                    for value, sym in ((True, f"T{i + 1}"), (False, f"F{i + 1}")):
                        new = s or _lit_satisfied(clause, i + 1, value)
                        edges.append((src, sym, xname(i + 1, j, new)))
                else:
                    if s:
                        if j < r:
                            entry_edges(src, j + 1)
                        else:
                            for sym in a1:
                                edges.append((src, sym, P1_PARADISE[1]))
                    # an unsatisfied finished clause keeps no explicit edges:
                    # completion routes every action to the player-2 paradise

    g = make_game(REACHABILITY, a1, a2, vertices, edges, "iota")
    return complete(g)


def assignment_transducer(phi: CnfFormula, assignment: dict[int, bool]) -> Transducer:
    """The k-state machine that plays a fixed assignment once per clause:
    state i-1 emits the value of x_i, every dummy input advances the cycle."""
    a1, a2 = _cnf_symbols(phi.k)
    labels = tuple(
        (f"T{i}" if assignment[i] else f"F{i}") for i in range(1, phi.k + 1)
    )
    trans = tuple(((m + 1) % phi.k,) for m in range(phi.k))
    return Transducer(a1, a2, labels, trans)


@dataclass
class CnfCrossCheck:
    sat: Optional[dict[int, bool]]
    live: Optional[bool]
    agrees: Optional[bool]
    assignment_witness_ok: Optional[bool] = None
    verdict: Optional[LivenessVerdict] = None


def cnf_liveness_cross_check(
    phi: CnfFormula,
    k: Optional[int] = None,
    cap: int = 10_000_000,
) -> CnfCrossCheck:
    """Cross-check the CNF game against the satisfiability oracle:
    the game must be k-live exactly when the formula is unsatisfiable.
    For satisfiable formulas the fixed-assignment machine is additionally
    verified to be a liveness counterexample."""
    k = phi.k if k is None else k
    sat = sat_brute_force(phi)
    g = cnf_to_game(phi)
    verdict = check_k_live(g, k, cap=cap)
    if verdict.undecided:
        return CnfCrossCheck(sat, None, None, verdict=verdict)
    agrees = (sat is None) == verdict.live
    witness_ok = None
    if sat is not None and k == phi.k:
        t = assignment_transducer(phi, sat)
        prod = build_product(g, t)
        win, _ = p2_winning_positions(prod)
        witness_ok = any(pos not in win for pos in reachable_positions(prod))
    return CnfCrossCheck(sat, verdict.live, agrees, witness_ok, verdict)


# ---------------------------------------------------------------------------
# explicit counter-machines for the alternating game


class ReplayStrategy:
    """Player-2 strategy for the alternating-formula game: answer the
    warm-up phase with chosen values, then repeat those values forever.
    `chooser(i, assignment)` picks the value of y_i given the assignment so
    far (variables 1..2i-1)."""

    def __init__(self, psi: QbfFormula, g: GameGraph, chooser: Callable):
        self.psi = psi
        self.game = g
        self.chooser = chooser
        self.assignment: dict[int, bool] = {}
        self.phase2: dict[int, bool] = {}
        self.vertex = g.initial

    def snapshot(self):
        return (self.vertex, tuple(sorted(self.phase2.items())))

    def next_action(self, observed: str) -> str:
        g = self.game
        self.vertex = g.step(self.vertex, observed)
        if observed.lstrip("!").startswith("x"):
            var = int(observed.lstrip("!")[1:])
            self.assignment[QbfFormula.x(var)] = not observed.startswith("!")
        name = g.vertices[self.vertex].name
        if name == "n" or name.startswith("~"):
            action = g.alphabet2[0]
        else:
            # position a<2i> or v<2i>_<j>_<s>: choose/replay y_i
            p = int(name[1:].split("_")[0])
            i = p // 2
            if i not in self.phase2:
                value = self.chooser(i, dict(self.assignment))
                self.phase2[i] = value
            else:
                value = self.phase2[i]
            self.assignment[QbfFormula.y(i)] = value
            action = f"y{i}" if value else f"!y{i}"
        self.vertex = g.step(self.vertex, action)
        return action


def _holds(psi: QbfFormula, var: int, assignment: dict[int, bool]) -> bool:
    """Value of the formula with variables below `var` fixed by `assignment`
    and the rest quantified as in the prefix (odd: for all, even: exists)."""
    if var > 2 * psi.k:
        return all(_clause_true(c, assignment) for c in psi.clauses)
    vals = []
    for b in (False, True):
        assignment[var] = b
        vals.append(_holds(psi, var + 1, assignment))
        del assignment[var]
    return all(vals) if var % 2 == 1 else any(vals)


def _first_value(
    psi: QbfFormula, var: int, assignment: dict[int, bool], want: bool
) -> bool:
    """Least value of `var` (False first) after which the rest of the
    formula evaluates to `want`; False when neither does."""
    for b in (False, True):
        assignment[var] = b
        ok = _holds(psi, var + 1, assignment) == want
        del assignment[var]
        if ok:
            return b
    return False


def optimal_y_chooser(psi: QbfFormula) -> Callable:
    """Game-theoretically best y_i: keep the rest of the formula winnable
    if possible (ties: prefer False)."""

    def choose(i: int, assignment: dict[int, bool]) -> bool:
        return _first_value(psi, QbfFormula.y(i), assignment, True)

    return choose


def counter_transducer(
    psi: QbfFormula, strategy_chooser: Optional[Callable] = None
) -> tuple[Transducer, dict[int, bool]]:
    """The (k+1)-state machine built against a concrete player-2 strategy
    for an invalid formula: state 0 plays the exit move, state i plays the
    value of x_i realized against that strategy; any reply other than the
    remembered y_i snaps back to the exit state.

    When some constant assignment falsifies a clause that has no y
    literals, the machine instead plays that assignment obliviously (no
    snap-back), which defeats every player-2 strategy outright.
    """
    k = psi.k
    a1, a2 = _qbf_symbols(k)

    def machine(xvals: dict[int, bool], yvals: Optional[dict[int, bool]]) -> Transducer:
        labels = ["e"] + [
            (f"x{i}" if xvals[i] else f"!x{i}") for i in range(1, k + 1)
        ]
        rows = []
        for m in range(k + 1):
            row = []
            nxt = 1 if m == 0 else (m % k) + 1
            for sym in a2:
                if m == 0 or yvals is None:
                    row.append(nxt)
                else:
                    expected = f"y{m}" if yvals[m] else f"!y{m}"
                    row.append(nxt if sym == expected else 0)
            rows.append(tuple(row))
        return Transducer(a1, a2, tuple(labels), tuple(rows))

    # oblivious route: a y-free clause falsified by some constant assignment
    for bits in itertools.product((False, True), repeat=k):
        xvals = {i: bits[i - 1] for i in range(1, k + 1)}
        for clause in psi.clauses:
            if any(abs(l) % 2 == 0 for l in clause):
                continue
            if not any(
                xvals[(abs(l) + 1) // 2] == (l > 0) for l in clause
            ):
                return machine(xvals, None), xvals

    # adaptive route: realize the falsifying play against the given strategy
    chooser = strategy_chooser or optimal_y_chooser(psi)
    assignment: dict[int, bool] = {}
    for i in range(1, k + 1):
        # a value of x_i that keeps the formula falsifiable, which exists
        # while the formula is invalid and play followed such values
        x = QbfFormula.x(i)
        assignment[x] = _first_value(psi, x, assignment, False)
        assignment[QbfFormula.y(i)] = chooser(i, dict(assignment))
    xvals = {i: assignment[QbfFormula.x(i)] for i in range(1, k + 1)}
    yvals = {i: assignment[QbfFormula.y(i)] for i in range(1, k + 1)}
    return machine(xvals, yvals), assignment


@dataclass
class QbfCrossCheck:
    valid: bool
    p2_wins: Optional[bool]
    game_agrees: Optional[bool]
    counter: Optional[Transducer] = None
    counter_defeats_strategy: Optional[bool] = None
    counter_product_losing: Optional[bool] = None


def qbf_value_cross_check(
    psi: QbfFormula,
    machine_cap: int = 10_000_000,
    belief_cap: int = 1_000_000,
) -> QbfCrossCheck:
    """Cross-check the alternating-formula game against the validity oracle:
    player 2 must win against every (k+1)-state machine exactly when the
    formula is valid.

    For invalid formulas, additionally build the explicit counter-machine
    and report (a) whether it defeats the canonical player-2 strategy it was
    built against, and (b) whether it makes the initial product position
    losing for player 2 outright."""
    valid = qbf_brute_force(psi)
    g = qbf_to_game(psi)
    solved = solve_bounded(g, psi.k + 1, machine_cap=machine_cap, belief_cap=belief_cap)
    game_agrees = None if solved.p2_wins is None else (solved.p2_wins == valid)
    result = QbfCrossCheck(valid, solved.p2_wins, game_agrees)
    if not valid:
        t, _assignment = counter_transducer(psi)
        result.counter = t
        sigma = ReplayStrategy(psi, g, optimal_y_chooser(psi))
        trace = simulate(g, sigma, t, max_steps=8 * (g.n + 4) * (psi.k + 2))
        result.counter_defeats_strategy = trace.winner == 1
        prod = build_product(g, t)
        win, _ = p2_winning_positions(prod)
        result.counter_product_losing = prod.initial not in win
    return result


# ---------------------------------------------------------------------------
# the shared-workspace scenario


def robot_scenario(lanes: int = 3) -> GameGraph:
    """Turn-based blocking game on the charging-lane workspace.

    Cells: robot home ``R``, per-lane entries ``e<i>``, stations ``s<i>``,
    exits ``x<i>``, and the far cell ``H`` where the other agent starts.
    Moves: ``stay``, ``fwd``/``back`` along a lane (toward/away from ``H``),
    and ``lane<i>`` to pick a lane from either end cell.  Player 1 moves the
    human first each round; player 2 moves the robot.

    Bodies block: a move onto the cell the other agent occupies, or a move
    with no edge in the workspace, leaves the mover where it stands.  No
    move of either agent is ever fatal by itself, so probing a bounded human
    can never make the robot irrecoverable - the human can only deny cells.
    The robot scores (color 2, recurrence objective) every extra consecutive
    turn it spends parked on a station.
    """
    if lanes < 2:
        raise GameError("need at least two lanes")
    adj: dict[str, dict[str, str]] = {"R": {}, "H": {}}
    for i in range(1, lanes + 1):
        e, s, x = f"e{i}", f"s{i}", f"x{i}"
        adj["R"][f"lane{i}"] = e
        adj["H"][f"lane{i}"] = x
        adj[e] = {"fwd": s, "back": "R"}
        adj[s] = {"fwd": x, "back": e}
        adj[x] = {"fwd": "H", "back": s}
    actions = tuple(["stay", "fwd", "back"] + [f"lane{i}" for i in range(1, lanes + 1)])
    stations = {f"s{i}" for i in range(1, lanes + 1)}

    def move(cell: str, action: str, occupied: str) -> str:
        tgt = adj[cell].get(action, cell)
        return cell if tgt == occupied else tgt

    vertices: list[tuple[str, int, int]] = []
    edges: list[tuple[str, str, str]] = []
    seen: set[str] = set()

    def hname(h: str, r: str, charged: bool) -> str:
        return f"h_{h}_{r}_{'c' if charged else 'n'}"

    def rname(h: str, r: str) -> str:
        return f"r_{h}_{r}"

    start = ("H", "R", False)
    queue = [start]
    seen.add(hname(*start))
    vertices.append((hname(*start), 1, 1))
    while queue:
        h, r, charged = queue.pop(0)
        src = hname(h, r, charged)
        for a in actions:
            h2 = move(h, a, r)
            mid = rname(h2, r)
            if mid not in seen:
                seen.add(mid)
                vertices.append((mid, 2, 1))
                for b in actions:
                    r2 = move(r, b, h2)
                    charge = r2 == r and r2 in stations
                    tgt = (h2, r2, charge)
                    tname = hname(*tgt)
                    if tname not in seen:
                        seen.add(tname)
                        vertices.append((tname, 1, 2 if charge else 1))
                        queue.append(tgt)
                    edges.append((mid, b, tname))
            edges.append((src, a, mid))

    g = make_game(BUCHI, actions, actions, vertices, edges, hname(*start))
    return complete(g)
