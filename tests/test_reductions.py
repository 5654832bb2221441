import itertools
import random

import pytest

from tgames import (
    CnfFormula,
    GameError,
    QbfFormula,
    assignment_transducer,
    check_k_live,
    cnf_to_game,
    counter_transducer,
    parse_dimacs_cnf,
    parse_qdimacs,
    qbf_brute_force,
    qbf_to_game,
    robot_scenario,
    sat_brute_force,
    serialize_game,
    qbf_value_cross_check,
    cnf_liveness_cross_check,
    validate,
)
from tgames.reductions import ReplayStrategy, optimal_y_chooser
from tgames.synthesis import simulate

# the running two-pair example: (!x1 | y1 | !x2) & (!y1 | x2) & (x1 | !y1 | y2)
RUNNING = QbfFormula(
    2,
    (
        (QbfFormula.x(1, False), QbfFormula.y(1), QbfFormula.x(2, False)),
        (QbfFormula.y(1, False), QbfFormula.x(2)),
        (QbfFormula.x(1), QbfFormula.y(1, False), QbfFormula.y(2)),
    ),
)


def edge(g, src, action):
    return g.vertices[g.edges[(g.vertex(src).id, action)]].name


class TestQbfGame:
    def test_running_example_stage_edges(self):
        g = qbf_to_game(RUNNING)
        # clause 1
        assert edge(g, "v1_1_F", "x1") == "v2_1_F"
        assert edge(g, "v1_1_F", "!x1") == "v2_1_T"
        assert edge(g, "v2_1_F", "!y1") == "v3_1_F"
        assert edge(g, "v2_1_F", "y1") == "v3_1_T"
        assert edge(g, "v2_1_T", "y1") == "v3_1_T"
        assert edge(g, "v2_1_T", "!y1") == "v3_1_T"
        assert edge(g, "v3_1_F", "x2") == "v4_1_F"
        assert edge(g, "v3_1_F", "!x2") == "v4_1_T"
        assert edge(g, "v4_1_T", "y2") == "v1_2_F"
        # finishing clause 1 unsatisfied drops into the player-1 paradise
        assert edge(g, "v4_1_F", "y2") == "~p1_paradise_a"
        # clause 2: x1 is irrelevant, y1 true keeps it unsatisfied
        assert edge(g, "v1_2_F", "x1") == "v2_2_F"
        assert edge(g, "v1_2_F", "!x1") == "v2_2_F"
        assert edge(g, "v2_2_F", "y1") == "v3_2_F"
        assert edge(g, "v2_2_F", "!y1") == "v3_2_T"
        assert edge(g, "v3_2_F", "x2") == "v4_2_T"
        assert edge(g, "v3_2_F", "!x2") == "v4_2_F"
        # clause 3 end: all satisfied re-enters the stage cycle through the
        # scoring vertex, where the exit move is still available
        assert edge(g, "v4_3_T", "y2") == "v1_loop"
        assert edge(g, "v4_3_F", "y2") == "v1_loop"
        assert edge(g, "v4_3_F", "!y2") == "~p1_paradise_a"
        assert g.vertex("v1_loop").color == 2
        assert edge(g, "v1_loop", "e") == "~p1_paradise_b"
        assert edge(g, "v1_loop", "x1") == "v2_1_F"
        assert edge(g, "v1_loop", "!x1") == "v2_1_T"

    def test_exit_action_edges(self):
        g = qbf_to_game(RUNNING)
        # warm-up phase: exit reaches the checking structure only from iota
        assert edge(g, "iota", "e") == "n"
        assert edge(g, "a1", "e") == "~p2_paradise_b"
        assert edge(g, "a3", "e") == "~p2_paradise_b"
        # checking phase: exit pays out for player 1 except at the entry
        assert edge(g, "v1_1_F", "e") == "~p2_paradise_b"
        assert edge(g, "v3_1_F", "e") == "~p1_paradise_b"
        assert edge(g, "v1_2_F", "e") == "~p1_paradise_b"
        assert edge(g, "v3_2_T", "e") == "~p1_paradise_b"

    def test_warm_up_merges_polarities(self):
        g = qbf_to_game(RUNNING)
        assert edge(g, "a1", "x1") == "a2"
        assert edge(g, "a1", "!x1") == "a2"
        assert edge(g, "a2", "y1") == "a3"
        assert edge(g, "a4", "y2") == "v1_1_F"
        for b in g.alphabet2:
            assert edge(g, "n", b) == "a1"

    def test_single_clause_bookkeeping(self):
        psi = QbfFormula(1, ((QbfFormula.x(1), QbfFormula.y(1)),))
        g = qbf_to_game(psi)
        assert edge(g, "v1_1_F", "x1") == "v2_1_T"
        assert edge(g, "v1_1_F", "!x1") == "v2_1_F"
        assert edge(g, "v2_1_F", "y1") == "v1_loop"
        assert edge(g, "v2_1_F", "!y1") == "~p1_paradise_a"

    def test_total_and_valid(self):
        for psi in (RUNNING, QbfFormula(1, ((1,),))):
            g = qbf_to_game(psi)
            assert g.is_total()
            assert validate(g) == []
            assert g.objective == "buchi"

    def test_generator_output_round_trips(self):
        from tgames import parse_game

        g = qbf_to_game(RUNNING)
        back = parse_game(serialize_game(g))
        assert [v.name for v in back.vertices] == [v.name for v in g.vertices]
        assert back.edges == g.edges

    def test_vertex_count_linear(self):
        rng = random.Random(40)
        for _ in range(100):
            k = rng.randrange(1, 4)
            r = rng.randrange(1, 5)
            lits = [f(i, pos) for i in range(1, k + 1)
                    for f in (QbfFormula.x, QbfFormula.y) for pos in (True, False)]
            clauses = tuple(
                tuple(rng.sample(lits, rng.randrange(1, min(4, len(lits)) + 1)))
                for _ in range(r)
            )
            g = qbf_to_game(QbfFormula(k, clauses))
            assert g.n <= 4 * k * (r + 1) + 6

    def test_superscript_matches_clause_evaluation(self):
        """Walk every assignment prefix; the vertex suffix must equal the
        running disjunction of satisfied literals, clause by clause."""
        rng = random.Random(41)
        lits2 = [f(i, pos) for i in (1, 2)
                 for f in (QbfFormula.x, QbfFormula.y) for pos in (True, False)]
        for trial in range(40):
            k = rng.choice((1, 2))
            r = rng.randrange(1, 4)
            lits = [l for l in lits2 if abs(l) <= 2 * k]
            psi = QbfFormula(k, tuple(
                tuple(rng.sample(lits, rng.randrange(1, len(lits) + 1)))
                for _ in range(r)
            ))
            g = qbf_to_game(psi)
            for j, clause in enumerate(psi.clauses, start=1):
                for bits in itertools.product((True, False), repeat=2 * k):
                    vid = g.vertex(f"v1_{j}_F").id
                    sat = False
                    for p, value in enumerate(bits, start=1):
                        var = QbfFormula.x((p + 1) // 2) if p % 2 else QbfFormula.y(p // 2)
                        base = ("x" if p % 2 else "y") + str((p + 1) // 2)
                        sym = base if value else f"!{base}"
                        vid = g.edges[(vid, sym)]
                        sat = sat or (var in clause if value else -var in clause)
                        name = g.vertices[vid].name
                        if p < 2 * k:
                            assert name == f"v{p + 1}_{j}_{'T' if sat else 'F'}"


class TestQbfOracle:
    def test_simple_valid(self):
        assert qbf_brute_force(QbfFormula(1, ((QbfFormula.x(1), QbfFormula.y(1)),)))

    def test_contradiction_invalid(self):
        psi = QbfFormula(1, ((QbfFormula.x(1),), (QbfFormula.x(1, False),)))
        assert not qbf_brute_force(psi)

    def test_running_example_invalid(self):
        assert not qbf_brute_force(RUNNING)

    def test_against_independent_expansion(self):
        """Second opinion: explicit backward induction over full tables."""
        rng = random.Random(42)
        for _ in range(60):
            k = rng.randrange(1, 3)
            lits = [f(i, pos) for i in range(1, k + 1)
                    for f in (QbfFormula.x, QbfFormula.y) for pos in (True, False)]
            psi = QbfFormula(k, tuple(
                tuple(rng.sample(lits, rng.randrange(1, len(lits) + 1)))
                for _ in range(rng.randrange(1, 4))
            ))
            n = 2 * k
            table = {}
            for bits in itertools.product((False, True), repeat=n):
                assignment = {v + 1: bits[v] for v in range(n)}
                table[bits] = all(
                    any(assignment[abs(l)] == (l > 0) for l in c)
                    for c in psi.clauses
                )
            for depth in range(n - 1, -1, -1):
                new = {}
                for bits in itertools.product((False, True), repeat=depth):
                    lo, hi = table[bits + (False,)], table[bits + (True,)]
                    new[bits] = (lo and hi) if depth % 2 == 0 else (lo or hi)
                table = new
            assert qbf_brute_force(psi) == table[()]


class TestCnfGame:
    def test_stage_naming_and_structure(self):
        phi = CnfFormula(2, ((1, -2), (-1,)))
        g = cnf_to_game(phi)
        assert edge(g, "iota", "T1") == "x1_1_T"
        assert edge(g, "iota", "F1") == "x1_1_F"
        assert edge(g, "x1_1_F", "eps") == "y1_1_F"
        assert edge(g, "y1_1_F", "F2") == "x2_1_T"
        assert edge(g, "y1_1_F", "T2") == "x2_1_F"
        # clause 1 satisfied: on to clause 2 (x1 assignment re-evaluated)
        assert edge(g, "y2_1_T", "F1") == "x1_2_T"
        assert edge(g, "y2_1_T", "T1") == "x1_2_F"
        # clause finished unsatisfied: completion routes to the green pair
        assert edge(g, "y2_1_F", "T1") == "~p2_paradise_b"
        # all clauses satisfied: explicit player-1 paradise edges
        assert edge(g, "y2_2_T", "T1") == "~p1_paradise_b"

    def test_dummy_only_player2(self):
        g = cnf_to_game(CnfFormula(1, ((1,),)))
        assert g.alphabet2 == ("eps",)
        assert g.is_total() and validate(g) == []

    def test_determinism(self):
        phi = CnfFormula(3, ((1, -2), (3,), (-1, 2)))
        assert serialize_game(cnf_to_game(phi)) == serialize_game(cnf_to_game(phi))

    def test_contradiction_is_live(self):
        r = cnf_liveness_cross_check(CnfFormula(1, ((1,), (-1,))))
        assert r.sat is None and r.live is True and r.agrees

    def test_unit_clause_not_live_with_forced_witness(self):
        phi = CnfFormula(1, ((1,),))
        g = cnf_to_game(phi)
        verdict = check_k_live(g, 1)
        assert verdict.live is False
        assert verdict.witness.transducer.labels == ("T1",)

    def test_satisfying_machine_never_reaches_green(self):
        rng = random.Random(43)
        for _ in range(30):
            k = rng.randrange(1, 4)
            clauses = tuple(
                tuple(rng.sample(range(1, k + 1), rng.randrange(1, k + 1)))
                for _ in range(rng.randrange(1, 4))
            )
            signed = tuple(
                tuple(v if rng.random() < 0.5 else -v for v in c) for c in clauses
            )
            phi = CnfFormula(k, signed)
            g = cnf_to_game(phi)
            sat = sat_brute_force(phi)
            green = {g.vertex(n).id for n in ("~p2_paradise_a", "~p2_paradise_b")}
            if sat is not None:
                t = assignment_transducer(phi, sat)
                vid, state = g.initial, t.initial
                for _ in range(4 * g.n):
                    vid = g.edges[(vid, t.labels[state])]
                    assert vid not in green
                    state = t.step(state, "eps")
                    vid = g.edges[(vid, "eps")]
                    assert vid not in green
            # and any falsifying assignment hits green within one pass
            for bits in itertools.product((True, False), repeat=k):
                assignment = {i + 1: bits[i] for i in range(k)}
                if all(any(assignment[abs(l)] == (l > 0) for l in c) for c in signed):
                    continue
                t = assignment_transducer(phi, assignment)
                vid, state = g.initial, t.initial
                hit = False
                for _ in range(g.n):
                    vid = g.edges[(vid, t.labels[state])]
                    if vid in green:
                        hit = True
                        break
                    state = t.step(state, "eps")
                    vid = g.edges[(vid, "eps")]
                    if vid in green:
                        hit = True
                        break
                assert hit
                break


class TestCnfCrossCheck:
    def test_small_exhaustive(self):
        lits = (1, -1, 2, -2)
        singles = [(l,) for l in lits]
        for c1 in singles:
            for c2 in singles:
                phi = CnfFormula(2, (c1, c2))
                r = cnf_liveness_cross_check(phi)
                assert r.agrees, phi

    def test_cap_passthrough(self):
        phi = CnfFormula(1, ((1,),))
        r = cnf_liveness_cross_check(phi, cap=1)
        assert r.live is None and r.agrees is None


class TestQbfCrossCheck:
    def test_valid_pair(self):
        psi = QbfFormula(1, ((QbfFormula.x(1), QbfFormula.y(1)),
                            (QbfFormula.x(1, False), QbfFormula.y(1, False))))
        r = qbf_value_cross_check(psi)
        assert r.valid and r.p2_wins and r.game_agrees

    def test_contradiction_counter_machine(self):
        psi = QbfFormula(1, ((QbfFormula.x(1),), (QbfFormula.x(1, False),)))
        r = qbf_value_cross_check(psi)
        assert not r.valid and r.game_agrees
        assert r.counter is not None and r.counter.k == 2
        assert r.counter_defeats_strategy
        # pure-x clauses admit an oblivious machine that beats everything
        assert r.counter_product_losing

    def test_running_example(self):
        r = qbf_value_cross_check(RUNNING)
        assert not r.valid
        # three-state machines over these alphabets outnumber the machine
        # cap, so the game side is reported oracle-only
        assert r.p2_wins is None and r.game_agrees is None
        assert r.counter is not None and r.counter.k == 3
        assert r.counter.labels[0] == "e"
        assert r.counter_defeats_strategy
        # no clause is free of y literals, so no single machine can pin the
        # initial position: the constructed one punishes deviations but the
        # opponent may sacrifice a warm-up reply to reach safety
        assert r.counter_product_losing is False

    def test_replay_strategy_beats_sampled_machines_on_valid(self):
        """For valid two-pair formulas the answer-then-repeat strategy must
        beat every 3-state machine; the space is too large to exhaust, so
        sample it."""
        rng = random.Random(45)
        lits = [f(i, pos) for i in (1, 2)
                for f in (QbfFormula.x, QbfFormula.y) for pos in (True, False)]
        found = 0
        while found < 3:
            psi = QbfFormula(2, tuple(
                tuple(rng.sample(lits, rng.randrange(1, 5)))
                for _ in range(rng.randrange(1, 4))
            ))
            if not qbf_brute_force(psi):
                continue
            found += 1
            g = qbf_to_game(psi)
            from tgames import count, from_ordinal

            total = count(3, g.alphabet1, g.alphabet2)
            for _ in range(60):
                t = from_ordinal(rng.randrange(total), 3, g.alphabet1, g.alphabet2)
                sigma = ReplayStrategy(psi, g, optimal_y_chooser(psi))
                assert simulate(g, sigma, t, 4000).winner == 2

    def test_counter_beats_chosen_strategy_on_random_invalid(self):
        rng = random.Random(44)
        seen = 0
        while seen < 10:
            lits = [f(i, pos) for i in (1, 2)
                    for f in (QbfFormula.x, QbfFormula.y) for pos in (True, False)]
            psi = QbfFormula(2, tuple(
                tuple(rng.sample(lits, rng.randrange(1, 5)))
                for _ in range(rng.randrange(1, 4))
            ))
            if qbf_brute_force(psi):
                continue
            seen += 1
            t, _ = counter_transducer(psi)
            g = qbf_to_game(psi)
            sigma = ReplayStrategy(psi, g, optimal_y_chooser(psi))
            trace = simulate(g, sigma, t, 600)
            assert trace.winner == 1


class TestCounterMachineLimits:
    def test_no_machine_pins_y_pure_invalid_formula(self):
        """For an invalid formula whose clauses all contain y literals, no
        machine of the admissible size makes the initial product position
        losing: player 2 always finds some reply pattern the machine cannot
        punish without exposing an illegal exit.  Exhaustive at the one-pair
        scale (144 two-state machines)."""
        psi = QbfFormula(1, ((QbfFormula.y(1),), (QbfFormula.y(1, False),)))
        assert not qbf_brute_force(psi)
        g = qbf_to_game(psi)
        from tgames import build_product, enumerate_transducers, p2_winning_positions

        losing_exists = False
        total = 0
        for t in enumerate_transducers(2, g.alphabet1, g.alphabet2):
            prod = build_product(g, t)
            win, _ = p2_winning_positions(prod)
            total += 1
            if prod.initial not in win:
                losing_exists = True
        assert total == 144
        assert not losing_exists
        # the constructed machine still defeats the strategy it targets
        t, _ = counter_transducer(psi)
        sigma = ReplayStrategy(psi, g, optimal_y_chooser(psi))
        assert simulate(g, sigma, t, 400).winner == 1


class TestDimacs:
    def test_cnf_round(self):
        text = "c comment\np cnf 2 2\n1 -2 0\n-1 0\n"
        phi = parse_dimacs_cnf(text)
        assert phi.k == 2 and phi.clauses == ((1, -2), (-1,))

    def test_qdimacs(self):
        text = "p cnf 4 2\na 1 0\ne 2 0\na 3 0\ne 4 0\n-1 2 -3 0\n1 -2 4 0\n"
        psi = parse_qdimacs(text)
        assert psi.k == 2 and psi.clauses == ((-1, 2, -3), (1, -2, 4))

    def test_qdimacs_rejects_non_alternation(self):
        text = "p cnf 4 1\na 1 0\na 2 0\ne 3 0\ne 4 0\n1 0\n"
        with pytest.raises(GameError):
            parse_qdimacs(text)

    @pytest.mark.parametrize(
        "parse, body",
        [(parse_dimacs_cnf, "1 2 0\n"), (parse_qdimacs, "a 1 0\ne 2 0\n1 2 0\n")],
    )
    @pytest.mark.parametrize(
        "problem, message",
        [("p cnf 2 one", "line 1: bad problem line"), ("p cnf 2 2", "line 1: bad clause count")],
    )
    def test_clause_count_is_checked(self, parse, body, problem, message):
        # both parsers read the problem line and the clauses with one code path
        with pytest.raises(GameError, match=f"^{message}"):
            parse(f"{problem}\n{body}")
        assert parse(f"p cnf 2 1\n{body}").clauses == ((1, 2),)

    def test_qdimacs_rejects_block_quantifiers(self):
        text = "p cnf 4 1\na 1 3 0\ne 2 4 0\n1 0\n"
        with pytest.raises(GameError):
            parse_qdimacs(text)


class TestRobotScenario:
    def test_total_and_alternating(self):
        g = robot_scenario(3)
        assert g.is_total()
        assert validate(g) == []
        assert g.objective == "buchi"

    def test_charge_vertices_are_colored(self):
        g = robot_scenario(3)
        charged = [
            v for v in g.vertices if v.color == 2 and not v.name.startswith("~")
        ]
        assert charged
        assert all(v.name.startswith("h_") and v.name.endswith("_c") for v in charged)

    def test_occupied_and_missing_cells_block(self):
        g = robot_scenario(2)
        names = {v.name for v in g.vertices}
        # human at x1 moving fwd onto a robot sitting at H bumps in place
        sample = next(n for n in names if n.startswith("h_x1_H"))
        assert edge(g, sample, "fwd").startswith("r_x1_H")
        # human at H has no fwd edge in the workspace: bumps as well
        start = next(n for n in names if n.startswith("h_H_R"))
        assert edge(g, start, "fwd").startswith("r_H_R")
        # robot blocked by the human parked on its target station
        mid = next(n for n in names if n.startswith("r_s1_e1"))
        assert edge(g, mid, "fwd") == "h_s1_e1_n"

    def test_parked_robot_keeps_charging(self):
        g = robot_scenario(2)
        mid = next(v.name for v in g.vertices if v.name.startswith("r_H_s1"))
        assert edge(g, mid, "stay") == "h_H_s1_c"

    def test_lanes_validated(self):
        with pytest.raises(GameError):
            robot_scenario(1)

    def test_one_state_humans_cannot_block(self):
        g = robot_scenario(2)
        verdict = check_k_live(g, 1)
        assert verdict.live is True
