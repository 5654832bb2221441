import gc
import random
import sys
import weakref

import pytest

from tgames import (
    QbfFormula,
    Transducer,
    Word,
    adaptive_controller,
    check_k_live,
    count,
    enumerate_transducers,
    from_ordinal,
    make_game,
    parse_game,
    qbf_brute_force,
    qbf_to_game,
    robot_scenario,
    serialize_game,
    simulate,
    solve_bounded,
    steps_bound,
    validate,
    winner_of_lasso,
)
from tgames import synthesis

from helpers import ScriptController, random_game

AB = ("a", "b")
XY = ("x", "y")


def paradise_game(objective="parity"):
    return make_game(
        objective, AB, XY,
        [("u", 1, 2), ("v", 2, 2)],
        [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
        "u",
    )


def constant_forcing_game():
    """Player 1's `b` at the start enters an absorbing odd pair, so even the
    one-state machine labeled b beats every reply."""
    return make_game(
        "reachability", AB, XY,
        [("u", 1, 1), ("v", 2, 2), ("dead1", 1, 1), ("dead2", 2, 1)],
        [
            ("u", "a", "v"), ("u", "b", "dead2"),
            ("v", "x", "u"), ("v", "y", "u"),
            ("dead1", "a", "dead2"), ("dead1", "b", "dead2"),
            ("dead2", "x", "dead1"), ("dead2", "y", "dead1"),
        ],
        "u",
    )


class TestSolveBounded:
    def test_paradise_game_wins_all_k(self):
        g = paradise_game()
        for k in (1, 2):
            assert solve_bounded(g, k).p2_wins is True

    def test_constant_machine_blocks(self):
        assert solve_bounded(constant_forcing_game(), 1).p2_wins is False

    def test_qbf_example(self):
        psi = QbfFormula(1, ((QbfFormula.x(1), QbfFormula.y(1)),
                            (QbfFormula.x(1, False), QbfFormula.y(1, False))))
        assert qbf_brute_force(psi) is True
        assert solve_bounded(qbf_to_game(psi), 2).p2_wins is True

    def test_machine_cap(self):
        res = solve_bounded(paradise_game(), 3, machine_cap=10)
        assert res.p2_wins is None

    def test_belief_cap(self):
        g = random_game(random.Random(0), 4, 4, AB, XY, "parity")
        res = solve_bounded(g, 2, belief_cap=3)
        assert res.p2_wins is None
        assert "belief" in res.reason
        assert res.positions == 5

    def test_arena_is_well_formed(self):
        # the knowledge arena is assembled without make_game, so check it here
        rng = random.Random(32)
        for objective in ("reachability", "buchi", "parity"):
            g = random_game(rng, 3, 3, AB, XY, objective)
            res = solve_bounded(g, 2)
            arena = res.arena.graph
            assert validate(arena) == []
            assert parse_game(serialize_game(arena)) == arena
            assert set(res.arena.belief_of) == set(range(res.positions))

    def test_strategy_beats_every_machine_on_winning_games(self):
        rng = random.Random(30)
        tried = 0
        while tried < 4:
            g = random_game(rng, 3, 3, AB, XY, "buchi")
            res = solve_bounded(g, 1)
            if not res.p2_wins:
                continue
            tried += 1
            arena = res.arena
            for t in enumerate_transducers(1, AB, XY):
                # walk the belief arena against the machine, following the
                # solved strategy; the play must be winning
                vid = arena.graph.initial
                state = t.initial
                trail = {}
                steps = []
                while (vid, state) not in trail:
                    trail[(vid, state)] = len(steps)
                    a = t.labels[state]
                    mid = arena.graph.step(vid, a)
                    b = res.strategy[mid]
                    steps.append((vid, a, mid, b))
                    vid = arena.graph.step(mid, b)
                    state = t.step(state, b)
                cut = trail[(vid, state)]
                actions = [s for step in steps for s in (step[1], step[3])]
                w = Word(tuple(actions[: 2 * cut]), tuple(actions[2 * cut:]))
                assert winner_of_lasso(w, arena.graph) == 2


class TestBeliefMonotonicity:
    def test_consistent_set_shrinks_and_matches_recompute(self):
        rng = random.Random(31)
        g = random_game(rng, 3, 3, AB, XY, "parity")
        machines = list(enumerate_transducers(2, AB, XY))
        for trial in range(10):
            # random play through the arena
            actions = []
            vid = g.initial
            for _ in range(8):
                sym = rng.choice(AB if g.vertices[vid].owner == 1 else XY)
                actions.append(sym)
                vid = g.edges[(vid, sym)]
            # incremental belief
            belief = {(i, t.initial) for i, t in enumerate(machines)}
            sizes = [len(belief)]
            p2_seen = []
            for pos, sym in enumerate(actions):
                if pos % 2 == 0:
                    belief = {(i, m) for (i, m) in belief
                              if machines[i].labels[m] == sym}
                else:
                    p2_seen.append(sym)
                    belief = {(i, machines[i].step(m, sym)) for (i, m) in belief}
                sizes.append(len(belief))
                # recompute from scratch: machines agreeing with the prefix
                prefix = Word(tuple(actions[: pos + 1]))
                from tgames import agrees
                fresh = set()
                for i, t in enumerate(machines):
                    if agrees(prefix, t):
                        state, _ = run_states(t, p2_seen)
                        fresh.add((i, state))
                assert belief == fresh
            # the count never grows at a filtering step
            for a, b in zip(sizes, sizes[1:]):
                assert b <= a or len(set(sizes)) == 1


def run_states(t, inputs):
    state = t.initial
    for sym in inputs:
        state = t.step(state, sym)
    return state, None


class TestAdaptiveController:
    def test_first_hypothesis_correct_never_leaves_ordinal_zero(self):
        g = paradise_game()
        hidden = next(iter(enumerate_transducers(2, AB, XY)))  # ordinal 0
        ctrl = adaptive_controller(g, 2)
        trace = simulate(g, ctrl, hidden, 200)
        assert trace.winner == 2
        assert all(rec.ordinal == 0 for rec in trace.hypothesis_log)

    def test_ordinal_advances_exactly_at_contradictions(self):
        # k = 1 over a single input: two machines, constant-a then constant-b
        g = make_game(
            "buchi", AB, ("x",),
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u")],
            "u",
        )
        hidden = Transducer(AB, ("x",), ("b",), ((0,),))
        ctrl = adaptive_controller(g, 1)
        trace = simulate(g, ctrl, hidden, 60)
        assert trace.winner == 2
        ordinals = [rec.ordinal for rec in trace.hypothesis_log]
        # hand-simulated loop: machine 0 (constant a) is adopted at the first
        # decision because position reachability alone cannot refute it; its
        # prediction is contradicted by the next observed b, and the ordinal
        # advances exactly there, never again
        assert ordinals[0] == 0
        assert ordinals[1:] == [1] * (len(ordinals) - 1)

    def test_hidden_machine_always_beaten_on_live_games(self):
        rng = random.Random(32)
        machines = list(enumerate_transducers(2, AB, XY))
        live_seen = 0
        for _ in range(30):
            obj = rng.choice(["reachability", "buchi", "parity"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            if not check_k_live(g, 2).live:
                continue
            live_seen += 1
            bound = steps_bound(g.n, 2, AB, XY)
            for hidden in machines:
                ctrl = adaptive_controller(g, 2)
                trace = simulate(g, ctrl, hidden, bound)
                assert trace.winner == 2
                if g.objective == "reachability":
                    assert trace.steps <= bound
        assert live_seen >= 3

    def test_controller_state_stays_small(self):
        rng = random.Random(33)
        g = random_game(rng, 4, 4, AB, XY, "buchi")
        if not check_k_live(g, 2).live:
            pytest.skip("seeded game turned out not live")
        hidden = from_ordinal(37, 2, AB, XY)
        ctrl = adaptive_controller(g, 2)
        bound = steps_bound(g.n, 2, AB, XY)
        state = g.initial
        hstate = hidden.initial
        for _ in range(200):
            a = hidden.labels[hstate]
            b = ctrl.next_action(a)
            assert len(ctrl.candidates) <= 2
            if ctrl.lasso is not None:
                assert len(ctrl.lasso) <= 2 * g.n * 2 + 2
            mid = g.step(state, a)
            state = g.step(mid, b)
            hstate = hidden.step(hstate, b)

    def test_dedupe_controller_also_wins(self):
        g = paradise_game("reachability")
        for hidden in enumerate_transducers(2, AB, XY):
            ctrl = adaptive_controller(g, 2, dedupe=True)
            trace = simulate(g, ctrl, hidden, steps_bound(g.n, 2, AB, XY))
            assert trace.winner == 2

    def test_dedupe_controller_wins_on_live_corpus_slice(self):
        # the deduped hypothesis list replaces the hidden machine by a
        # behaviorally equal representative; play must still be won
        rng = random.Random(34)
        machines = list(enumerate_transducers(2, AB, XY))
        live_seen = 0
        while live_seen < 4:
            obj = rng.choice(["reachability", "buchi", "parity"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            if not check_k_live(g, 2).live:
                continue
            live_seen += 1
            bound = steps_bound(g.n, 2, AB, XY)
            for hidden in machines:
                ctrl = adaptive_controller(g, 2, dedupe=True)
                assert simulate(g, ctrl, hidden, bound).winner == 2

    def test_hypotheses_are_not_enumerated(self, monkeypatch):
        # at k=5 robot(2) has more machines than sys.maxsize: the controller
        # must reach each hypothesis by its ordinal, never list them
        def refuse(*args, **kwargs):
            raise AssertionError("the controller enumerated every machine")

        monkeypatch.setattr(synthesis, "enumerate_transducers", refuse)
        g = robot_scenario(2)
        total = count(5, g.alphabet1, g.alphabet2)
        assert total > sys.maxsize
        ctrl = adaptive_controller(g, 5)
        assert ctrl.hypotheses == total
        assert ctrl.next_action(g.alphabet1[0]) in g.alphabet2

    def test_holds_one_product_at_a_time(self, monkeypatch):
        original = synthesis.build_product
        built = []
        products = []

        def recording(g, t):
            prod = original(g, t)
            built.append(t)
            products.append(weakref.ref(prod))
            return prod

        monkeypatch.setattr(synthesis, "build_product", recording)
        g = robot_scenario(2)
        hidden = from_ordinal(1691, 2, g.alphabet1, g.alphabet2)
        ctrl = adaptive_controller(g, 2)
        trace = simulate(g, ctrl, hidden, steps_bound(g.n, 2, g.alphabet1, g.alphabet2))
        assert trace.winner == 2
        assert len(built) > 1000
        assert len(set(built)) == len(built)
        gc.collect()  # `ctrl` is still referenced and holds its current product
        assert sum(ref() is not None for ref in products) <= 1


class TestSimulate:
    def test_immediate_paradise(self):
        g = paradise_game("reachability")
        hidden = Transducer(AB, XY, ("a",), ((0, 0),))
        trace = simulate(g, adaptive_controller(g, 2), hidden, 50)
        assert trace.winner == 2
        assert trace.steps <= 2

    def test_losing_script_loses(self):
        g = constant_forcing_game()
        hidden = Transducer(AB, XY, ("b",), ((0, 0),))
        trace = simulate(g, ScriptController(["x"]), hidden, 100)
        assert trace.winner == 1

    def test_undecided_without_snapshot(self):
        g = paradise_game("buchi")

        class Blind:
            def next_action(self, observed):
                return "x"

        trace = simulate(g, Blind(), Transducer(AB, XY, ("a",), ((0, 0),)), 10)
        assert trace.winner is None
        assert trace.steps == 10

    def test_alphabet_mismatch(self):
        g = paradise_game()
        bad = Transducer(("z",), XY, ("z",), ((0, 0),))
        with pytest.raises(Exception):
            simulate(g, ScriptController(["x"]), bad, 5)


class TestStepsBound:
    def test_formula(self):
        assert steps_bound(3, 2, AB, XY) == 64 * 2 * (4 * 3 * 2)

    def test_monotone(self):
        base = steps_bound(3, 2, 2, 2)
        assert steps_bound(4, 2, 2, 2) > base
        assert steps_bound(3, 3, 2, 2) > base
        assert steps_bound(3, 2, 3, 2) > base
        assert steps_bound(3, 2, 2, 3) > base

    def test_accepts_alphabets_or_sizes(self):
        assert steps_bound(3, 2, AB, XY) == steps_bound(3, 2, 2, 2)
