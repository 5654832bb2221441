import copy
import gc
import hashlib
import itertools
import random
import sys
import weakref
from collections import deque

import pytest

from tgames import (
    CnfFormula,
    QbfFormula,
    Transducer,
    Word,
    adaptive_controller,
    canonical_ordinal,
    check_k_live,
    cnf_to_game,
    count,
    enumerate_transducers,
    from_ordinal,
    make_game,
    parse_game,
    qbf_brute_force,
    qbf_to_game,
    robot_scenario,
    sat_brute_force,
    serialize_game,
    simulate,
    solve_bounded,
    solve_parity,
    steps_bound,
    validate,
    winner_of_lasso,
)
from tgames import liveness, synthesis

from helpers import ScriptController, product_scan, random_game

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

    def test_base_win_and_liveness_imply_p2_wins(self):
        # 180 seeded arenas, 60 per objective, each at k = 1 and 2.  A
        # k-state machine is one player-1 strategy of the base game, so
        # player 2 winning the base game from the start beats every machine;
        # and a game live at k is won against every k-state machine.
        seen = {"base won, not live": 0, "live, base lost": 0}
        for objective in ("reachability", "buchi", "parity"):
            rng = random.Random(f"cross-engine-{objective}")
            for _ in range(60):
                g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, objective)
                base = g.initial in solve_parity(g).region2
                for k in (1, 2):
                    wins = solve_bounded(g, k).p2_wins
                    live = check_k_live(g, k).live
                    if base or live:
                        assert wins is True
                    seen["base won, not live"] += base and not live
                    seen["live, base lost"] += live and not base
        assert min(seen.values()) > 0, seen

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


def one_pair_formulas():
    """The 575 one-pair formulas of acceptance criterion 2a, in its order."""
    lits = (1, -1, 2, -2)
    clauses = [c for r in (1, 2, 3, 4) for c in itertools.combinations(lits, r)]
    return [
        QbfFormula(1, cs) for r in (1, 2, 3) for cs in itertools.combinations(clauses, r)
    ]


class TestKnowledgeArena:
    @staticmethod
    def _paths(graph):
        """Action sequence of a breadth-first path to every vertex."""
        paths = {graph.initial: ()}
        queue = deque([graph.initial])
        while queue:
            v = queue.popleft()
            for a in graph.acting_alphabet(v):
                t = graph.edges[(v, a)]
                if t not in paths:
                    paths[t] = paths[v] + (a,)
                    queue.append(t)
        return paths

    @pytest.mark.parametrize("objective", ["reachability", "buchi", "parity"])
    def test_beliefs_match_frozenset_oracle(self, objective):
        # a position is settled exactly when its path passed a vertex of
        # player 2's base winning region; every other position carries the
        # belief that plain set semantics gives.  Games are drawn until four
        # start outside that region (most seeded reachability games start
        # inside it, where every position is settled).
        rng = random.Random(f"beliefs-{objective}")
        seen = {"settled": 0, "unsettled": 0}
        outside = 0
        while outside < 4:
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, objective)
            w2 = solve_parity(g).region2
            outside += g.initial not in w2
            for k in (1, 2):
                pool = {canonical_ordinal(t): t for t in enumerate_transducers(k, AB, XY)}
                res = solve_bounded(g, k)
                paths = self._paths(res.arena.graph)
                assert set(res.arena.belief_of) == set(range(res.positions))
                settled = 0
                for v in range(res.positions):
                    # replay the path on the game with plain set semantics
                    u = g.initial
                    passed = u in w2
                    belief = {(o, t.initial) for o, t in pool.items()}
                    for i, a in enumerate(paths[v]):
                        if i % 2 == 0:
                            belief = {(o, m) for o, m in belief if pool[o].labels[m] == a}
                        else:
                            belief = {(o, pool[o].step(m, a)) for o, m in belief}
                        u = g.edges[(u, a)]
                        passed = passed or u in w2
                    vertex, held = res.arena.belief_of[v]
                    assert vertex == u
                    assert (held is None) == passed
                    if held is None:
                        settled += 1
                        if u in w2:
                            assert v in res.solution.region2
                    else:
                        assert belief
                        assert held == frozenset(belief)
                assert res.settled == settled
                seen["settled"] += settled
                seen["unsettled"] += res.positions - settled
        assert min(seen.values()) > 0, seen

    def test_beliefs_read_without_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reading beliefs enumerated every machine")

        monkeypatch.setattr(synthesis, "enumerate_transducers", refuse)
        # player 2 wins paradise_game's base game at the initial vertex, so
        # play is settled from the start
        g = paradise_game()
        res = solve_bounded(g, 2)
        assert res.arena.belief_of[0] == (g.initial, None)
        assert res.settled == res.positions
        # player 1 wins constant_forcing_game's base game at the initial
        # vertex, so play starts with every machine in state 0
        g = constant_forcing_game()
        res = solve_bounded(g, 2)
        start = frozenset((o, 0) for o in range(count(2, AB, XY)))
        assert res.arena.belief_of[0] == (g.initial, start)

    def test_answers_pinned(self):
        # every 25th criterion-2a formula; re-pinned when play began to
        # settle on player 2's base winning region, which shrank the arenas
        # and changed their strategies (golden `bounded_verdicts` pins the
        # answers)
        digest = hashlib.sha256()
        for psi in one_pair_formulas()[::25]:
            res = solve_bounded(qbf_to_game(psi), 2)
            digest.update(
                repr((res.p2_wins, res.positions, sorted(res.strategy.items()))).encode()
            )
        assert digest.hexdigest() == (
            "6d68804f1a60915211c757aee37f56fd412749fe37d467de675e53172f3e0795"
        )


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

    def test_hidden_machine_beaten_on_first_live_games_of_seed_34(self):
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
                ctrl = adaptive_controller(g, 2)
                assert simulate(g, ctrl, hidden, bound).winner == 2

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

    def test_every_machine_beaten_on_reachability_paradise(self):
        g = paradise_game("reachability")
        for hidden in enumerate_transducers(2, AB, XY):
            ctrl = adaptive_controller(g, 2)
            trace = simulate(g, ctrl, hidden, steps_bound(g.n, 2, AB, XY))
            assert trace.winner == 2

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


class TestWindowedScan:
    """The controller's windowed hypothesis scan against one product per
    hypothesis (`helpers.product_scan`), mostly with windows of 7 machines
    so that scans cross window edges, wrap around, and sometimes find
    nothing."""

    @staticmethod
    def _play(fresh, hidden):
        """A copy of `fresh` plays against `hidden`; the trace and the
        (vertex, ordinal) at the start of every scan in the play."""
        ctrl = copy.copy(fresh)
        ctrl.log = []
        starts = []
        scan = ctrl._scan
        ctrl._scan = lambda: starts.append((ctrl.vertex, ctrl.ordinal)) or scan()
        g = fresh.game
        trace = simulate(g, ctrl, hidden, steps_bound(g.n, fresh.k, g.alphabet1, g.alphabet2))
        return trace, starts

    @staticmethod
    def _scan_from(ctrl, vertex, ordinal, scan):
        ctrl.vertex, ctrl.ordinal = vertex, ordinal
        ctrl.candidates = []
        ctrl.conjecture, ctrl.lasso = None, None
        return scan(ctrl)

    def _compare(self, fast, starts, seen):
        slow = copy.copy(fast)  # a second fresh controller, same hypotheses
        for vertex, ordinal in starts:
            windows = fast.scan_windows
            found = self._scan_from(fast, vertex, ordinal, synthesis.AdaptiveController._scan)
            assert found == self._scan_from(slow, vertex, ordinal, product_scan)
            assert fast.snapshot() == slow.snapshot()
            if not found:
                seen["full wrap"] += 1
            elif fast.ordinal < ordinal:
                seen["wrapped"] += 1
            seen["window edges"] += fast.scan_windows - windows > 1
        assert fast.products_built <= slow.products_built

    def test_random_arenas(self, monkeypatch):
        monkeypatch.setattr(liveness, "SCAN_WINDOW", 7)
        seen = {"full wrap": 0, "wrapped": 0, "window edges": 0}
        for objective in ("reachability", "buchi", "parity"):
            rng = random.Random(f"scan-{objective}")
            for _ in range(4):
                g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, objective)
                for k in (1, 2):
                    ctrl = adaptive_controller(g, k)
                    last = ctrl.hypotheses - 1
                    starts = [
                        (v.id, o) for v in g.vertices for o in {0, last, rng.randrange(last + 1)}
                    ]
                    self._compare(ctrl, starts, seen)
        assert min(seen.values()) > 0, seen

    def test_robot(self, monkeypatch):
        # the starts of every scan in a play against machine 4505, whose
        # long scan skips about 4,000 hypotheses
        monkeypatch.setattr(liveness, "SCAN_WINDOW", 7)
        g = robot_scenario(2)
        fresh = adaptive_controller(g, 2)
        _trace, starts = self._play(fresh, from_ordinal(4505, 2, g.alphabet1, g.alphabet2))
        seen = {"full wrap": 0, "wrapped": 0, "window edges": 0}
        self._compare(fresh, starts, seen)
        assert seen["window edges"] > 0

    def test_unsat_cnf_games(self):
        # Three unsatisfiable 3-variable CNF games at k = 3: player 1 wins
        # the base game, so the controller must learn the hidden machine.
        # Each has 5,832 machines, two 4,096-ordinal scan windows; a fixed
        # sample of 60 hidden machines per game plays with the real window.
        rng = random.Random("controller-cnf")
        lits = (1, -1, 2, -2, 3, -3)
        games = []
        while len(games) < 3:
            clauses = tuple(tuple(rng.sample(lits, rng.randrange(1, 4))) for _ in range(4))
            if sat_brute_force(CnfFormula(3, clauses)) is None:
                games.append(cnf_to_game(CnfFormula(3, clauses)))
        kernel_passes = 0
        for g in games:
            fresh = adaptive_controller(g, 3)
            assert fresh.hypotheses == 5832
            for ordinal in sorted(rng.sample(range(fresh.hypotheses), 60)):
                trace, starts = self._play(fresh, from_ordinal(ordinal, 3, g.alphabet1, g.alphabet2))
                assert trace.winner == 2
                fast = adaptive_controller(g, 3)
                seen = {"full wrap": 0, "wrapped": 0, "window edges": 0}
                self._compare(fast, starts, seen)
                assert seen["full wrap"] == 0  # the game is live: the hidden machine qualifies
                kernel_passes += fast.scan_windows
        assert kernel_passes > 0

    def test_counters_pinned(self):
        # products built and kernel passes of a fresh controller's whole
        # play against three hidden machines
        g = robot_scenario(2)
        bound = steps_bound(g.n, 2, g.alphabet1, g.alphabet2)
        for ordinal, products, windows in ((1691, 1073, 0), (4505, 19, 2), (14530, 6, 4)):
            ctrl = adaptive_controller(g, 2)
            hidden = from_ordinal(ordinal, 2, g.alphabet1, g.alphabet2)
            assert simulate(g, ctrl, hidden, bound).winner == 2
            assert (ctrl.products_built, ctrl.scan_windows) == (products, windows)


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
