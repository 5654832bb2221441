import itertools
import random
import sys

import pytest

from tgames import (
    GameError,
    Vertex,
    product,
    solvers,
    make_game,
    solve_bounded,
    solve_one_player,
    solve_parity,
    winner_of_lasso,
)
from tgames.solvers import compile_arena

from helpers import (
    brute_force_region2,
    one_player_region_oracle,
    play_winner,
    random_game,
    random_one_player_game,
)


class TestSolveParity:
    def test_p2_controlled_even_cycle(self):
        g = make_game(
            "parity",
            ["a"],
            ["x", "y"],
            [("u", 1, 2), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        sol = solve_parity(g)
        assert sol.region2 == {0, 1}

    def test_p1_paradise_pair(self):
        g = make_game(
            "parity",
            ["a"],
            ["x"],
            [("p", 1, 1), ("q", 2, 1)],
            [("p", "a", "q"), ("q", "x", "p")],
            "p",
        )
        sol = solve_parity(g)
        assert sol.region1 == {0, 1}

    def test_requires_total(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u")],
            "u",
        )
        with pytest.raises(GameError):
            solve_parity(g)

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_regions_match_brute_force(self, objective):
        rng = random.Random(hash(objective) % 1000)
        for _ in range(25):
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5),
                            ("a", "b"), ("x", "y"), objective)
            sol = solve_parity(g)
            assert sol.region2 == brute_force_region2(g)
            assert sol.region1 | sol.region2 == {v.id for v in g.vertices}
            assert not (sol.region1 & sol.region2)

    def test_strategies_win_against_all_positional_replies(self):
        rng = random.Random(99)
        for _ in range(15):
            obj = rng.choice(["parity", "buchi", "reachability"])
            g = random_game(rng, 3, 3, ("a", "b"), ("x", "y"), obj)
            self._check_strategies(g)

    def test_twenty_vertex_game_regions_and_strategies(self):
        # larger than the pair-enumeration oracle can handle; against a
        # fixed positional strategy the best reply is positional, so
        # exhausting replies still validates both regions completely
        rng = random.Random(2020)
        g = random_game(rng, 10, 10, ("a", "b"), ("x", "y"), "parity")
        self._check_strategies(g)

    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        # 600 disjoint 2-cycles with 1,200 distinct colors, more than the
        # default recursion limit of 1,000.  Below color 1160 cycle i holds
        # 2i and 2i + 1, so player 1 wins it; above, the pairs shift by one
        # and player 2 wins all but the cycle holding 1160 and 1199.  Mixing
        # the winners more finely costs the solver cubic time.
        def refuse(limit):
            raise AssertionError("solve_parity changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        pairs = [(2 * i, 2 * i + 1) for i in range(580)]
        pairs += [(2 * i + 1, 2 * i + 2) for i in range(580, 599)] + [(1160, 1199)]
        rng = random.Random(600)
        vertices, edges = [], []
        for i, pair in enumerate(pairs):
            c1, c2 = rng.sample(pair, 2)
            vertices += [(f"u{i}", 1, c1), (f"w{i}", 2, c2)]
            edges += [(f"u{i}", "a", f"w{i}"), (f"w{i}", "x", f"u{i}")]
        assert len({c for v in vertices for c in v[2:]}) == 1200
        g = make_game("parity", ["a"], ["x"], vertices, edges, "u0")
        sol = solve_parity(g)
        for i, pair in enumerate(pairs):
            winner = 2 if max(pair) % 2 == 0 else 1
            assert sol.winner(g.vertex(f"u{i}").id) == winner
            assert sol.winner(g.vertex(f"w{i}").id) == winner
        assert len(sol.region2) == 2 * 19

    @staticmethod
    def _check_strategies(g):
        # strategies winning on disjoint covering regions pin both regions
        # exactly, so this is a complete correctness check
        sol = solve_parity(g)
        assert sol.region1 | sol.region2 == {v.id for v in g.vertices}
        assert not (sol.region1 & sol.region2)
        p1 = [v.id for v in g.vertices if v.owner == 1]
        p2 = [v.id for v in g.vertices if v.owner == 2]
        for combo in itertools.product(g.alphabet1, repeat=len(p1)):
            s1 = dict(zip(p1, combo))
            for v in sol.region2:
                assert play_winner(g, v, {**s1, **sol.strategy2}) == 2
        for combo in itertools.product(g.alphabet2, repeat=len(p2)):
            s2 = dict(zip(p2, combo))
            for v in sol.region1:
                assert play_winner(g, v, {**sol.strategy1, **s2}) == 1


class TestCompiledArena:
    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_graph_and_compiled_form_solve_alike(self, objective):
        rng = random.Random(f"compiled-{objective}")
        for _ in range(30):
            g = random_game(rng, rng.randrange(2, 8), rng.randrange(2, 8),
                            ("a", "b"), ("x", "y"), objective)
            arena = compile_arena(g)
            assert arena.n == g.n
            for v in g.vertices:
                assert arena.succ[v.id] == [t for _a, t in g.successors(v.id)]
                into = [(s.id, a) for s in g.vertices
                        for a, t in g.successors(s.id) if t == v.id]
                assert arena.pred[v.id] == into
            assert solve_parity(arena) == solve_parity(g)

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_knowledge_arena_solves_as_its_graph(self, objective):
        rng = random.Random(f"knowledge-{objective}")
        for _ in range(5):
            g = random_game(rng, 3, 3, ("a", "b"), ("x", "y"), objective)
            res = solve_bounded(g, 2)
            assert solve_parity(res.arena.graph) == res.solution

    def test_no_vertex_named_until_the_graph_is_read(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Vertex(*args)

        monkeypatch.setattr(product, "Vertex", counted)
        g = random_game(random.Random(5), 3, 3, ("a", "b"), ("x", "y"), "buchi")
        res = solve_bounded(g, 2)
        assert res.positions > 0
        assert built == []
        graph = res.arena.graph
        assert len(built) == graph.n == res.positions + 2
        assert res.arena.graph is graph
        assert len(built) == graph.n


class TestSolveOnePlayer:
    def test_only_cycle_odd(self):
        g = make_game(
            "parity",
            ["o"],
            ["x"],
            [("u", 1, 3), ("v", 2, 2)],
            [("u", "o", "v"), ("v", "x", "u")],
            "u",
        )
        region, _ = solve_one_player(g)
        assert region == frozenset()

    def test_choice_between_odd_and_even_cycle(self):
        g = make_game(
            "parity",
            ["o"],
            ["x", "y"],
            [("odd", 1, 3), ("pick", 2, 1), ("even", 1, 2), ("back", 2, 1)],
            [
                ("odd", "o", "pick"),
                ("pick", "x", "odd"),
                ("pick", "y", "even"),
                ("even", "o", "back"),
                ("back", "x", "even"),
                ("back", "y", "even"),
            ],
            "odd",
        )
        region, lassos = solve_one_player(g)
        assert region == {0, 1, 2, 3}
        lasso = lassos[g.vertex("odd").id]
        cycle_vertices = {v for v, _ in lasso.cycle}
        assert g.vertex("even").id in cycle_vertices
        assert winner_of_lasso(lasso.to_word(), g, start=lasso.start) == 2

    def test_precondition_enforced(self):
        g = make_game(
            "parity",
            ["a", "b"],
            ["x"],
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u")],
            "u",
        )
        with pytest.raises(GameError, match="out-degree"):
            solve_one_player(g)

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_agrees_with_two_player_solver(self, objective):
        rng = random.Random(ord(objective[0]))
        for _ in range(35):
            g = random_one_player_game(
                rng, rng.randrange(2, 6), rng.randrange(2, 6), ("x", "y"), objective
            )
            region, lassos = solve_one_player(g)
            assert region == solve_parity(g).region2
            for vid, lasso in lassos.items():
                assert lasso.start == vid
                assert winner_of_lasso(lasso.to_word(), g, start=vid) == 2

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_region_matches_reachability_oracle(self, objective):
        rng = random.Random(len(objective))
        for _ in range(40):
            g = random_one_player_game(
                rng, rng.randrange(1, 8), rng.randrange(1, 8), ("x", "y"), objective
            )
            region, _ = solve_one_player(g)
            assert region == one_player_region_oracle(g)

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_rows_solve_as_the_graph(self, objective):
        rng = random.Random(len(objective))
        for _ in range(40):
            g = random_one_player_game(
                rng, rng.randrange(1, 8), rng.randrange(1, 8), ("x", "y"), objective
            )
            region, lassos = solve_one_player(g)
            row_region, row_lassos = solve_one_player(compile_arena(g))
            assert row_region == region
            assert list(row_lassos) == list(lassos)
            for vid in region:
                assert row_lassos[vid] == lassos[vid]


class TestLazyLassos:
    @staticmethod
    def _game(objective, losers=True):
        """A seeded one-player arena with several winning vertices (and,
        when asked, a losing one)."""
        rng = random.Random(7)
        while True:
            g = random_one_player_game(rng, 5, 5, ("x", "y"), objective)
            region, _ = solve_one_player(g)
            if len(region) >= 3 and (not losers or len(region) < g.n):
                return g, region

    @staticmethod
    def _count_bfs(monkeypatch):
        calls = []
        real = solvers._bfs_path

        def counted(g, src, goals, allowed=None):
            # searches to the goals run unrestricted; cycle searches do not
            calls.append((src, allowed is None))
            return real(g, src, goals, allowed)

        monkeypatch.setattr(solvers, "_bfs_path", counted)
        return calls

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_no_search_until_a_lasso_is_read(self, objective, monkeypatch):
        g, region = self._game(objective)
        calls = self._count_bfs(monkeypatch)
        _, lassos = solve_one_player(g)
        assert calls == []
        v = max(region)
        lasso = lassos[v]
        assert lasso.start == v
        # one search from v to the goals; any others only close its cycle
        assert [src for src, to_goals in calls if to_goals] == [v]
        seen = len(calls)
        assert lassos[v] is lasso
        assert len(calls) == seen

    @pytest.mark.parametrize("objective", ["parity", "buchi", "reachability"])
    def test_mapping_keys(self, objective):
        g, region = self._game(objective)
        _, lassos = solve_one_player(g)
        assert set(lassos) == region
        assert list(lassos) == sorted(region)
        assert len(lassos) == len(region)
        loser = min(set(range(g.n)) - region)
        assert loser not in lassos
        with pytest.raises(KeyError):
            lassos[loser]
        for vid in region:
            assert vid in lassos
            assert winner_of_lasso(lassos[vid].to_word(), g, start=vid) == 2
