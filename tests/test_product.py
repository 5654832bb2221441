import itertools
import random
from collections import deque

import pytest

from tgames import (
    GameError,
    Transducer,
    Word,
    agrees,
    build_product,
    count,
    distinguish_extension,
    enumerate_transducers,
    from_ordinal,
    make_game,
    p2_winning_positions,
    parse_game,
    reachable_positions,
    serialize_game,
    validate,
    winner_of_lasso,
    winning_lasso,
)

from helpers import random_game

AB = ("a", "b")
XY = ("x", "y")


def random_transducer(rng, k, outputs=AB, inputs=XY):
    return from_ordinal(rng.randrange(count(k, outputs, inputs)), k, outputs, inputs)


def arena(objective="parity"):
    return random_game(random.Random(0), 3, 3, AB, XY, objective)


class TestBuild:
    def test_constant_machine_prunes_choices(self):
        g = arena()
        t = Transducer(AB, XY, ("a",), ((0, 0),))
        prod = build_product(g, t)
        for (vid, m), pvid in prod.positions.items():
            if g.vertices[vid].owner == 1:
                on = prod.graph.edges[(pvid, "a")]
                assert on not in prod.top
                off = prod.graph.edges[(pvid, "b")]
                assert off == prod.top[1]

    def test_off_policy_goes_to_deviation_paradise(self):
        g = arena()
        t = Transducer(AB, XY, ("a", "b"), ((1, 0), (0, 1)))
        prod = build_product(g, t)
        for (vid, m), pvid in prod.positions.items():
            if g.vertices[vid].owner != 1:
                continue
            for sym in AB:
                tgt = prod.graph.edges[(pvid, sym)]
                if sym == t.labels[m]:
                    assert tgt not in prod.top
                else:
                    assert tgt == prod.top[1]

    def test_position_count_bound(self):
        rng = random.Random(4)
        for _ in range(50):
            obj = rng.choice(["parity", "buchi", "reachability"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            k = rng.randrange(1, 4)
            t = random_transducer(rng, k)
            prod = build_product(g, t)
            assert len(prod.positions) <= g.n * k
            assert prod.graph.n <= g.n * k + 2
            # the arena is assembled without make_game, so check it here
            assert validate(prod.graph) == []
            assert parse_game(serialize_game(prod.graph)) == prod.graph
            # the view drops the deviations and all but one top[0] move
            top_a, top_b = prod.top
            kept = {e: v for e, v in prod.graph.edges.items() if v != top_b}
            kept[(top_a, AB[0])] = top_b
            assert prod.policy_view().edges == kept

    def test_colors_lift(self):
        g = arena()
        t = random_transducer(random.Random(2), 3)
        prod = build_product(g, t)
        for (vid, _m), pvid in prod.positions.items():
            assert prod.graph.vertices[pvid].color == g.vertices[vid].color
            assert prod.graph.vertices[pvid].owner == g.vertices[vid].owner

    def test_alphabet_mismatch(self):
        g = arena()
        t = Transducer(("q",), XY, ("q",), ((0, 0),))
        with pytest.raises(GameError):
            build_product(g, t)

    def test_partial_game_rejected(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        with pytest.raises(GameError):
            build_product(g, Transducer(AB, XY, ("a",), ((0, 0),)))


class TestReachable:
    def test_initial_always_present(self):
        g = arena()
        for t in enumerate_transducers(1, AB, XY):
            prod = build_product(g, t)
            assert prod.initial in reachable_positions(prod)

    def test_disconnected_position_absent(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 1), ("island", 1, 1), ("v", 2, 2), ("w", 2, 2)],
            [("u", "a", "v"), ("u", "b", "v"),
             ("island", "a", "w"), ("island", "b", "w"),
             ("v", "x", "u"), ("v", "y", "u"),
             ("w", "x", "island"), ("w", "y", "island")],
            "u",
        )
        t = Transducer(AB, XY, ("a",), ((0, 0),))
        prod = build_product(g, t)
        reach = reachable_positions(prod)
        assert (g.vertex("island").id, 0) not in reach
        assert (g.vertex("island").id, 0) not in prod.positions

    def test_agreement_with_bfs_oracle(self):
        rng = random.Random(8)
        for _ in range(100):
            g = random_game(rng, rng.randrange(2, 4), rng.randrange(2, 4), AB, XY, "parity")
            t = random_transducer(rng, rng.randrange(1, 3))
            prod = build_product(g, t)
            # independent closure over (vertex, state) pairs
            start = prod.initial
            seen = {start}
            queue = deque([start])
            while queue:
                u, m = queue.popleft()
                if g.vertices[u].owner == 1:
                    succs = [(g.edges[(u, t.labels[m])], m)]
                else:
                    succs = [(g.edges[(u, b)], t.step(m, b)) for b in XY]
                for nxt in succs:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert set(reachable_positions(prod)) == seen
            assert set(prod.positions) == seen


class TestWinning:
    def test_paradise_base_game_all_winning(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 2), ("v", 2, 2)],
            [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        for t in enumerate_transducers(2, AB, XY):
            prod = build_product(g, t)
            win, _ = p2_winning_positions(prod)
            assert win == frozenset(prod.positions)

    def test_forced_odd_cycle_is_losing(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 3), ("v", 2, 1)],
            [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        t = Transducer(AB, XY, ("a",), ((0, 0),))
        prod = build_product(g, t)
        win, _ = p2_winning_positions(prod)
        assert prod.initial not in win

    def test_witness_lassos_replay(self):
        from tgames.graphs import check_lasso

        rng = random.Random(13)
        replayed = 0
        for _ in range(100):
            obj = rng.choice(["parity", "buchi", "reachability"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            t = random_transducer(rng, rng.randrange(1, 3))
            prod = build_product(g, t)
            win, lassos = p2_winning_positions(prod)
            for pos in win:
                lasso = lassos[pos]
                check_lasso(prod.graph, lasso)
                assert winner_of_lasso(
                    lasso.to_word(), prod.graph, start=lasso.start
                ) == 2
                replayed += 1
        assert replayed >= 200

    def test_winning_lasso_length_bound(self):
        rng = random.Random(14)
        for _ in range(40):
            g = random_game(rng, 3, 3, AB, XY, "parity")
            k = rng.randrange(1, 3)
            t = random_transducer(rng, k)
            prod = build_product(g, t)
            win, _ = p2_winning_positions(prod)
            for pos in win:
                lasso = winning_lasso(prod, pos)
                assert len(lasso) <= 2 * g.n * k + 2

    def test_losing_positions_closed_under_play(self):
        # player 1 is pinned, so from a losing position every successor in
        # the on-policy view stays losing
        rng = random.Random(15)
        for _ in range(40):
            g = random_game(rng, 3, 3, AB, XY, rng.choice(["parity", "buchi"]))
            t = random_transducer(rng, 2)
            prod = build_product(g, t)
            win, _ = p2_winning_positions(prod)
            losing = set(prod.positions) - set(win)
            view = prod.policy_view()
            for pos in losing:
                vid = prod.positions[pos]
                for _a, tgt in view.successors(vid):
                    if tgt in prod.of_vertex:
                        assert prod.of_vertex[tgt] in losing

    def test_winning_lasso_requires_winning(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 3), ("v", 2, 1)],
            [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        t = Transducer(AB, XY, ("a",), ((0, 0),))
        prod = build_product(g, t)
        with pytest.raises(GameError):
            winning_lasso(prod, prod.initial)


class TestBijection:
    def test_agreeing_words_avoid_top_and_project(self):
        rng = random.Random(16)
        for _ in range(120):
            obj = rng.choice(["parity", "buchi", "reachability"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            t = random_transducer(rng, rng.randrange(1, 3))
            prod = build_product(g, t)
            actions = []
            vid = g.initial
            for _ in range(rng.randrange(1, 7)):
                sym = rng.choice(AB if g.vertices[vid].owner == 1 else XY)
                actions.append(sym)
                vid = g.edges[(vid, sym)]
            w = Word(tuple(actions))
            # replay in the product
            pvid = prod.graph.initial
            hit_top = False
            base_track = [g.initial]
            cur = g.initial
            for sym in actions:
                pvid = prod.graph.edges[(pvid, sym)]
                cur = g.edges[(cur, sym)]
                base_track.append(cur)
                if pvid in prod.top:
                    hit_top = True
                    break
                assert prod.of_vertex[pvid][0] == cur
            assert agrees(w, t) == (not hit_top)


class TestDistinguish:
    def test_identical_machines(self):
        t = Transducer(AB, XY, ("a", "b"), ((1, 0), (0, 1)))
        assert distinguish_extension((), t, t) is None

    def test_equal_start_labels_distinguished_in_one(self):
        toggle = Transducer(AB, ("x",), ("a", "b"), ((1,), (0,)))
        constant = Transducer(AB, ("x",), ("a", "a"), ((1,), (0,)))
        b = distinguish_extension((), toggle, constant)
        assert b == ("x",)

    def test_differing_current_labels_need_no_input(self):
        t1 = Transducer(AB, ("x",), ("a", "a"), ((1,), (0,)))
        t2 = Transducer(AB, ("x",), ("a", "b"), ((1,), (1,)))
        alpha = ("a", "x")  # both agree; states after: t1 at 1 (a), t2 at 1 (b)
        assert distinguish_extension(alpha, t1, t2) == ()

    def test_precondition(self):
        t1 = Transducer(AB, ("x",), ("a",), ((0,),))
        t2 = Transducer(AB, ("x",), ("b",), ((0,),))
        with pytest.raises(GameError):
            distinguish_extension(("a",), t1, t2)

    def test_symmetry(self):
        rng = random.Random(17)
        for _ in range(50):
            t1 = random_transducer(rng, 2)
            t2 = random_transducer(rng, 2)
            b12 = distinguish_extension((), t1, t2)
            b21 = distinguish_extension((), t2, t1)
            assert (b12 is None) == (b21 is None)
            if b12 is not None:
                assert len(b12) == len(b21)

    def test_exhaustive_two_state_bound(self):
        everything = list(enumerate_transducers(2, AB, XY))
        for t1, t2 in itertools.combinations(everything, 2):
            b = distinguish_extension((), t1, t2)
            if b is not None:
                assert len(b) <= 4
