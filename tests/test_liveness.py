import random

import pytest

from tgames import (
    CnfFormula,
    GameError,
    LivenessWitness,
    Transducer,
    Word,
    agrees,
    canonical_ordinal,
    check_k_live,
    cnf_to_game,
    complete,
    count,
    enumerate_transducers,
    from_ordinal,
    make_game,
    robot_scenario,
    sat_brute_force,
    verify_witness,
    word_in_Ak,
    liveness,
)

from helpers import random_game

AB = ("a", "b")
XY = ("x", "y")


def paradise_game():
    return make_game(
        "parity", AB, XY,
        [("u", 1, 2), ("v", 2, 2)],
        [("u", "a", "v"), ("u", "b", "v"), ("v", "x", "u"), ("v", "y", "u")],
        "u",
    )


def trap_game():
    """Player 1's action `b` from the start walks into a region only player
    1 can win (an absorbing odd pair)."""
    return make_game(
        "reachability", AB, XY,
        [("u", 1, 1), ("v", 2, 2), ("dead1", 1, 1), ("dead2", 2, 1)],
        [
            ("u", "a", "v"),
            ("u", "b", "dead2"),
            ("v", "x", "u"), ("v", "y", "u"),
            ("dead1", "a", "dead2"), ("dead1", "b", "dead2"),
            ("dead2", "x", "dead1"), ("dead2", "y", "dead1"),
        ],
        "u",
    )


class TestCheckKLive:
    def test_paradise_game_live_for_all_k(self):
        g = paradise_game()
        for k in (1, 2):
            verdict = check_k_live(g, k)
            assert verdict.live is True
            assert verdict.witness is None
            assert verdict.stats.transducers_examined == count(k, AB, XY)

    def test_trap_game_not_live_with_constant_witness(self):
        g = trap_game()
        verdict = check_k_live(g, 1)
        assert verdict.live is False
        w = verdict.witness
        assert w.transducer.labels == ("b",)
        assert verify_witness(g, 1, w)

    def test_cnf_equivalence_small(self):
        unsat = CnfFormula(2, ((1,), (-1,)))
        sat = CnfFormula(2, ((1, 2),))
        assert check_k_live(cnf_to_game(unsat), 2).live is True
        v = check_k_live(cnf_to_game(sat), 2).live
        assert v is False
        assert sat_brute_force(unsat) is None
        assert sat_brute_force(sat) is not None

    def test_cap_gives_undecided(self):
        g = paradise_game()
        verdict = check_k_live(g, 3, cap=10)
        assert verdict.undecided
        assert verdict.live is None
        assert verdict.witness is None

    def test_cap_at_the_machine_count_decides(self):
        g = paradise_game()  # two 1-state machines
        assert check_k_live(g, 1, cap=2).live is True
        assert check_k_live(g, 1, cap=1).undecided

    def test_requires_total(self):
        g = make_game(
            "parity", AB, XY,
            [("u", 1, 1), ("v", 2, 2)],
            [("u", "a", "v"), ("v", "x", "u"), ("v", "y", "u")],
            "u",
        )
        with pytest.raises(GameError):
            check_k_live(g, 1)

    def test_witnesses_always_verify(self):
        rng = random.Random(23)
        found = 0
        for _ in range(25):
            obj = rng.choice(["reachability", "buchi", "parity"])
            g = random_game(rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, XY, obj)
            verdict = check_k_live(g, 2)
            if verdict.live is False:
                assert verify_witness(g, 2, verdict.witness)
                found += 1
        assert found > 0


class TestSweepOracle:
    """The bit-parallel sweep against one product per machine
    (`_scan_machine`), with windows of 7 machines so that most machines
    fall in later windows."""

    @staticmethod
    def _arenas():
        for objective in ("reachability", "buchi", "parity"):
            rng = random.Random(f"sweep-{objective}")
            for i in range(10):
                alphabet2 = ("x", "y", "z") if i % 3 == 2 else XY
                yield random_game(
                    rng, rng.randrange(2, 5), rng.randrange(2, 5), AB, alphabet2, objective
                )

    @staticmethod
    def _one_by_one(g, k):
        """Verdict, witness and count of a sweep that solves one product per
        machine, in ordinal order."""
        examined = 0
        for t in enumerate_transducers(k, g.alphabet1, g.alphabet2):
            examined += 1
            w = liveness._scan_machine(g, t)
            if w is not None:
                return False, w, examined
        return True, None, examined

    def test_failing_machines_match(self, monkeypatch):
        monkeypatch.setattr(liveness, "WINDOW", 7)
        failures = 0
        for g in self._arenas():
            for k in (1, 2):
                total = count(k, g.alphabet1, g.alphabet2)
                kernel = liveness._Kernel(g, k)
                swept = set()
                for lo in range(0, total, liveness.WINDOW):
                    fail = kernel.failing(lo, min(lo + liveness.WINDOW, total))
                    swept |= {lo + j for j in range(fail.bit_length()) if fail >> j & 1}
                machines = enumerate_transducers(k, g.alphabet1, g.alphabet2)
                oracle = {
                    o for o, t in enumerate(machines)
                    if liveness._scan_machine(g, t) is not None
                }
                assert swept == oracle
                failures += len(oracle)
        assert failures > 100

    def test_verdict_witness_and_count_match(self, monkeypatch):
        monkeypatch.setattr(liveness, "WINDOW", 7)
        for g in self._arenas():
            for k in (1, 2):
                live, w, examined = self._one_by_one(g, k)
                v = check_k_live(g, k)
                assert v.live == live
                assert v.witness == w
                assert v.stats.transducers_examined == examined
                # windows run up to the one holding the witness
                stop = count(k, AB, g.alphabet2)
                if w is not None:
                    stop = canonical_ordinal(w.transducer) + 1
                assert v.stats.windows == -(-stop // 7)


class TestVerifyWitness:
    def _not_live(self):
        g = trap_game()
        verdict = check_k_live(g, 1)
        assert verdict.live is False
        return g, verdict.witness

    def test_emitted_witness_verifies(self):
        g, w = self._not_live()
        assert verify_witness(g, 1, w)

    def test_mutated_alpha_fails(self):
        g, w = self._not_live()
        # flip the first player-1 action to something the machine never plays
        alpha = ("a",) + tuple(w.alpha[1:]) if w.alpha and w.alpha[0] == "b" else ("b",) + tuple(w.alpha[1:])
        bad = LivenessWitness(w.transducer, alpha, w.position)
        assert not verify_witness(g, 1, bad)

    def test_live_game_position_fails(self):
        g = paradise_game()
        t = Transducer(AB, XY, ("a",), ((0, 0),))
        fake = LivenessWitness(t, (), (g.initial, 0))
        assert not verify_witness(g, 1, fake)

    def test_wrong_k_fails(self):
        g, w = self._not_live()
        assert not verify_witness(g, 2, w)


class TestWordMembership:
    def test_single_action_constant_machine(self):
        t = word_in_Ak(Word(("a",)), 1, AB, XY)
        assert t is not None
        assert t.k == 1 and t.labels == ("a",)

    def test_first_in_enumeration_order(self):
        w = Word(("a", "x", "b"))
        t = word_in_Ak(w, 2, AB, XY)
        expected = next(
            m for m in enumerate_transducers(2, AB, XY) if agrees(w, m)
        )
        assert t == expected

    def test_three_residuals_need_three_states(self):
        # outputs of a three-state cycle on x: a b a a b a ...
        w = Word(("a", "x", "b", "x", "a", "x", "a", "x", "b", "x", "a"))
        assert word_in_Ak(w, 2, ("a", "b"), ("x",)) is None
        t3 = word_in_Ak(w, 3, ("a", "b"), ("x",))
        assert t3 is not None and agrees(w, t3)
        # cross-check the negative against the raw enumeration
        assert not any(agrees(w, t) for t in enumerate_transducers(2, ("a", "b"), ("x",)))

    def test_lasso_word(self):
        w = Word((), ("a", "x", "b", "x"))
        t = word_in_Ak(w, 2, ("a", "b"), ("x",))
        assert t is not None and agrees(w, t)
        assert word_in_Ak(w, 1, ("a", "b"), ("x",)) is None

    def test_random_generated_words_are_members(self):
        rng = random.Random(24)
        for _ in range(30):
            k = rng.randrange(1, 4)
            t = from_ordinal(rng.randrange(count(k, AB, XY)), k, AB, XY)
            state = t.initial
            actions = []
            for _ in range(rng.randrange(0, 6)):
                actions.append(t.labels[state])
                b = rng.choice(XY)
                actions.append(b)
                state = t.step(state, b)
            actions.append(t.labels[state])
            found = word_in_Ak(Word(tuple(actions)), k, AB, XY)
            assert found is not None
            assert agrees(Word(tuple(actions)), found)

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_agreeing_machine_of_the_enumeration(self, k):
        outputs, inputs = ("a", "b", "c"), XY
        machines = list(enumerate_transducers(k, outputs, inputs))
        rng = random.Random(k)
        kinds = {"finite": 0, "lasso": 0, "none": 0}
        for _ in range(150):
            prefix = []
            for _ in range(rng.randrange(0, 4)):
                prefix += [rng.choice(outputs), rng.choice(inputs)]
            if rng.random() < 0.5:
                w = Word(tuple(prefix) + (rng.choice(outputs),))
            else:
                cycle = []
                for _ in range(rng.randrange(1, 3)):
                    cycle += [rng.choice(outputs), rng.choice(inputs)]
                w = Word(tuple(prefix), tuple(cycle))
            expected = next((t for t in machines if agrees(w, t)), None)
            assert word_in_Ak(w, k, outputs, inputs) == expected
            kinds["none" if expected is None else "finite" if w.finite else "lasso"] += 1
        assert min(kinds.values()) > 0, kinds

    def test_alphabet_validation(self):
        with pytest.raises(GameError):
            word_in_Ak(Word(("zzz",)), 1, AB, XY)

    @staticmethod
    def _long_robot_word(rounds):
        """A finite word of `rounds` rounds played by robot(2) machine 14530
        against inputs drawn from stay, fwd and back."""
        g = robot_scenario(2)
        t = from_ordinal(14530, 2, g.alphabet1, g.alphabet2)
        rng = random.Random(rounds)
        state, actions = t.initial, []
        for _ in range(rounds):
            b = rng.choice(g.alphabet2[:3])
            actions += [t.labels[state], b]
            state = t.step(state, b)
        actions.append(t.labels[state])
        return g, Word(tuple(actions))

    def test_long_word_returns_first_machine(self):
        g, w = self._long_robot_word(5000)
        t = word_in_Ak(w, 2, g.alphabet1, g.alphabet2)
        expected = next(
            m for m in enumerate_transducers(2, g.alphabet1, g.alphabet2) if agrees(w, m)
        )
        assert t == expected

    def test_long_word_search_result(self):
        # at k=3 there are 1,793,613,375 machines, above DEFAULT_CAP, so the
        # search's own machine is returned; pinned to the one it found
        g, w = self._long_robot_word(5000)
        assert count(3, g.alphabet1, g.alphabet2) > liveness.DEFAULT_CAP
        t = word_in_Ak(w, 3, g.alphabet1, g.alphabet2)
        assert agrees(w, t)
        assert canonical_ordinal(t) == 1004954931


class TestCompletenessSample:
    def test_live_games_have_all_sampled_words_extendable(self):
        """On a live game, every short word agreeing with some machine leads
        to a position from which that machine's product is still winnable."""
        g = complete(paradise_game())
        k = 1
        assert check_k_live(g, k).live
        from tgames import build_product, p2_winning_positions

        for t in enumerate_transducers(k, g.alphabet1, g.alphabet2):
            prod = build_product(g, t)
            win, _ = p2_winning_positions(prod)
            # walk every on-policy path to depth 2*n*k
            frontier = {prod.initial}
            for _ in range(2 * g.n * k):
                nxt = set()
                for (u, m) in frontier:
                    assert (u, m) in win
                    if g.vertices[u].owner == 1:
                        nxt.add((g.edges[(u, t.labels[m])], m))
                    else:
                        for b in g.alphabet2:
                            nxt.add((g.edges[(u, b)], t.step(m, b)))
                frontier = nxt
