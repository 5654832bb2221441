import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgames import (
    GameError,
    Transducer,
    Word,
    agrees,
    behavior_key,
    canonical_ordinal,
    count,
    dedupe_behavioral,
    enumerate_transducers,
    first_disagreement,
    from_ordinal,
    induced_strategy,
    parse_transducer,
    run,
    serialize_transducer,
)
from tgames.transducers import MachineSet, machine_masks

AB = ("a", "b")
XY = ("x", "y")

TOGGLE = Transducer(AB, ("x",), ("a", "b"), ((1,), (0,)))
CONSTANT_A = Transducer(AB, XY, ("a",), ((0, 0),))


def random_transducer(rng, k, outputs=AB, inputs=XY):
    return from_ordinal(rng.randrange(count(k, outputs, inputs)), k, outputs, inputs)


class TestRun:
    def test_empty_input(self):
        state, outputs = run(TOGGLE, [])
        assert (state, outputs) == (0, ())
        assert TOGGLE.output(TOGGLE.initial) == "a"

    def test_constant_machine(self):
        _, outputs = run(CONSTANT_A, ["x", "y", "x"])
        assert outputs == ("a", "a", "a")

    def test_toggle_trace(self):
        assert run(TOGGLE, ["x", "x"]) == (0, ("b", "a"))

    def test_unknown_symbol(self):
        with pytest.raises(GameError):
            run(TOGGLE, ["z"])


class TestInducedStrategy:
    def test_empty_history(self):
        assert induced_strategy(TOGGLE, []) == "a"

    def test_constant(self):
        assert induced_strategy(CONSTANT_A, ["a", "x", "a", "y"]) == "a"

    def test_toggle_matches_run_tail(self):
        history = ["a", "x"]
        assert induced_strategy(TOGGLE, history) == "b"

    def test_odd_history_rejected(self):
        with pytest.raises(GameError):
            induced_strategy(TOGGLE, ["a"])


class TestAgreement:
    def test_single_matching_action(self):
        assert agrees(Word(("a",)), TOGGLE)

    def test_constant_disagrees_at_index(self):
        w = Word(("a", "x", "b", "y"))
        assert first_disagreement(w, CONSTANT_A) == 2

    def test_generated_words_agree(self):
        rng = random.Random(5)
        for _ in range(50):
            t = random_transducer(rng, rng.randrange(1, 4))
            state = t.initial
            actions = []
            for _ in range(rng.randrange(0, 8)):
                actions.append(t.labels[state])
                b = rng.choice(XY)
                actions.append(b)
                state = t.step(state, b)
            actions.append(t.labels[state])
            assert agrees(Word(tuple(actions)), t)

    def test_lasso_agreement(self):
        # constant machine against (a x)^w and (a x b x)^w
        assert agrees(Word((), ("a", "x")), CONSTANT_A)
        assert not agrees(Word((), ("a", "x", "b", "x")), CONSTANT_A)
        assert first_disagreement(Word((), ("a", "x", "b", "x")), CONSTANT_A) == 2

    def test_lasso_disagreement_beyond_first_pass(self):
        # three-cycle on input x: outputs a b a a b a ...; a two-cycle word
        # (a x b x)^w matches the first two outputs but not the third
        t3 = Transducer(AB, ("x",), ("a", "b", "a"), ((1,), (2,), (0,)))
        w = Word((), ("a", "x", "b", "x"))
        idx = first_disagreement(w, t3)
        assert idx == 6  # fourth player-1 action: word says b, machine says a

    def test_agreement_implies_run_reproduces(self):
        rng = random.Random(6)
        for _ in range(30):
            t = random_transducer(rng, 2)
            actions = []
            state = t.initial
            for _ in range(4):
                actions.append(t.labels[state])
                b = rng.choice(XY)
                actions.append(b)
                state = t.step(state, b)
            w = Word(tuple(actions))
            assert agrees(w, t)
            _, outs = run(t, list(w.prefix[1::2]))
            later_p1 = tuple(w.prefix[2::2])
            assert later_p1 == outs[: len(later_p1)]


class TestCount:
    def test_one_state(self):
        assert count(1, 2, 2) == 2

    def test_exhaustive_tally_2_2_2(self):
        assert count(2, AB, XY) == 64
        assert sum(1 for _ in enumerate_transducers(2, AB, XY)) == 64

    def test_exhaustive_tally_2_3_1(self):
        outs = ("a", "b", "c")
        assert count(2, outs, ("x",)) == 36
        assert sum(1 for _ in enumerate_transducers(2, outs, ("x",))) == 36

    def test_bad_arguments(self):
        with pytest.raises(GameError):
            count(0, 2, 2)


class TestEnumeration:
    def test_k1_yields_labels_in_order(self):
        ts = list(enumerate_transducers(1, ("p", "q", "r"), XY))
        assert [t.labels for t in ts] == [("p",), ("q",), ("r",)]

    def test_first_machine_is_all_zero(self):
        t = next(iter(enumerate_transducers(3, AB, XY)))
        assert t.labels == ("a", "a", "a")
        assert t.trans == ((0, 0), (0, 0), (0, 0))

    def test_pairwise_distinct_and_ordered(self):
        ts = list(enumerate_transducers(2, AB, XY))
        assert len({(t.labels, t.trans) for t in ts}) == 64
        assert [canonical_ordinal(t) for t in ts] == list(range(64))

    def test_range_splitting(self):
        whole = list(enumerate_transducers(2, AB, XY))
        lo = list(enumerate_transducers(2, AB, XY, 0, 20))
        hi = list(enumerate_transducers(2, AB, XY, 20, 64))
        assert [t.labels for t in lo + hi] == [t.labels for t in whole]
        assert [t.trans for t in lo + hi] == [t.trans for t in whole]

    def test_ordinal_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(100):
            k = rng.randrange(1, 4)
            t = random_transducer(rng, k)
            assert from_ordinal(canonical_ordinal(t), k, AB, XY) == t


class TestMachineMasks:
    @staticmethod
    def _check(k, outputs, inputs, lo, hi):
        labels, steps = machine_masks(k, outputs, inputs, lo, hi)
        for j in range(hi - lo):
            t = from_ordinal(lo + j, k, outputs, inputs)
            for s in range(k):
                for i, a in enumerate(outputs):
                    assert (labels[s][i] >> j & 1) == (t.labels[s] == a)
                for g in range(len(inputs)):
                    for s2 in range(k):
                        assert (steps[s][g][s2] >> j & 1) == (t.trans[s][g] == s2)
        assert all(m >> (hi - lo) == 0 for row in labels for m in row)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_masks_match_the_machines(self, k):
        outputs, inputs = ("a", "b", "c"), XY
        total = count(k, outputs, inputs)
        self._check(k, outputs, inputs, 0, total)
        rng = random.Random(k)
        for _ in range(6):
            lo = rng.randrange(total)
            for width in (1, 7, 100):
                self._check(k, outputs, inputs, lo, min(total, lo + width))

    def test_window_out_of_bounds(self):
        with pytest.raises(GameError):
            machine_masks(1, AB, XY, 0, count(1, AB, XY) + 1)
        with pytest.raises(GameError):
            machine_masks(1, AB, XY, 1, 1)


class TestMachineSet:
    @pytest.mark.parametrize("lo, hi", [(5, 37), (13, 64), (1, 2), (31, 33)])
    def test_pairs_after_replay_are_the_agreeing_machines(self, lo, hi):
        # windows that start neither at 0 nor at a multiple of their width
        machines = MachineSet(2, AB, XY, lo, hi)
        rng = random.Random(lo * 100 + hi)
        for _ in range(40):
            actions = []
            for _ in range(rng.randrange(0, 5)):
                actions += [rng.choice(AB), rng.choice(XY)]
            actions.append(rng.choice(AB))
            expected = set()
            for o in range(lo, hi):
                t = from_ordinal(o, 2, AB, XY)
                if agrees(Word(tuple(actions)), t):
                    expected.add((o, run(t, actions[1::2])[0]))
            belief = machines.replay(actions)
            assert machines.pairs(belief) == expected
            assert machines.machines(belief) == sum(1 << (o - lo) for o, _ in expected)

    def test_offer_and_step_follow_each_machine(self):
        machines = MachineSet(2, AB, XY, 3, 50)
        x = machines.start
        assert machines.pairs(x) == {(o, 0) for o in range(3, 50)}
        for a, pairs in machines.offer(x).items():
            assert machines.pairs(pairs) == {
                (o, 0) for o in range(3, 50) if from_ordinal(o, 2, AB, XY).labels[0] == a
            }
        moved = machines.pairs(machines.step(x, "y"))
        assert moved == {(o, from_ordinal(o, 2, AB, XY).step(0, "y")) for o in range(3, 50)}


class TestDedupe:
    def test_unreachable_permutation_collapses(self):
        # state 1 unreachable in both; they differ only there
        t1 = Transducer(AB, XY, ("a", "a"), ((0, 0), (1, 1)))
        t2 = Transducer(AB, XY, ("a", "b"), ((0, 0), (0, 1)))
        assert behavior_key(t1) == behavior_key(t2)
        kept = list(dedupe_behavioral([t1, t2]))
        assert kept == [t1]

    def test_dedupe_shrinks_but_preserves_strategies(self):
        everything = list(enumerate_transducers(2, AB, XY))
        kept = list(dedupe_behavioral(everything))
        assert len(kept) < 64
        # every dropped machine behaves like some survivor on all input
        # words of length <= k*k (enough to separate k-state machines)
        words = [()]
        for _ in range(4):
            words = [w + (s,) for w in words for s in XY] + words
        def table(t):
            return tuple(run(t, list(w))[1] for w in sorted(set(words)))
        surviving = {table(t) for t in kept}
        for t in everything:
            assert table(t) in surviving

    def test_minimization_is_behavior_exact(self):
        rng = random.Random(12)
        for _ in range(60):
            t1 = random_transducer(rng, rng.randrange(1, 4))
            t2 = random_transducer(rng, rng.randrange(1, 4))
            words = [()]
            for _ in range(9):
                words = [w + (s,) for w in words for s in XY][:512] + words
            same_key = behavior_key(t1) == behavior_key(t2)
            same_behavior = all(
                run(t1, list(w))[1] == run(t2, list(w))[1] for w in words[:200]
            )
            if same_key:
                assert same_behavior


class TestFormat:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            t = random_transducer(rng, rng.randrange(1, 4))
            assert parse_transducer(serialize_transducer(t)) == t

    def test_parse_errors(self):
        with pytest.raises(GameError):
            parse_transducer("transducer k=1\ninputs x\noutputs a\ninit 0\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_generated_play_always_agrees(data):
    k = data.draw(st.integers(1, 3))
    ordinal = data.draw(st.integers(0, count(k, AB, XY) - 1))
    t = from_ordinal(ordinal, k, AB, XY)
    state = t.initial
    actions = []
    for _ in range(data.draw(st.integers(0, 6))):
        actions.append(t.labels[state])
        b = data.draw(st.sampled_from(XY))
        actions.append(b)
        state = t.step(state, b)
    assert agrees(Word(tuple(actions)), t)
