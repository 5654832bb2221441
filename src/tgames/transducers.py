"""Finite-state environment models: Moore machines with labeled states.

A machine reads player-2 actions and outputs player-1 actions: the label of
the state reached so far is the next player-1 move.  The induced strategy of
a machine `t` maps a history to ``label(state after the history's player-2
actions)``.

The module also provides the canonical enumeration used everywhere a result
quantifies over "all k-state machines": states are {0..k-1} with initial
state 0, and the tuple (L(0),..,L(k-1), step(0,g1),..,step(k-1,g|Γ|)) is read
as mixed-radix digits, most significant first.  Label digits range over the
output alphabet in declared order, transition digits over state numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graphs import GameError, Word, check_alphabet


@dataclass(frozen=True)
class Transducer:
    outputs: tuple[str, ...]  # player-1 actions this machine emits
    inputs: tuple[str, ...]  # player-2 actions it reads
    labels: tuple[str, ...]  # state -> output symbol
    trans: tuple[tuple[int, ...], ...]  # trans[state][input index] -> state
    initial: int = 0

    def __post_init__(self):
        k = len(self.labels)
        if k < 1:
            raise GameError("a machine needs at least one state")
        if len(self.trans) != k or any(len(row) != len(self.inputs) for row in self.trans):
            raise GameError("transition table shape mismatch")
        if any(lbl not in self.outputs for lbl in self.labels):
            raise GameError("label outside the output alphabet")
        if any(t < 0 or t >= k for row in self.trans for t in row):
            raise GameError("transition target out of range")
        if not 0 <= self.initial < k:
            raise GameError("initial state out of range")

    @property
    def k(self) -> int:
        return len(self.labels)

    def step(self, state: int, symbol: str) -> int:
        try:
            return self.trans[state][self.inputs.index(symbol)]
        except ValueError:
            raise GameError(f"unknown input symbol {symbol!r}") from None

    def output(self, state: int) -> str:
        return self.labels[state]


def run(t: Transducer, inputs: Sequence[str]) -> tuple[int, tuple[str, ...]]:
    """Feed an input sequence; return the final state and the label after
    each consumed symbol.  The label before any input is ``t.output(t.initial)``."""
    state = t.initial
    outputs = []
    for sym in inputs:
        state = t.step(state, sym)
        outputs.append(t.labels[state])
    return state, tuple(outputs)


def induced_strategy(t: Transducer, history: Sequence[str]) -> str:
    """Next player-1 action after an alternating history ending on a
    player-2 action (or empty)."""
    if len(history) % 2 != 0:
        raise GameError("history must end after a player-2 action")
    state, _ = run(t, history[1::2])
    return t.labels[state]


def first_disagreement(w: Word, t: Transducer) -> Optional[int]:
    """Index of the first player-1 action in `w` that the machine would not
    produce, or None if `w` agrees with the machine.

    Lasso words are checked until a (cycle position, machine state) pair
    repeats, after which the behavior is periodic.
    """
    state = t.initial
    for idx, sym in enumerate(w.prefix):
        if idx % 2 == 0:
            if sym != t.labels[state]:
                return idx
        else:
            state = t.step(state, sym)
    if w.finite:
        return None
    # the cycle has even length, so action parity is the same on every pass;
    # once the machine state repeats at a cycle boundary the check is closed
    boundary_seen: set[int] = set()
    loops = 0
    while state not in boundary_seen:
        boundary_seen.add(state)
        for j, sym in enumerate(w.cycle):
            abs_idx = len(w.prefix) + loops * len(w.cycle) + j
            if abs_idx % 2 == 0:
                if sym != t.labels[state]:
                    return abs_idx
            else:
                state = t.step(state, sym)
        loops += 1
    return None


def agrees(w: Word, t: Transducer) -> bool:
    """Does every player-1 action of `w` equal the machine's forced output?"""
    return first_disagreement(w, t) is None


def _size(alphabet: Union[int, Sequence[str]]) -> int:
    return alphabet if isinstance(alphabet, int) else len(alphabet)


def count(k: int, outputs: Union[int, Sequence[str]], inputs: Union[int, Sequence[str]]) -> int:
    """Number of distinct k-state machines with fixed initial state 0:
    |outputs|**k * k**(k*|inputs|).  Exact (arbitrary precision)."""
    if k < 1:
        raise GameError("k must be >= 1")
    s, g = _size(outputs), _size(inputs)
    if s < 1 or g < 1:
        raise GameError("alphabets must be nonempty")
    return s**k * k ** (k * g)


def from_ordinal(
    ordinal: int, k: int, outputs: Sequence[str], inputs: Sequence[str]
) -> Transducer:
    total = count(k, outputs, inputs)
    if not 0 <= ordinal < total:
        raise GameError(f"ordinal {ordinal} out of range (count {total})")
    digits: list[int] = []
    rest = ordinal
    for _ in range(k * len(inputs)):
        rest, d = divmod(rest, k)
        digits.append(d)
    for _ in range(k):
        rest, d = divmod(rest, len(outputs))
        digits.append(d)
    digits.reverse()
    labels = tuple(outputs[d] for d in digits[:k])
    flat = digits[k:]
    trans = tuple(
        tuple(flat[m * len(inputs) : (m + 1) * len(inputs)]) for m in range(k)
    )
    return Transducer(tuple(outputs), tuple(inputs), labels, trans)


def canonical_ordinal(t: Transducer) -> int:
    """Inverse of `from_ordinal`; requires initial state 0."""
    if t.initial != 0:
        raise GameError("canonical ordinal is defined for initial state 0")
    value = 0
    for lbl in t.labels:
        value = value * len(t.outputs) + t.outputs.index(lbl)
    for row in t.trans:
        for tgt in row:
            value = value * t.k + tgt
    return value


def _digit_masks(lo: int, hi: int, weight: int, radix: int) -> list[int]:
    """For each value d of the ordinal digit `(o // weight) % radix`, the
    bits j of the window [lo, hi) whose ordinal lo + j has that digit.

    The digit is d on runs of `weight` ordinals, one run per period of
    `weight * radix`.  A period no longer than the window is repeated by
    multiplying one run with a repunit in base 2**period; a longer period
    meets the window in at most two runs, which are cut out directly.
    """
    width, period = hi - lo, weight * radix
    run = (1 << weight) - 1
    full = (1 << width) - 1
    masks = []
    if period <= width:
        off = lo % period
        periods = -(-(off + width) // period)
        repunit = ((1 << (period * periods)) - 1) // ((1 << period) - 1)
        for d in range(radix):
            masks.append(((run << (d * weight)) * repunit >> off) & full)
        return masks
    first = lo - lo % period
    for d in range(radix):
        mask = 0
        for start in (first + d * weight, first + period + d * weight):
            a, b = max(start, lo), min(start + weight, hi)
            if a < b:
                mask |= ((1 << (b - a)) - 1) << (a - lo)
        masks.append(mask)
    return masks


def machine_masks(
    k: int, outputs: Sequence[str], inputs: Sequence[str], lo: int, hi: int
) -> tuple[list[list[int]], list[list[list[int]]]]:
    """The machines of the ordinal window [lo, hi) as bit masks, bit j
    standing for machine lo + j.

    Returns (labels, steps): `labels[s][i]` holds the machines whose state
    s emits `outputs[i]`, and `steps[s][g][s2]` those that go from state s
    to s2 on `inputs[g]`.  The masks come from the periods of the ordinal
    digits, so no machine is built.
    """
    total = count(k, outputs, inputs)
    if not 0 <= lo < hi <= total:
        raise GameError("ordinal window out of bounds")
    n_out, n_in = len(outputs), len(inputs)
    trans_digits = k * n_in
    labels = [
        _digit_masks(lo, hi, k**trans_digits * n_out ** (k - 1 - s), n_out)
        for s in range(k)
    ]
    steps = [
        [
            _digit_masks(lo, hi, k ** (trans_digits - 1 - (s * n_in + g)), k)
            for g in range(n_in)
        ]
        for s in range(k)
    ]
    return labels, steps


class MachineSet:
    """Sets of (machine, state) pairs of the ordinal window [lo, hi), each
    one int in which bit s * width + j, width = hi - lo, stands for machine
    lo + j in state s.  No other code knows this layout.

    `start` holds every machine in its initial state 0, `offer(x)` maps
    each output to the pairs of x that emit it, and `step(x, b)` moves the
    pairs along input b, so `replay` leaves the machines that agree with a
    word, each in the state the word leaves it in.
    """

    def __init__(
        self, k: int, outputs: Sequence[str], inputs: Sequence[str], lo: int, hi: int
    ):
        labels, steps = machine_masks(k, outputs, inputs, lo, hi)
        self.lo, self.width, self.k = lo, hi - lo, k
        self.start = (1 << self.width) - 1
        slot = [s * self.width for s in range(k)]
        self._labels = {
            a: sum(labels[s][i] << slot[s] for s in range(k)) for i, a in enumerate(outputs)
        }
        # per input: (pairs of slice s that go to s2, offset of s, offset of s2)
        self._shifts = {
            b: [
                (steps[s][i][s2] << slot[s], slot[s], slot[s2])
                for s in range(k)
                for s2 in range(k)
                if steps[s][i][s2]
            ]
            for i, b in enumerate(inputs)
        }

    def offer(self, x: int) -> dict[str, int]:
        return {a: y for a, m in self._labels.items() if (y := x & m)}

    def step(self, x: int, b: str) -> int:
        y = 0
        for m, low, high in self._shifts[b]:
            y |= (x & m) >> low << high
        return y

    def replay(self, actions: Sequence[str]) -> int:
        """The pairs of `start` left by an alternating word, player-1
        outputs at even indices."""
        x = self.start
        for i, sym in enumerate(actions):
            x = x & self._labels[sym] if i % 2 == 0 else self.step(x, sym)
        return x

    def machines(self, x: int) -> int:
        """Bit j set when machine lo + j has a pair in x."""
        out = 0
        for s in range(self.k):
            out |= x >> (s * self.width)
        return out & self.start

    def pairs(self, x: int) -> frozenset[tuple[int, int]]:
        """The (ordinal, state) pairs of x."""
        out = []
        while x:
            j = (x & -x).bit_length() - 1  # lowest set bit
            out.append((self.lo + j % self.width, j // self.width))
            x &= x - 1
        return frozenset(out)


def enumerate_transducers(
    k: int,
    outputs: Sequence[str],
    inputs: Sequence[str],
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[Transducer]:
    """All k-state machines in strictly increasing ordinal order.

    `start`/`stop` select an ordinal interval, so disjoint chunks of the
    stream can be processed independently.
    """
    outputs = tuple(outputs)
    inputs = tuple(inputs)
    total = count(k, outputs, inputs)
    if stop is None:
        stop = total
    if start < 0 or stop > total:
        raise GameError("ordinal range out of bounds")
    if start == 0 and stop == total:
        width = k * len(inputs)
        for label_digits in itertools.product(range(len(outputs)), repeat=k):
            labels = tuple(outputs[d] for d in label_digits)
            for flat in itertools.product(range(k), repeat=width):
                trans = tuple(
                    tuple(flat[m * len(inputs) : (m + 1) * len(inputs)])
                    for m in range(k)
                )
                yield Transducer(outputs, inputs, labels, trans)
    else:
        for o in range(start, stop):
            yield from_ordinal(o, k, outputs, inputs)


def behavior_key(t: Transducer):
    """Canonical form of the machine's observable behavior.

    Restricts to states reachable from the initial one, merges states that
    are behaviorally equivalent (same label now and after every input), and
    renames states in breadth-first discovery order.  Two machines induce
    the same strategy iff their keys are equal.
    """
    reach = [t.initial]
    seen = {t.initial}
    i = 0
    while i < len(reach):
        m = reach[i]
        i += 1
        for gi in range(len(t.inputs)):
            nxt = t.trans[m][gi]
            if nxt not in seen:
                seen.add(nxt)
                reach.append(nxt)
    # Moore partition refinement on the reachable part
    block: dict[int, int] = {}
    label_ids: dict[str, int] = {}
    for m in reach:
        label_ids.setdefault(t.labels[m], len(label_ids))
        block[m] = label_ids[t.labels[m]]
    while True:
        sig_ids: dict[tuple, int] = {}
        new_block: dict[int, int] = {}
        for m in reach:
            sig = (block[m],) + tuple(
                block[t.trans[m][gi]] for gi in range(len(t.inputs))
            )
            sig_ids.setdefault(sig, len(sig_ids))
            new_block[m] = sig_ids[sig]
        stable = len(sig_ids) == len(set(block.values()))
        block = new_block
        if stable:
            break
    # quotient machine, states renamed in breadth-first discovery order
    order: list[int] = []  # one representative per block
    newid: dict[int, int] = {}

    def visit(m: int):
        if block[m] not in newid:
            newid[block[m]] = len(order)
            order.append(m)

    visit(t.initial)
    qi = 0
    while qi < len(order):
        m = order[qi]
        qi += 1
        for gi in range(len(t.inputs)):
            visit(t.trans[m][gi])
    labels = tuple(t.labels[m] for m in order)
    rows = tuple(
        tuple(newid[block[t.trans[m][gi]]] for gi in range(len(t.inputs)))
        for m in order
    )
    return labels, rows


def dedupe_behavioral(stream: Iterable[Transducer]) -> Iterator[Transducer]:
    """Keep the first machine of each behavioral-equivalence class."""
    seen = set()
    for t in stream:
        key = behavior_key(t)
        if key not in seen:
            seen.add(key)
            yield t


# directive -> argument count (0: one or more); only label and trans repeat
_DIRECTIVE_ARGS = {"transducer": 1, "inputs": 0, "outputs": 0, "init": 1, "label": 2, "trans": 3}


def parse_transducer(text: str) -> Transducer:
    k = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    init = 0
    seen: set[str] = set()
    labels: dict[int, str] = {}
    trans: dict[tuple[int, str], tuple[int, int]] = {}  # -> (target, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind, args = tok[0], tok[1:]
        if kind not in _DIRECTIVE_ARGS:
            raise GameError(f"line {lineno}: unknown directive {kind!r}")
        nargs = _DIRECTIVE_ARGS[kind]
        malformed = not args or (nargs and len(args) != nargs)
        if malformed or (kind == "transducer" and not args[0].startswith("k=")):
            raise GameError(f"line {lineno}: malformed {kind} line")
        if kind in seen:
            raise GameError(f"line {lineno}: second {kind} line")
        if kind not in ("label", "trans"):
            seen.add(kind)
        try:
            if kind == "transducer":
                k = int(args[0][2:])
            elif kind == "inputs":
                inputs = check_alphabet(args)
            elif kind == "outputs":
                outputs = check_alphabet(args)
            elif kind == "init":
                init = int(args[0])
            elif kind == "label":
                m = int(args[0])
                if m in labels:
                    raise GameError(f"second label line for state {m}")
                labels[m] = args[1]
            else:
                m, b = int(args[0]), args[1]
                if (m, b) in trans:
                    raise GameError(f"second trans line for state {m} input {b}")
                trans[(m, b)] = (int(args[2]), lineno)
        except ValueError:
            raise GameError(f"line {lineno}: malformed {kind} line") from None
        except GameError as e:
            raise GameError(f"line {lineno}: {e}") from None
    if k is None or not inputs or not outputs:
        raise GameError("missing transducer/inputs/outputs line")
    for (m, s), (_target, lineno) in trans.items():
        if not 0 <= m < k:
            raise GameError(f"line {lineno}: state {m} outside 0..{k - 1}")
        if s not in inputs:
            raise GameError(f"line {lineno}: input {s!r} not on the inputs line")
    if set(labels) != set(range(k)):
        raise GameError("label lines must cover states 0..k-1 exactly")
    missing = [(m, s) for m in range(k) for s in inputs if (m, s) not in trans]
    if missing:
        raise GameError(f"missing trans line for {missing[0]}")
    label_row = tuple(labels[m] for m in range(k))
    rows = tuple(tuple(trans[(m, s)][0] for s in inputs) for m in range(k))
    return Transducer(outputs, inputs, label_row, rows, init)


def serialize_transducer(t: Transducer) -> str:
    out = [f"transducer k={t.k}"]
    out.append("inputs " + " ".join(t.inputs))
    out.append("outputs " + " ".join(t.outputs))
    out.append(f"init {t.initial}")
    for m in range(t.k):
        out.append(f"label {m} {t.labels[m]}")
    for m in range(t.k):
        for gi, sym in enumerate(t.inputs):
            out.append(f"trans {m} {sym} {t.trans[m][gi]}")
    return "\n".join(out) + "\n"
