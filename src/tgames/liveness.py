"""Deciding whether probing a bounded environment can ever be fatal.

A game is k-live when every finite word that some k-state machine could have
produced still extends to a play player 2 wins while the environment keeps
following some k-state machine.  `check_k_live` decides this by sweeping the
machine enumeration: for each machine it builds the restricted product and
demands that every position reachable from the initial one is winning for
player 2.  A single reachable losing position yields a counterexample
(machine, access word, position) that `verify_witness` re-checks from
scratch.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graphs import GameError, GameGraph, Word
from .product import ProductGame, build_product, p2_winning_positions, reachable_positions
from .solvers import _bfs_path
from .transducers import (
    Transducer,
    agrees,
    count,
    dedupe_behavioral,
    enumerate_transducers,
)

DEFAULT_CAP = 10_000_000


@dataclass
class LivenessWitness:
    transducer: Transducer
    alpha: tuple[str, ...]
    position: tuple[int, int]  # (base vertex id, machine state)

    def position_name(self, g: GameGraph) -> str:
        vid, m = self.position
        return f"({g.vertices[vid].name},{m})"


@dataclass
class LivenessStats:
    transducers_examined: int = 0
    wall_time: float = 0.0


@dataclass
class LivenessVerdict:
    live: Optional[bool]  # None: undecided, machine count above the cap
    witness: Optional[LivenessWitness] = None
    stats: LivenessStats = field(default_factory=LivenessStats)

    @property
    def undecided(self) -> bool:
        return self.live is None


def _access_word(p: ProductGame, target: tuple[int, int]) -> tuple[str, ...]:
    """Shortest action path from the initial position to `target`; ties are
    broken by alphabet order.  Never passes through the deviation paradise
    (it is absorbing), so the word automatically agrees with the machine."""
    found = _bfs_path(p.graph, p.graph.initial, {p.positions[target]})
    if found is None:
        raise GameError("internal error: losing position not reachable")
    steps, _goal = found
    return tuple(a for _v, a in steps)


def _scan_machine(g: GameGraph, t: Transducer) -> Optional[LivenessWitness]:
    prod = build_product(g, t)
    win, _ = p2_winning_positions(prod)
    for pos in reachable_positions(prod):
        if pos not in win:
            return LivenessWitness(t, _access_word(prod, pos), pos)
    return None


def _scan_chunk(args) -> Optional[tuple[int, dict]]:
    g, k, lo, hi = args
    for ordinal, t in enumerate(
        enumerate_transducers(k, g.alphabet1, g.alphabet2, lo, hi), start=lo
    ):
        w = _scan_machine(g, t)
        if w is not None:
            return ordinal, {
                "labels": w.transducer.labels,
                "trans": w.transducer.trans,
                "alpha": w.alpha,
                "position": w.position,
            }
    return None


def check_k_live(
    g: GameGraph,
    k: int,
    dedupe: bool = False,
    jobs: int = 1,
    cap: int = DEFAULT_CAP,
    deterministic: bool = True,
    force: bool = False,
) -> LivenessVerdict:
    """Sweep all k-state machines; not-live as soon as one admits a
    reachable position that player 2 loses under the arena's objective.

    A machine count above `cap` yields an undecided verdict instead of a
    silent multi-day run, unless `force` is set.  `dedupe` restricts the
    sweep to one machine per behavior class (the verdict only depends on
    induced strategies, so this is safe); `jobs` spreads ordinal chunks over
    worker processes.  The sweep runs sequentially, whatever `jobs` says,
    when `dedupe` is set or there are at most 64 machines.
    """
    if k < 1:
        raise GameError("k must be >= 1")
    if not g.is_total():
        raise GameError("check_k_live requires a total arena (run complete first)")
    started = time.perf_counter()
    total = count(k, g.alphabet1, g.alphabet2)
    stats = LivenessStats()
    if total > cap and not force:
        stats.wall_time = time.perf_counter() - started
        return LivenessVerdict(live=None, stats=stats)

    if jobs > 1 and not dedupe and total > 64:
        verdict = _check_parallel(g, k, total, jobs, deterministic, stats)
        stats.wall_time = time.perf_counter() - started
        return verdict

    stream = enumerate_transducers(k, g.alphabet1, g.alphabet2)
    if dedupe:
        stream = dedupe_behavioral(stream)
    for t in stream:
        stats.transducers_examined += 1
        w = _scan_machine(g, t)
        if w is not None:
            stats.wall_time = time.perf_counter() - started
            return LivenessVerdict(live=False, witness=w, stats=stats)
    stats.wall_time = time.perf_counter() - started
    return LivenessVerdict(live=True, stats=stats)


def _check_parallel(g, k, total, jobs, deterministic, stats) -> LivenessVerdict:
    chunk = max(1, min(4096, (total + 4 * jobs - 1) // (4 * jobs)))
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    results: dict[int, Optional[tuple]] = {}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {}
        it = iter(range(len(ranges)))
        for _ in range(min(jobs * 2, len(ranges))):
            i = next(it)
            pending[pool.submit(_scan_chunk, (g, k, *ranges[i]))] = i
        found: Optional[tuple[int, dict]] = None
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                i = pending.pop(fut)
                results[i] = fut.result()
                stats.transducers_examined += ranges[i][1] - ranges[i][0]
                if results[i] is not None:
                    cand = results[i]
                    if found is None or cand[0] < found[0]:
                        found = cand
            if found is not None and not deterministic:
                break
            if found is not None and deterministic:
                # stop once every chunk before the candidate is resolved clean
                lo_chunks = [i for i, r in enumerate(ranges) if r[0] < found[0]]
                if all(i in results for i in lo_chunks):
                    break
            for _ in range(len(done)):
                i = next(it, None)
                if i is None:
                    break
                pending[pool.submit(_scan_chunk, (g, k, *ranges[i]))] = i
        for fut in pending:
            fut.cancel()
    if found is None:
        return LivenessVerdict(live=True, stats=stats)
    _ordinal, payload = found
    t = Transducer(g.alphabet1, g.alphabet2, payload["labels"], payload["trans"])
    return LivenessVerdict(
        live=False,
        witness=LivenessWitness(t, tuple(payload["alpha"]), tuple(payload["position"])),
        stats=stats,
    )


def verify_witness(g: GameGraph, k: int, w: LivenessWitness) -> bool:
    """Re-check a counterexample independently of how it was found: the
    access word must agree with the machine, replaying it in the product
    must land on the claimed position, and that position must be losing."""
    if w.transducer.k != k:
        return False
    try:
        if not agrees(Word(tuple(w.alpha)), w.transducer):
            return False
        prod = build_product(g, w.transducer)
        vid = prod.graph.initial
        for a in w.alpha:
            vid = prod.graph.step(vid, a)
        if prod.of_vertex.get(vid) != tuple(w.position):
            return False
        win, _ = p2_winning_positions(prod)
        return tuple(w.position) not in win
    except GameError:
        return False


def _observations(w: Word, k: int) -> list[tuple[tuple[str, ...], str]]:
    """(player-2 prefix, forced output) pairs a machine must reproduce."""
    if w.finite:
        actions = w.prefix
    else:
        # unroll far enough that any k-state machine agreeing with the
        # unrolled part repeats a (cycle position, state) pair
        reps = k + 1
        actions = w.prefix + w.cycle * reps
    obs = []
    for i in range(0, len(actions), 2):
        obs.append((actions[1:i:2], actions[i]))
    return obs


def word_in_Ak(
    w: Word,
    k: int,
    outputs: Sequence[str],
    inputs: Sequence[str],
    enumeration_cap: int = DEFAULT_CAP,
) -> Optional[Transducer]:
    """Some k-state machine agreeing with `w`, or None.

    Existence is decided by folding the word's input-prefix chain into at
    most k states (exhaustive backtracking over state assignments with
    forced-transition propagation).  When a machine exists the first one in
    enumeration order is returned, found by scanning the enumeration; if the
    machine space is above `enumeration_cap` the machine found by the search
    itself is returned instead.
    """
    outputs = tuple(outputs)
    inputs = tuple(inputs)
    obs = _observations(w, k)
    for sym in set(a for pre, out in obs for a in pre):
        if sym not in inputs:
            raise GameError(f"player-2 action {sym!r} outside the input alphabet")
    for _pre, out in obs:
        if out not in outputs:
            raise GameError(f"player-1 action {out!r} outside the output alphabet")

    # the observed prefixes form a chain; position i sees input chain[i-1]
    chain: list[str] = []
    required: dict[int, str] = {}
    for pre, out in obs:
        if len(pre) > len(chain):
            chain.extend(pre[len(chain) :])
        required[len(pre)] = out
    length = len(chain)

    found = _fold_chain(chain, required, length, k, outputs, inputs)
    if found is None:
        return None
    if count(k, outputs, inputs) <= enumeration_cap:
        for t in enumerate_transducers(k, outputs, inputs):
            if agrees(w, t):
                return t
        raise GameError("internal error: search found a machine, scan did not")
    return found


def _fold_chain(chain, required, length, k, outputs, inputs):
    """Assign a state to every chain position, merging under determinism."""
    labels: dict[int, str] = {0: required[0]} if 0 in required else {}
    trans: dict[tuple[int, str], int] = {}
    assign = [0] * (length + 1)
    used = 1

    def place(i: int, used: int) -> Optional[Transducer]:
        if i > length:
            label_row = tuple(labels.get(m, outputs[0]) for m in range(k))
            rows = tuple(
                tuple(trans.get((m, s), 0) for s in inputs) for m in range(k)
            )
            return Transducer(outputs, inputs, label_row, rows)
        prev = assign[i - 1]
        sym = chain[i - 1]
        forced = trans.get((prev, sym))
        candidates = [forced] if forced is not None else list(range(min(used + 1, k)))
        for state in candidates:
            new_state = forced is None and state == used and used < k
            req = required.get(i)
            if req is not None and state in labels and labels[state] != req:
                continue
            added_label = False
            if req is not None and state not in labels:
                labels[state] = req
                added_label = True
            if forced is None:
                trans[(prev, sym)] = state
            assign[i] = state
            result = place(i + 1, used + 1 if new_state else used)
            if result is not None:
                return result
            if forced is None:
                del trans[(prev, sym)]
            if added_label:
                del labels[state]
        return None

    if 0 in required and required[0] not in outputs:
        return None
    return place(1, used) if length >= 0 else None
