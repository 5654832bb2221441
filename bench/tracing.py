"""Spans around calls into the tgames layers, recorded from outside the package.

The tracer replaces public functions at the module attribute through which
their caller reaches them (``tgames.liveness.build_product`` is the name
`check_k_live` looks up, ``tgames.synthesis.build_product`` the one the
adaptive controller looks up) and puts every original back in `restore`.
Each span records its kind, start, end, parent span and instance id.  Self
times and result counts are aggregated as spans close, so the per-layer
numbers need no second pass over the span list.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span kind); a dotted attribute names a method on a class
TARGETS = (
    ("tgames.liveness", "check_k_live", "liveness.check_k_live"),
    ("tgames.liveness", "build_product", "product.build_product"),
    ("tgames.liveness", "reachable_positions", "product.reachable_positions"),
    ("tgames.liveness", "p2_winning_positions", "product.p2_winning_positions"),
    ("tgames.liveness", "enumerate_transducers", "transducers.enumerate"),
    ("tgames.synthesis", "solve_bounded", "synthesis.solve_bounded"),
    ("tgames.synthesis", "adaptive_controller", "synthesis.adaptive_controller"),
    ("tgames.synthesis", "simulate", "synthesis.simulate"),
    ("tgames.synthesis", "build_product", "product.build_product"),
    ("tgames.synthesis", "reachable_positions", "product.reachable_positions"),
    ("tgames.synthesis", "winning_lasso", "product.winning_lasso"),
    ("tgames.synthesis", "make_game", "graphs.make_game"),
    ("tgames.synthesis", "solve_parity", "solvers.solve_parity"),
    ("tgames.synthesis", "enumerate_transducers", "transducers.enumerate"),
    ("tgames.product", "make_game", "graphs.make_game"),
    ("tgames.product", "solve_one_player", "solvers.solve_one_player"),
    ("tgames.product", "ProductGame.solution", "product.solution"),
    ("tgames.reductions", "cnf_to_game", "reductions.generate"),
    ("tgames.reductions", "qbf_to_game", "reductions.generate"),
    ("tgames.reductions", "robot_scenario", "reductions.generate"),
    ("tgames.gameio", "parse_game", "gameio.parse_game"),
    ("tgames.gameio", "serialize_game", "gameio.serialize_game"),
)

SETUP = "setup"  # instance id of spans recorded while building the inputs
_END = object()

# generator functions: each `next` on the returned generator is one span
GENERATORS = frozenset({"transducers.enumerate"})

# span kind -> per-layer self-time metric (every kind has exactly one, so
# the self times of all spans plus the untraced gaps add up to the wall time)
SELF_METRIC = {
    "liveness.check_k_live": "liveness.check_self_s",
    "synthesis.solve_bounded": "synthesis.solve_bounded_self_s",
    "synthesis.adaptive_controller": "synthesis.controller_init_s",
    "synthesis.simulate": "synthesis.simulate_self_s",
    "synthesis.next_action": "synthesis.next_action_self_s",
    "product.build_product": "product.build_self_s",
    "product.reachable_positions": "product.reachable_s",
    "product.p2_winning_positions": "product.solve_self_s",
    "product.winning_lasso": "product.solve_self_s",
    "product.solution": "product.solve_self_s",
    "graphs.make_game": "graphs.make_game_s",
    "solvers.solve_one_player": "solvers.one_player_s",
    "solvers.solve_parity": "solvers.parity_s",
    "transducers.enumerate": "transducers.enumerate_s",
    "reductions.generate": "reductions.generate_s",
    "gameio.parse_game": "gameio.parse_s",
    "gameio.serialize_game": "gameio.serialize_s",
}


# every per-layer metric with its unit, in the order they are reported
PER_LAYER = {
    "transducers.enumerate_s": "s",
    "transducers.machines": "count",
    "graphs.make_game_s": "s",
    "graphs.make_game_calls": "count",
    "graphs.vertices_built": "count",
    "product.build_self_s": "s",
    "product.builds": "count",
    "product.positions_built": "count",
    "product.reachable_s": "s",
    "product.solve_self_s": "s",
    "solvers.one_player_s": "s",
    "solvers.one_player_calls": "count",
    "solvers.parity_s": "s",
    "solvers.parity_calls": "count",
    "solvers.parity_vertices": "count",
    "liveness.check_self_s": "s",
    "liveness.machines_examined": "count",
    "liveness.machines_per_s": "1/s",
    "liveness.witnesses": "count",
    "synthesis.solve_bounded_self_s": "s",
    "synthesis.belief_positions": "count",
    "synthesis.positions_per_s": "1/s",
    "synthesis.controller_init_s": "s",
    "synthesis.simulate_self_s": "s",
    "synthesis.next_action_self_s": "s",
    "synthesis.moves": "count",
    "synthesis.hypothesis_switches": "count",
    "synthesis.products_per_move": "ratio",
    "gameio.parse_s": "s",
    "gameio.serialize_s": "s",
    "reductions.generate_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.outside_s": "s",
}


def _count(counts: Counter, kind: str, args: tuple, result) -> None:
    """Work done, read from the arguments and return values of a call."""
    if kind == "product.build_product":
        counts["product.builds"] += 1
        counts["product.positions_built"] += len(result.positions)
    elif kind == "graphs.make_game":
        counts["graphs.make_game_calls"] += 1
        counts["graphs.vertices_built"] += result.n
    elif kind == "solvers.solve_one_player":
        counts["solvers.one_player_calls"] += 1
    elif kind == "solvers.solve_parity":
        counts["solvers.parity_calls"] += 1
        counts["solvers.parity_vertices"] += args[0].n
    elif kind == "transducers.enumerate":
        counts["transducers.machines"] += 1
    elif kind == "liveness.check_k_live":
        counts["liveness.machines_examined"] += result.stats.transducers_examined
        counts["liveness.witnesses"] += result.witness is not None
    elif kind == "synthesis.solve_bounded":
        counts["synthesis.belief_positions"] += result.positions
    elif kind == "synthesis.simulate":
        counts["synthesis.moves"] += result.steps
        ordinals = [r.ordinal for r in result.hypothesis_log]
        counts["synthesis.hypothesis_switches"] += sum(
            a != b for a, b in zip(ordinals, ordinals[1:])
        )


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while `instance` is set; calls made with `instance`
    None (output checks) run the original code untraced."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.span_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.instance = None
        self._stack: list[list] = []  # [span index, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, kind: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((kind, 0.0, 0.0, parent, self.instance))
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def _close(self, kind: str) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (kind, start, end, self.spans[index][3], self.instance)
        self.self_time[kind] += duration - child
        self.span_time[kind] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, kind: str, fn):
        """`fn` with a span of `kind` around each call made while an
        instance is set."""

        def call(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(kind)
            _count(self.counts, kind, args, result)
            return result

        def generate(*args, **kwargs):
            if self.instance is None:
                yield from fn(*args, **kwargs)
                return
            it = fn(*args, **kwargs)
            while True:
                self._open(kind)
                try:
                    item = next(it, _END)
                finally:
                    self._close(kind)
                if item is _END:
                    return
                _count(self.counts, kind, args, item)
                yield item

        return generate if kind in GENERATORS else call

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for module, attr, kind in TARGETS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self.wrap(kind, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every `PER_LAYER` metric: self times and counts over the timed
        calls, rates, and the traced and untraced wall times of the same
        instances.  `trace.outside_s` is the part of `traced_wall` that no
        span covers."""
        out: dict[str, float] = {m: 0 for m in PER_LAYER}
        for kind, value in self.self_time.items():
            out[SELF_METRIC[kind]] += value
        out.update(self.counts)
        c, span = self.counts, self.span_time
        out["liveness.machines_per_s"] = _ratio(
            c["liveness.machines_examined"], span["liveness.check_k_live"]
        )
        out["synthesis.positions_per_s"] = _ratio(
            c["synthesis.belief_positions"], span["synthesis.solve_bounded"]
        )
        out["synthesis.products_per_move"] = _ratio(
            c["product.builds"], c["synthesis.moves"]
        )
        top = sum(
            end - start
            for _k, start, end, parent, inst in self.spans
            if parent == -1 and inst != SETUP
        )
        out["trace.outside_s"] = traced_wall - top
        out["trace.wall_s"] = traced_wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def current_targets() -> list[object]:
    """The objects now bound at every target attribute, in `TARGETS` order."""
    return [getattr(*_resolve(m, a)) for m, a, _k in TARGETS]
