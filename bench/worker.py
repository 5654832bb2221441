"""One benchmark process: build a workload's inputs from a seed, time the
calls into tgames, check every output, print one JSON line.

`run.py` starts this file in a fresh interpreter, so the set-up time covers
interpreter start, ``import tgames``, generating the instances with the
`reductions` generators and one `serialize_game`/`parse_game` round trip per
arena, the way the CLI reads games.  Oracle answers are computed during
set-up but their time is subtracted from it.

The loop is closed and single-threaded: each instance or play starts only
after the previous one returned.  Outputs are checked after each timed call,
outside the timed region; a wrong or raising instance is recorded as a
failure and the run goes on.

    python3 bench/worker.py --workload sweep-cnf --seed 1 --seconds 30 \\
        --t0 <time.monotonic() of the parent before it started this process>
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Each workload's inputs are a schedule of instance classes, cut to fit the
# requested seconds by the time each class took at the baseline commit.  The
# cut depends only on --seconds, never on measured speed, so a run does the
# same work on every commit and wall_s stays comparable.
#
# sweep-cnf: random 4-clause CNFs over 3 variables; three unsatisfiable
# (live, full sweep of 5,832 machines) per satisfiable one (early witness),
# so the median and the tail both fall among the full sweeps.  A sweep's
# time grows with the game, so the unsatisfiable ones come in equal numbers
# from three bands of game size (39-45, 47-49 and 51-53 vertices), holding
# about 30%, 40% and 30% of them.
CNF_SCHEDULE = (
    ("unsat-small", 1.25),
    ("unsat-mid", 1.35),
    ("unsat-large", 1.45),
    ("sat", 0.15),
)
CNF_CLAUSES = 4
# belief-qbf: each solve took about 33 ms; the sample is drawn with
# replacement from the 575 formulas of acceptance criterion 2a.
QBF_NOMINAL_S = 0.033
# online-robot: hidden 2-state machines from a fixed uniform sample of all
# 25,600, grouped by how many products a fresh controller built before it
# won against them at the baseline commit.  Uniform draws made the wall time
# and peak memory of a run differ up to 4x between seeds, depending on
# whether a deep scan was drawn; drawing one machine per group keeps the mix
# of every run the same.  Left out: the 18% of the sample in groups too
# small to draw from, scans of 16,000+ products with thousands of moves,
# which took 24-35 s each, and the 3,121- and 5,121-product groups.  The
# median move lies among the p1073 plays, so they are spread before and after
# the long p14370 scan: the machine's speed drifts over seconds, and a
# median taken from one stretch of the run followed that stretch.
ROBOT_SCHEDULE = (
    ("p1", 0.2),
    ("p1073", 2.2),
    ("p4145", 3.1),
    ("p1073", 2.2),
    ("p1073", 2.2),
    ("p14370", 12.0),
    ("p1073", 2.2),
    ("p1073", 2.2),
)
ROBOT_POOL = {
    # wins with the first hypotheses, 4-5 moves
    "p1": (211, 283, 299, 462, 517, 899, 1000, 1078, 1170, 1177, 1416, 2064,
           2074, 2195, 2445, 3237, 4276, 6074, 6135, 10517, 10815),
    # one new hypothesis and product per move, about 1,075 moves
    "p1073": (1691, 1811, 1853, 5189, 5355, 5540, 6224, 6300, 6320, 6376,
              6742, 6953, 7073, 7372, 7555, 8229, 8243, 11831, 11837, 11928,
              12191),
    # about 20 moves, one scan of about 4,000 products
    "p4145": (4505, 4661, 10097, 14554, 15156, 20691, 20720, 20818, 21682,
              22529, 23691, 24676, 24995, 25124, 25400, 25518, 25561),
    # under 30 moves, one scan of about 14,000 products (about 560 MB resident)
    "p14370": (14530, 14576, 14689, 15233, 22809, 22976, 23061, 23315, 23382),
}


def schedule(classes, seconds: float) -> list[str]:
    """Prefix of the repeated schedule whose nominal cost fits `seconds`
    (at least one entry)."""
    out, spent = [], 0.0
    for name, cost in itertools.cycle(classes):
        if out and spent + cost > seconds:
            return out
        out.append(name)
        spent += cost


class Setup:
    """Inputs of one run; `oracle_s` is the oracle time inside set-up."""

    def __init__(self):
        self.instances: list[tuple] = []
        self.oracle_s = 0.0

    def oracle(self, fn, arg):
        t = time.perf_counter()
        value = fn(arg)
        self.oracle_s += time.perf_counter() - t
        return value


def cnf_clause(rng: random.Random) -> tuple[int, ...]:
    variables = sorted(rng.sample((1, 2, 3), rng.choice((1, 2, 2, 3))))
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def one_pair_formulas(QbfFormula) -> list:
    """The 575 one-pair alternating formulas with at most three clauses."""
    lits = (1, -1, 2, -2)
    clauses = [c for r in (1, 2, 3, 4) for c in itertools.combinations(lits, r)]
    return [
        QbfFormula(1, cs)
        for r in (1, 2, 3)
        for cs in itertools.combinations(clauses, r)
    ]


def round_trip(gameio, g):
    return gameio.parse_game(gameio.serialize_game(g))


def make_inputs(workload: str, rng: random.Random, seconds: float) -> Setup:
    import tgames
    from tgames import gameio, reductions

    s = Setup()
    if workload == "sweep-cnf":
        wanted = schedule(CNF_SCHEDULE, seconds)
        pending = {c: wanted.count(c) for c in set(wanted)}
        drawn: dict[str, list] = {c: [] for c in pending}
        while any(pending.values()):
            phi = tgames.CnfFormula(
                3, tuple(cnf_clause(rng) for _ in range(CNF_CLAUSES))
            )
            if s.oracle(tgames.sat_brute_force, phi) is not None:
                cls, g = "sat", None
            else:
                g = reductions.cnf_to_game(phi)
                cls = ("unsat-small" if g.n <= 45
                       else "unsat-mid" if g.n <= 49 else "unsat-large")
            if pending.get(cls):
                pending[cls] -= 1
                drawn[cls].append(g if g is not None else reductions.cnf_to_game(phi))
        for cls in wanted:
            g = round_trip(gameio, drawn[cls].pop())
            s.instances.append((cls, g, cls != "sat"))
    elif workload == "belief-qbf":
        formulas = one_pair_formulas(tgames.QbfFormula)
        for psi in rng.choices(formulas, k=max(1, round(seconds / QBF_NOMINAL_S))):
            valid = s.oracle(tgames.qbf_brute_force, psi)
            g = round_trip(gameio, reductions.qbf_to_game(psi))
            s.instances.append((len(psi.clauses), g, valid))
    elif workload == "online-robot":
        g = round_trip(gameio, reductions.robot_scenario(2))
        bound = tgames.steps_bound(g.n, 2, g.alphabet1, g.alphabet2)
        for cls in schedule(ROBOT_SCHEDULE, seconds):
            ordinal = rng.choice(ROBOT_POOL[cls])
            hidden = tgames.from_ordinal(ordinal, 2, g.alphabet1, g.alphabet2)
            s.instances.append((cls, g, (ordinal, hidden, bound)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return s


class TimedController:
    """Forwards `snapshot` and `log` to the controller and times each
    `next_action`, which `simulate` calls once per move."""

    def __init__(self, controller, next_action, latencies: list):
        self.log = controller.log
        self.snapshot = controller.snapshot
        self._next = next_action
        self._latencies = latencies

    def next_action(self, observed: str) -> str:
        t = time.perf_counter()
        action = self._next(observed)
        self._latencies.append(time.perf_counter() - t)
        return action


def timed_call(workload: str, inst: tuple, latencies: list, tracer):
    """Run one instance through the public API; return (seconds, output)."""
    from tgames import liveness, synthesis

    _cls, g, expected = inst
    if workload == "sweep-cnf":
        t = time.perf_counter()
        verdict = liveness.check_k_live(g, 3)
        dt = time.perf_counter() - t
        latencies.append(dt)
        return dt, verdict
    if workload == "belief-qbf":
        t = time.perf_counter()
        result = synthesis.solve_bounded(g, 2)
        dt = time.perf_counter() - t
        latencies.append(dt)
        return dt, result
    _ordinal, hidden, bound = expected
    t = time.perf_counter()
    controller = synthesis.adaptive_controller(g, 2)
    step = controller.next_action
    if tracer is not None:
        step = tracer.wrap("synthesis.next_action", step)
    trace = synthesis.simulate(
        g, TimedController(controller, step, latencies), hidden, bound
    )
    return time.perf_counter() - t, trace


def check(workload: str, inst: tuple, output) -> str:
    """Failure text for a wrong output, "" for a correct one."""
    from tgames import liveness

    cls, g, expected = inst
    if workload == "sweep-cnf":
        if output.live is None or output.live != expected:
            return f"{cls}: verdict {output.live}, oracle {expected}"
        if not output.live and not liveness.verify_witness(g, 3, output.witness):
            return f"{cls}: witness rejected by verify_witness"
    elif workload == "belief-qbf":
        if output.p2_wins is None or output.p2_wins != expected:
            return f"{cls} clauses: p2_wins {output.p2_wins}, oracle {expected}"
    else:
        ordinal, _hidden, bound = expected
        if output.winner != 2 or output.steps > bound:
            return f"machine {ordinal}: winner {output.winner} after {output.steps} steps"
    return ""


def run_pass(workload: str, instances: list, tracer=None):
    """Run every instance once and check its output outside the timed call;
    with a tracer, spans carry the instance's index.  Returns the summed
    seconds of the timed calls, the response latencies and the failures."""
    wall = 0.0
    latencies: list[float] = []
    failures: list[str] = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = i
        try:
            dt, output = timed_call(workload, inst, latencies, tracer)
        except Exception as e:  # a raising instance is a failure; go on
            failures.append(f"{inst[0]}: {type(e).__name__}: {e}")
            continue
        finally:
            if tracer is not None:
                tracer.instance = None
        wall += dt
        failure = check(workload, inst, output)
        if failure:
            failures.append(failure)
    return wall, latencies, failures


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile with at
    least ten samples above it; the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import SETUP, Tracer

        tracer = Tracer()
        tracer.install()
        tracer.instance = SETUP
    # the traced run times half as many instances twice, untraced then traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        setup = make_inputs(args.workload, random.Random(args.seed), seconds)
    finally:
        if tracer is not None:
            tracer.instance = None
            tracer.restore()

    setup_s = time.monotonic() - args.t0 - setup.oracle_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wall, responses, failures = run_pass(args.workload, setup.instances)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": len(setup.instances),
        "classes": {c: [i[0] for i in setup.instances].count(c)
                    for c in sorted({i[0] for i in setup.instances}, key=str)},
        "attempted": len(setup.instances),
        "failures": failures,
    }
    if tracer is None:
        pct, tail_value = tail(responses)
        out["samples"] = len(responses)
        out["tail_percentile"] = pct
        out["metrics"] = {
            "setup_s": setup_s,
            "wall_s": wall,
            "response_p50_ms": statistics.median(responses) * 1e3,
            "response_tail_ms": tail_value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer.install()
        try:
            traced = run_pass(args.workload, setup.instances, tracer=tracer)
        finally:
            tracer.restore()
        out["attempted"] += len(setup.instances)
        out["failures"] += traced[2]
        out["metrics"] = tracer.layer_metrics(traced[0], wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
