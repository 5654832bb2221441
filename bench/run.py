"""tgames benchmark: one command, three seeded workloads, checked outputs.

    python3 bench/run.py --workload sweep-cnf --seed 1 --seconds 30 --trace 0

Workloads (inputs drawn from --seed; the program sees only arenas and
machines):

  sweep-cnf     check_k_live(g, 3) on random 3-variable CNF games; the
                verdict must match sat_brute_force and every not-live
                witness must pass verify_witness.
  belief-qbf    solve_bounded(g, 2) on a sample of the 575 one-pair formula
                games; the result must be decided and match qbf_brute_force.
  online-robot  a fresh adaptive_controller(robot_scenario(2), 2) plays
                each hidden 2-state machine; player 2 must win within
                steps_bound.

--seconds sets how much work a run does: each workload runs the instances
that took about that long at the baseline commit, so every commit does the
same work.  With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 a traced run gives the per-layer metrics, timing the same
instances first untraced and then traced to report the tracing overhead.

The set-up time is the median over five fresh processes: four that stop at
the first timed call, then the one that runs the workload.  A fixed
pure-Python loop is timed before and after the run to show how fast the
machine was; it is reported next to the metrics and never used to rescale
them.  The second-to-last line holds run details; the last line is
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 if any
instance failed and 2 if the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-cnf", "belief-qbf", "online-robot")
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s; stop waiting for workers here

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "response_p50_ms": "ms",
    "response_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of machine speed.  It
    hashes and allocates like the workloads do; a loop of integer arithmetic
    alone did not follow their slow phases.  The table stays small: a worker
    started later inherits this process's peak resident size in its
    ru_maxrss."""
    t = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[(i * 7919) % 1_009, i & 7] = frozenset((i, i >> 3))
    return time.perf_counter() - t


def worker(args, deadline: float, *extra: str) -> dict:
    """Run bench/worker.py in a fresh interpreter; return its JSON line."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="tgames benchmark", epilog="See the module docstring."
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tgames", "__init__.py")):
        print(f"no tgames package under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    calibration_before = calibrate()
    try:
        if args.trace:
            result = worker(args, deadline, "--trace")
        else:
            setups = [
                worker(args, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            result = worker(args, deadline)
            setups.append(result["metrics"]["setup_s"])
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 2
    calibration_after = calibrate()

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"worker reported no {', '.join(missing)}", file=sys.stderr)
        return 2
    failures = result.pop("failures")
    result["calibration_s"] = {
        "before": calibration_before, "after": calibration_after
    }
    result["failures"] = failures[:20]
    metrics = result.pop("metrics")
    print(json.dumps(result))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
