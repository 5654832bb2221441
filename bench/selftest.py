"""Self-test of the benchmark on a tiny instance of every workload.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json appears with its unit, that
the per-layer counts repeat exactly between two traced runs of one seed,
that the traced self times plus the untraced gaps add up to the traced wall
time, and that every wrapped tgames attribute is the original object again
after a traced run.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
from run import WORKLOADS  # noqa: E402

SECONDS = "0.1"  # one instance per workload
SETUP_METRICS = {"reductions.generate_s", "gameio.parse_s", "gameio.serialize_s"}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(result: dict, declared: list[dict], label: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from {want}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: run not correct: {result}")


def check_sum(result: dict, label: str) -> None:
    values = {n: m["value"] for n, m in result["metrics"].items()}
    timed = sorted(set(tracing.SELF_METRIC.values()) - SETUP_METRICS)
    total = sum(values[n] for n in timed) + values["trace.outside_s"]
    if abs(total - values["trace.wall_s"]) > 1e-6:
        raise AssertionError(
            f"{label}: self times + outside = {total}, traced wall {values['trace.wall_s']}"
        )


def check_restored(workload: str) -> None:
    before = tracing.current_targets()
    with contextlib.redirect_stdout(io.StringIO()):
        worker.main(["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                     "--t0", repr(time.monotonic()), "--trace"])
    after = tracing.current_targets()
    changed = [
        f"{m}.{a}" for (m, a, _k), x, y in zip(tracing.TARGETS, before, after)
        if x is not y
    ]
    if changed:
        raise AssertionError(f"{workload}: not restored: {changed}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    try:
        for w in WORKLOADS:
            check_units(bench(w, 0), spec["end_to_end"], f"{w} --trace 0")
            first, second = bench(w, 1), bench(w, 1)
            check_units(first, spec["per_layer"], f"{w} --trace 1")
            check_sum(first, w)
            diff = [n for n in counts
                    if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            if diff:
                raise AssertionError(f"{w}: counts differ between traced runs: {diff}")
            check_restored(w)
            print(f"selftest {w}: ok")
    except AssertionError as e:
        print(f"selftest failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
