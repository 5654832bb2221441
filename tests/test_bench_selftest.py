"""The benchmark's own self-test passes against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import tgames

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_exits_zero():
    # the child interpreter imports the same tgames as this test run
    src = os.path.dirname(os.path.dirname(tgames.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=SELFTEST.parent.parent,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
