"""The benchmark's own smoke test, run unmodified: it fails when a change to
src/ breaks any name the benchmark calls, not only the traced hook points."""

import subprocess
import sys

from conftest import REPO


def test_bench_smoke_test_passes():
    done = subprocess.run(
        [sys.executable, str(REPO / "bench" / "smoke_test.py")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
