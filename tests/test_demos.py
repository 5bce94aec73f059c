"""Every bundled demo script runs to completion against the current src/, so
an API change that breaks one fails here."""

import os
import subprocess
import sys

import pytest

from conftest import DEMOS, REPO


@pytest.mark.parametrize("script", sorted(DEMOS.glob("demo_*.py")), ids=lambda p: p.name)
def test_demo_exits_0(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
