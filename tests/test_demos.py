"""Every demo script runs to completion against the package in src/,
under the -O or -OO flag the tests run under, if any."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = [f"-{'O' * sys.flags.optimize}"] if sys.flags.optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
