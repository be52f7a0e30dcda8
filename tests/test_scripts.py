"""Smoke runs of the experiment scripts, which use the public package API.

conftest.py puts the source tree on PYTHONPATH for the child processes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scaling_experiment.py", "--mode", "tdma", "--m", "2,3,4", "--beta", "2",
         "--trials", "4", "--sample-size", "2"],
        ["scaling_experiment.py", "--mode", "hier", "--m", "2,3,4", "--beta", "2",
         "--trials", "4", "--sample-size", "2"],
        ["capacity_oracles.py", "2"],
    ],
    ids=["scaling_experiment.py-tdma", "scaling_experiment.py-hier", "capacity_oracles.py"],
)
def test_experiment_script_runs(argv):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
