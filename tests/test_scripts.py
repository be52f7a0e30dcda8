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


@pytest.mark.parametrize("m", ["1,2,3", "0", "x"])
def test_scaling_experiment_rejects_m_below_2(m):
    # R_sum / (m log2 m) divides by zero at m = 1; the sweep is refused
    # before any point runs.
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_experiment.py"), "--m", m,
         "--trials", "4", "--sample-size", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    (err,) = [ln for ln in done.stderr.splitlines() if "error" in ln]
    assert err.startswith("scaling_experiment.py: error: argument --m:")
    assert "Traceback" not in done.stderr
