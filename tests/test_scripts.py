"""Smoke runs of the experiment scripts, which use the public package API.

conftest.py puts the source tree on PYTHONPATH for the child processes.
"""

import runpy
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
    ],
    ids=["scaling_experiment.py-tdma", "scaling_experiment.py-hier"],
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


def test_scaling_experiment_runs_blas_on_one_thread(monkeypatch, capsys):
    from qfmimo import harness

    calls = []
    monkeypatch.setattr(harness, "_openblas_setter", lambda: calls.append)
    for var in harness._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "argv", ["scaling_experiment.py", "--m", "2,3,4", "--beta", "2",
                                      "--trials", "4", "--sample-size", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "scaling_experiment.py"), run_name="__main__")
    assert exc.value.code == 0
    assert calls == [1]
    assert "log-log slope" in capsys.readouterr().out


def _run_scaling_experiment(monkeypatch, capsys, *argv):
    """Exit code, stdout and stderr of the scaling script run in this process."""
    monkeypatch.setattr(sys, "argv", ["scaling_experiment.py", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "scaling_experiment.py"), run_name="__main__")
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--trials", "0"], "argument --trials:"),
        (["--mode", "hier", "--epsilon", "1.5"], "argument --epsilon:"),
        (["--sample-size", "0"], "argument --sample-size:"),
        (["--workers", "0"], "argument --workers:"),
        (["--m", "4,8"], "argument --m:"),
        (["--m", "4,4,8"], "argument --m:"),
    ],
    ids=["trials", "epsilon", "sample_size", "workers", "two_points", "not_ascending"],
)
def test_scaling_experiment_rejects_bad_settings_before_any_point(
    monkeypatch, capsys, argv, names
):
    import qfmimo

    def refuse(*args, **kwargs):
        raise AssertionError("no point may run on invalid settings")

    monkeypatch.setattr(qfmimo, "run_sweep", refuse)
    code, out, err = _run_scaling_experiment(monkeypatch, capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = [ln for ln in err.splitlines() if "error" in ln]
    assert line.startswith("scaling_experiment.py: error: ")
    # The message names the setting the user gave.
    assert names in line


@pytest.mark.parametrize(
    "m, beta, done",
    [("2,3,4", "70", []), ("2,3,200", "8", ["2", "3"])],
    ids=["first_point", "last_point"],
)
def test_scaling_experiment_exits_3_when_a_point_fails(monkeypatch, capsys, m, beta, done):
    # 2**70 and 200**8 destinations need arrays larger than any address
    # space, so numpy refuses them without allocating; the points before
    # the failing one are still reported.
    code, out, err = _run_scaling_experiment(
        monkeypatch, capsys, "--m", m, "--beta", beta, "--trials", "4", "--sample-size", "2"
    )
    assert code == 3
    assert [ln.split()[0] for ln in out.splitlines()] == (["m", *done] if done else [])
    (line,) = err.splitlines()
    assert line.startswith(f"error: sweep point m={m.split(',')[len(done)]} failed: ")
