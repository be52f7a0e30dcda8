import io
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfmimo import (
    CSV_HEADER,
    ConfigError,
    NetworkParams,
    NumericalError,
    PowerLawFit,
    RatioFit,
    ScalingSeries,
    SweepFailure,
    SweepRow,
    derive_rng,
    fit_scaling,
    place_nodes,
    point_params,
    run_point,
    run_sweep,
    write_csv,
)
from qfmimo import harness
from qfmimo.cli import build_parser, load_config, main

FAST = dict(trials=16, sample_size=4)


def _fake_row(m: int, r_sum: float) -> SweepRow:
    return SweepRow(
        m=m,
        n=m**2,
        n1=1,
        n2_mean=float(m**2),
        mode="tdma",
        r_sum=r_sum,
        r_sum_stderr=0.0,
        r_upper=10.0 * r_sum,
        n_max=0.0,
        c_link_min=float("nan"),
        runtime_seconds=0.1,
        seed=m,
    )


# ---------------------------------------------------------------------------
# run_point
# ---------------------------------------------------------------------------


def test_run_point_deterministic_rows():
    p = NetworkParams(m=3, beta=2.0, seed=21, **FAST)
    assert run_point(p).row().to_csv() == run_point(p).row().to_csv()


def test_run_point_single_destination():
    p = NetworkParams(m=1, beta=1.0, seed=4, **FAST)
    res = run_point(p)
    assert res.n == 1
    assert res.report.r_sum == res.report.destinations[0].rate


def test_mode_changes_rates_not_geometry():
    tdma = NetworkParams(m=3, beta=2.0, seed=17, mode="tdma", **FAST)
    hier = NetworkParams(m=3, beta=2.0, seed=17, mode="hier", **FAST)
    a, b = run_point(tdma), run_point(hier)
    # identical geometry: same realization statistics and upper bound
    assert a.upper.value == b.upper.value
    assert a.upper.distance_sum == b.upper.distance_sum
    assert (a.n, a.n1, a.n2_mean) == (b.n, b.n1, b.n2_mean)
    assert a.report.r_sum != b.report.r_sum
    ra = place_nodes(tdma, derive_rng(tdma.seed, 0))
    rb = place_nodes(hier, derive_rng(hier.seed, 0))
    assert np.array_equal(ra.dest_pos, rb.dest_pos)


def test_exclusion_free_guard_warns_at_tiny_n():
    # With one destination the min distance can never beat the n**-1.1 guard.
    p = NetworkParams(m=1, beta=1.0, seed=0, exclusion_radius=0.0, **FAST)
    with pytest.warns(UserWarning):
        run_point(p)


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_ascending_and_reproducible():
    p = NetworkParams(beta=2.0, seed=31, **FAST)
    series = run_sweep(p, [2, 3, 4])
    assert [r.m for r in series.rows] == [2, 3, 4]
    # each row is reproducible from its own derived seed
    for row in series.rows:
        again = run_point(point_params(p, row.m))
        assert again.row().to_csv() == row.to_csv()
        assert again.params.seed == row.seed


def test_sweep_extension_preserves_existing_rows():
    p = NetworkParams(beta=2.0, seed=31, **FAST)
    short = run_sweep(p, [2, 4])
    longer = run_sweep(p, [2, 3, 4])
    by_m = {r.m: r.to_csv() for r in longer.rows}
    for row in short.rows:
        assert row.to_csv() == by_m[row.m]


def test_sweep_worker_count_does_not_change_rows():
    p = NetworkParams(beta=2.0, seed=13, **FAST)
    serial = run_sweep(p, [2, 3, 4], workers=1)
    parallel = run_sweep(p, [2, 3, 4], workers=3)
    assert [r.to_csv() for r in serial.rows] == [r.to_csv() for r in parallel.rows]


def test_sweep_rejects_bad_m_lists():
    p = NetworkParams(**FAST)
    with pytest.raises(ConfigError):
        run_sweep(p, [])
    with pytest.raises(ConfigError):
        run_sweep(p, [4, 2])
    with pytest.raises(ConfigError):
        run_sweep(p, [2, 2])
    with pytest.raises(ConfigError):
        run_sweep(p, [0, 2])


def test_sweep_flushes_partial_rows_on_failure(monkeypatch):
    import qfmimo.harness as harness

    real_run_point = harness.run_point
    p = NetworkParams(beta=2.0, seed=2, **FAST)
    # NumericalError is what run_point's finiteness guard raises; MemoryError
    # what numpy raises for a size too large for memory.
    for error in (
        ValueError("forced point failure"),
        NumericalError("non-finite output"),
        MemoryError("Unable to allocate 14.2 PiB"),
    ):

        def explode_on_m3(params, error=error):
            if params.m == 3:
                raise error
            return real_run_point(params)

        monkeypatch.setattr(harness, "run_point", explode_on_m3)
        with pytest.raises(SweepFailure) as exc:
            run_sweep(p, [2, 3, 4])
        assert [r.m for r in exc.value.partial.rows] == [2]
        assert "m=3" in str(exc.value)


def test_sweep_pool_capped_at_point_count(monkeypatch):
    import qfmimo.harness as harness

    pool_sizes = []

    class InProcessPool:
        # Records the pool size and maps in this process: no worker starts.
        def __init__(self, max_workers, initializer):
            pool_sizes.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    p = NetworkParams(beta=2.0, seed=13, **FAST)
    serial = [r.to_csv() for r in run_sweep(p, [2, 3, 4]).rows]
    assert pool_sizes == []
    for workers, size in ((8, 3), (100_000, 3), (2, 2)):
        rows = run_sweep(p, [2, 3, 4], workers=workers).rows
        assert pool_sizes.pop() == size
        assert [r.to_csv() for r in rows] == serial


def test_upper_bound_grows_with_m_on_this_seed():
    # Trend check on a fixed seed: more antennas -> larger cut-set bound.
    # (Not guaranteed at finite scale; the bound is a random quantity.)
    p = NetworkParams(beta=2.0, seed=1, **FAST)
    series = run_sweep(p, [2, 3, 4, 5, 6])
    upper = series.column("r_upper")
    assert np.all(np.diff(upper) >= 0)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_power_law_fit_recovers_exact_exponent():
    series = ScalingSeries(rows=[_fake_row(m, float(m) ** 2) for m in (2, 4, 8, 16)])
    fit = fit_scaling(series, "power_law")
    assert isinstance(fit, PowerLawFit)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_ratio_fit_flat_for_exact_m_log_m():
    series = ScalingSeries(
        rows=[_fake_row(m, 5.0 * m * math.log2(m)) for m in (2, 4, 8, 16)]
    )
    fit = fit_scaling(series, "m_log_m_ratio")
    assert isinstance(fit, RatioFit)
    assert fit.max_min_ratio == pytest.approx(1.0, rel=1e-12)
    assert fit.ratios == pytest.approx((5.0,) * 4)


def test_fit_rejects_nonpositive_rates():
    series = ScalingSeries(rows=[_fake_row(m, 0.0) for m in (2, 4, 8)])
    with pytest.raises(NumericalError):
        fit_scaling(series, "power_law")


def test_fit_rejects_short_series_and_bad_model():
    series = ScalingSeries(rows=[_fake_row(2, 1.0), _fake_row(4, 2.0)])
    with pytest.raises(ConfigError):
        fit_scaling(series, "power_law")
    with pytest.raises(ConfigError):
        fit_scaling(ScalingSeries(rows=[_fake_row(m, 1.0) for m in (2, 3, 4)]), "cubic")


def test_ratio_fit_needs_m_at_least_two():
    series = ScalingSeries(rows=[_fake_row(m, float(m)) for m in (1, 2, 4)])
    with pytest.raises(NumericalError):
        fit_scaling(series, "m_log_m_ratio")


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------


def test_csv_header_exact():
    assert (
        CSV_HEADER
        == "m,n,n1,n2_mean,mode,R_sum,R_sum_stderr,R_upper,N_max,C_link_min,runtime_s,seed"
    )


def test_csv_runtime_column_is_reproducibility_placeholder():
    p = NetworkParams(m=2, beta=2.0, seed=5, **FAST)
    res = run_point(p)
    assert res.runtime_seconds > 0.0
    fields = res.row().to_csv().split(",")
    assert len(fields) == 12
    assert fields[10] == "0.0"
    assert fields[0] == "2" and fields[-1] == "5"


def test_write_csv_layout():
    series = ScalingSeries(rows=[_fake_row(2, 1.5)])
    buf = io.StringIO()
    write_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("2,4,1,4.0,tdma,1.5,0.0,15.0,0.0,nan,0.0,")


# ---------------------------------------------------------------------------
# config file and CLI
# ---------------------------------------------------------------------------


def test_load_config_parses_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# profile\n"
        "m = 4\n"
        "beta=2.0\n"
        "exclusion-radius = 0.05  # hyphen form\n"
        "mode=hier\n"
        "sweep = 2,3,4\n"
    )
    values = load_config(str(cfg))
    assert values == {
        "m": "4",
        "beta": "2.0",
        "exclusion_radius": "0.05",
        "mode": "hier",
        "sweep": "2,3,4",
    }


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=4\nbogus=1\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))


def test_every_network_param_has_flag_and_config_key(tmp_path):
    # A NetworkParams field that gets no flag could be set from a config
    # file only, or not at all.
    params = fields(NetworkParams)
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{f.name}={f.default}\n" for f in params))
    assert load_config(str(cfg)) == {f.name: str(f.default) for f in params}
    parser = build_parser()
    for f in params:
        args = parser.parse_args([f"--{f.name.replace('_', '-')}", str(f.default)])
        assert getattr(args, f.name) == f.default


def test_cli_point_run_writes_csv(tmp_path):
    out = tmp_path / "point.csv"
    rc = main(
        ["--m", "2", "--beta", "2", "--trials", "8", "--sample-size", "2",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "2"


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nbeta=2.0\ntrials=8\nsample_size=2\nseed=3\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["--config", str(cfg), "--m", "3", "--out", str(out_b)]) == 0
    assert out_a.read_text().splitlines()[1].split(",")[0] == "2"
    assert out_b.read_text().splitlines()[1].split(",")[0] == "3"


def test_cli_invalid_configuration_exits_2(tmp_path):
    assert main(["--alpha", "1.5"]) == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key=1\n")
    assert main(["--config", str(cfg)]) == 2
    assert main(["--fit", "power_law"]) == 2  # fit needs a sweep
    assert main(["--sweep", "4,2"]) == 2
    assert main(["--workers", "0"]) == 2
    # Non-finite knobs used to run and write nan/inf rows with exit code 0.
    assert main(["--m", "4", "--beta", "2", "--mode", "hier", "--c2", "nan"]) == 2
    assert main(["--m", "4", "--beta", "2", "--p0", "inf"]) == 2
    assert main(["--beta", "nan"]) == 2


def test_cli_numerical_failure_exits_3(tmp_path):
    # Zero source power zeroes every rate; the fit then has no signal.
    out = tmp_path / "zero.csv"
    rc = main(
        ["--sweep", "2,3,4", "--p0", "0", "--beta", "2", "--trials", "8",
         "--sample-size", "2", "--fit", "power_law", "--out", str(out)]
    )
    assert rc == 3
    assert out.exists()  # CSV flushed before the fit failed
    # p1 * d**-alpha overflows, so co-active links get inf/inf = NaN SINRs.
    rc = main(["--m", "4", "--beta", "3", "--p1", "1e308", "--trials", "4",
               "--sample-size", "4", "--out", str(tmp_path / "nan.csv")])
    assert rc == 3
    # Finite but huge knobs overflow: R_sum=nan and R_upper=inf, R_sum=-inf,
    # R_upper=inf, and relay links of infinite capacity.  None may become a row.
    for flag in (["--p0", "1e308"], ["--p0", "1e300"], ["--alpha", "1000"], ["--p1", "1e308"]):
        rc = main(["--m", "3", "--beta", "2", "--trials", "4", "--sample-size", "3",
                   *flag, "--out", str(tmp_path / "huge.csv")])
        assert rc == 3, flag
    # Graded tall groups at p0 = 1e16: the m x m Gram drops the small
    # eigenvalues, so the rate would come out finite but percents low.
    rc = main(["--m", "4", "--beta", "3", "--trials", "4", "--sample-size", "3",
               "--p0", "1e16", "--seed", "1", "--out", str(tmp_path / "graded.csv")])
    assert rc == 3


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_cli_unwritable_out_exits_2_before_any_point(monkeypatch, tmp_path, capsys, target):
    import qfmimo.cli
    import qfmimo.harness

    def no_point(*args, **kwargs):
        raise AssertionError("run_point called")

    monkeypatch.setattr(qfmimo.harness, "run_point", no_point)
    monkeypatch.setattr(qfmimo.cli, "run_point", no_point)
    out = tmp_path / "missing" / "out.csv" if target == "missing_dir" else tmp_path
    for argv in (["--m", "2"], ["--sweep", "2,3"]):
        assert main([*argv, "--beta", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
    assert not (tmp_path / "missing").exists()


def _knob(low: float):
    # Moderate values reach exit 0; the wide range reaches overflow.
    return st.one_of(st.floats(low, 10.0), st.floats(low, 1e308))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    m=st.integers(1, 4),
    beta=st.floats(0.0, 2.5),
    trials=st.integers(1, 4),
    p0=_knob(0.0),
    p1=_knob(0.0),
    alpha=_knob(1.0),
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exit_code_property(tmp_path, m, beta, trials, p0, p1, alpha):
    # Every input is rejected (2), fails numerically (3) or gives a finite row
    # (0).  sample_size >= n evaluates every destination, so C_link_min is NaN
    # exactly when no destination has a relay, i.e. every group is a singleton.
    out = tmp_path / "prop.csv"
    out.unlink(missing_ok=True)
    rc = main(["--m", str(m), "--beta", repr(beta), "--trials", str(trials),
               "--p0", repr(p0), "--p1", repr(p1), "--alpha", repr(alpha),
               "--sample-size", "100", "--out", str(out)])
    assert rc in (0, 2, 3)
    if rc != 0:
        return
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    for column in ("n2_mean", "R_sum", "R_sum_stderr", "R_upper", "N_max", "runtime_s"):
        assert math.isfinite(float(row[column])), (column, row)
    c_link_min = float(row["C_link_min"])
    assert math.isfinite(c_link_min) or (math.isnan(c_link_min) and row["n1"] == row["n"])


def test_cli_sweep_with_fit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["--sweep", "2,3,4", "--beta", "2", "--trials", "8", "--sample-size", "2",
         "--seed", "11", "--fit", "power_law", "--out", str(out)]
    )
    assert rc == 0
    assert "fit power_law" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 4


def test_cli_csv_bytes_independent_of_blas_threads(tmp_path):
    # The sweep's Gram products take both the complex and the real rank-k
    # form; neither may let OpenBLAS's thread split reach the CSV.
    argv = [
        sys.executable, "-m", "qfmimo.cli", "--mode", "hier", "--beta", "2",
        "--q", "0.05", "--epsilon", "0.05", "--delta", "0.5", "--sweep", "8,16,32",
        "--trials", "20", "--sample-size", "4", "--seed", "3",
    ]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [*argv, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags",
    [["--m", "4", "--beta", "3", "--p1", "1e308"],
     ["--sweep", "3,4", "--beta", "2", "--p0", "1e308", "--workers", "2"],
     ["--m", "100000", "--beta", "3"],
     ["--m", "4", "--alpha", "1e300", "--sample-size", "64"]],
    ids=["point", "sweep_workers_2", "out_of_memory", "nan_capacity_matrix"],
)
def test_cli_numerical_failure_prints_only_its_error(tmp_path, flags):
    # Overflow on the way to a non-finite output is reported once, by the
    # error line, not also by numpy warnings; workers inherit the setting.
    # n = 10**15 destinations ask numpy for 14.2 PiB, more than any 47-bit
    # address space holds, so that allocation fails at once.  At alpha =
    # 1e300 whole capacity matrices are NaN, and the line gives only a count.
    done = subprocess.run(
        [sys.executable, "-m", "qfmimo.cli", "--trials", "4", "--sample-size", "4", *flags,
         "--out", str(tmp_path / "fail.csv")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ")


def test_cli_logs_stage_timings_outside_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--sweep", "2,3", "--beta", "2", "--seed", "5", "--out", str(out),
            "--trials", "8", "--sample-size", "2"]
    assert main(argv) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("point m=")]
    assert len(lines) == 2
    for line in lines:
        stages = dict(tok.split("=") for tok in line.split(") ")[1].split())
        assert list(stages) == ["place", "rate", "bound"]
        assert all(float(v.rstrip("s")) >= 0.0 for v in stages.values())
    # The CSV is the same bytes as rows that never carried timings.
    series = run_sweep(NetworkParams(beta=2.0, seed=5, trials=8, sample_size=2), [2, 3])
    assert all(set(row.timings) == {"place", "rate", "bound"} for row in series.rows)
    bare = io.StringIO()
    write_csv(ScalingSeries(rows=[replace(row, timings={}) for row in series.rows]), bare)
    assert out.read_bytes() == bare.getvalue().encode()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--sweep", "2,3", "--fit", "power_law"], ""),
        (["--sweep", "1,2,3", "--fit", "m_log_m_ratio"], ""),
        (["--sweep", "2,3,4"], "fit = cubic\n"),  # the flag's choices guard a file too
    ],
)
def test_cli_fit_preconditions_exit_2_before_any_point(monkeypatch, tmp_path, argv, config):
    # Too few sweep points, an m < 2 under m_log_m_ratio, or an unknown fit
    # model is a bad input: rejected with exit 2 before any point runs, and
    # no CSV is written.
    import qfmimo.cli
    import qfmimo.harness

    cfg = tmp_path / "fit.cfg"
    cfg.write_text(config)
    argv = [*argv, "--config", str(cfg)]

    calls = []

    def no_point(*args, **kwargs):
        calls.append(args)
        raise AssertionError("run_point called")

    monkeypatch.setattr(qfmimo.harness, "run_point", no_point)
    monkeypatch.setattr(qfmimo.cli, "run_point", no_point)
    out = tmp_path / "fit.csv"
    rc = main([*argv, "--trials", "2", "--sample-size", "2", "--beta", "2", "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert not out.exists()


def test_rate_stage_split_into_link_phase_and_gram(tmp_path, capsys):
    p = NetworkParams(m=3, beta=2.0, seed=5, trials=8, sample_size=4)
    timings = run_point(p).timings
    assert list(timings) == ["place", "rate", "bound", "link", "phase", "gram"]
    assert all(v >= 0.0 for v in timings.values())
    assert timings["link"] + timings["phase"] + timings["gram"] <= timings["rate"]
    out = tmp_path / "point.csv"
    assert main(["--m", "3", "--beta", "2", "--seed", "5", "--trials", "8",
                 "--sample-size", "4", "--out", str(out)]) == 0
    (line,) = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("point m=")]
    inner = line.split("(", 1)[1].split(")", 1)[0]
    parts = dict(tok.split("=") for tok in inner.split("in rate:")[1].split())
    assert list(parts) == ["link", "phase", "gram"]
    assert all(float(v.rstrip("s")) >= 0.0 for v in parts.values())
    # The CSV carries no clock: runtime_s stays the 0.0 placeholder.
    assert out.read_text().splitlines()[1].split(",")[-2] == "0.0"


@pytest.fixture
def no_point(monkeypatch):
    # Any point that runs fails the test.
    import qfmimo.cli
    import qfmimo.harness

    def no_point(*args, **kwargs):
        raise AssertionError("run_point called")

    monkeypatch.setattr(qfmimo.harness, "run_point", no_point)
    monkeypatch.setattr(qfmimo.cli, "run_point", no_point)


@pytest.mark.parametrize("line", ["m = x", "mode = fdma", "workers = 2.5", "fit = cubic"])
def test_cli_bad_config_value_exits_2_with_one_error_line(no_point, tmp_path, capsys, line):
    # Config lines go through the flags' parser: same types, same choices.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"sweep = 2,3,4\nbeta = 2\n{line}\n")
    out = tmp_path / "bad.csv"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--trials", "--sample-size", "--workers"])
def test_cli_zero_count_is_reported_by_its_flag(no_point, tmp_path, capsys, flag):
    # A flag and a config line give the same message, naming the flag.
    message = f"argument {flag}: must be an integer >= 1, got '0'"
    assert main([flag, "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"m = 2\n{flag[2:].replace('-', '_')} = 0\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: {message}"]


def test_cli_config_value_may_start_with_a_dash(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "dash.cfg"
    cfg.write_text("out = -point.csv\nm = 2\nbeta = 2\ntrials = 4\nsample_size = 2\n")
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "-point.csv").read_text().splitlines()[0] == CSV_HEADER


def test_cli_config_hash_inside_a_value_is_not_a_comment(monkeypatch, tmp_path):
    # Only a # at the start of a line or after whitespace starts a comment;
    # cutting at the first # used to write this CSV to a file named "run".
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "hash.cfg"
    cfg.write_text(
        "# profile\nout = run#3.csv\nbeta = 3.0  # note\nm = 2\ntrials = 4\n"
        "sample_size = 2\t# tab\n"
    )
    assert load_config(str(cfg)) == {
        "out": "run#3.csv",
        "beta": "3.0",
        "m": "2",
        "trials": "4",
        "sample_size": "2",
    }
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "run#3.csv").read_text().splitlines()[0] == CSV_HEADER
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, config",
    [(["--sweep", ""], ""), ([], "sweep =\n"), (["--sweep", ","], "")],
    ids=["flag", "config", "comma"],
)
def test_cli_empty_sweep_exits_2_before_any_point(no_point, tmp_path, capsys, argv, config):
    # An empty list used to run the single point --m names.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config)
    out = tmp_path / "empty.csv"
    assert main(["--config", str(cfg), *argv, "--m", "2", "--beta", "2", "--out", str(out)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [(["--out", ""], ""), ([], "out =\n"), ([], "out = #3.csv\n")],
    ids=["flag", "config", "config_comment"],
)
def test_cli_empty_out_exits_2_before_any_point(no_point, tmp_path, capsys, argv, config):
    # An empty path used to send the CSV to stdout with exit 0.
    cfg = tmp_path / "out.cfg"
    cfg.write_text(config)
    assert main(["--config", str(cfg), *argv, "--m", "2", "--beta", "2"]) == 2
    captured = capsys.readouterr()
    (err,) = captured.err.splitlines()
    assert err.startswith("error: ")
    assert captured.out == ""


def test_cli_config_file_gives_the_flags_csv(tmp_path):
    flags = ["--sweep", "2,3,4", "--beta", "2", "--mode", "hier", "--q", "0.05",
             "--trials", "8", "--sample-size", "2", "--seed", "5", "--fit", "power_law"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
    assert main([*flags, "--out", str(tmp_path / "flags.csv")]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path / "config.csv")]) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()


def test_sweep_rejects_non_integer_m_values():
    # int() would truncate these to m = 2, 3 or m = 1, 2, 3.
    p = NetworkParams(beta=2.0, seed=3, **FAST)
    for m_list in ([2.7, 3.2], [True, 2, 3], [2.0, 3], [2, "3"], [np.float64(2.0)]):
        with pytest.raises(ConfigError):
            run_sweep(p, m_list)
    rows = run_sweep(p, np.arange(2, 4)).rows
    assert [r.to_csv() for r in rows] == [r.to_csv() for r in run_sweep(p, [2, 3]).rows]


# ---------------------------------------------------------------------------
# one BLAS thread per entry-point process
# ---------------------------------------------------------------------------

TINY_POINT = ["--m", "2", "--beta", "2", "--trials", "2", "--sample-size", "2"]


@pytest.fixture
def no_thread_vars(monkeypatch):
    for var in harness._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def setter_calls(no_thread_vars, monkeypatch):
    """Thread counts passed to a stand-in OpenBLAS setter."""
    calls = []
    monkeypatch.setattr(harness, "_openblas_setter", lambda: calls.append)
    return calls


@pytest.fixture
def two_blas_threads(no_thread_vars, openblas_threads):
    """The process's OpenBLAS set to two threads; returns its thread getter."""
    harness._openblas_setter()(2)
    return openblas_threads


def test_cli_pins_openblas_to_one_thread(two_blas_threads, tmp_path):
    assert main([*TINY_POINT, "--out", str(tmp_path / "point.csv")]) == 0
    assert two_blas_threads() == 1


def test_sweep_worker_initializer_pins_openblas(two_blas_threads):
    with np.errstate():
        errors = {**np.geterr(), "over": "raise", "invalid": "warn"}
        harness._init_worker(errors)
        assert np.geterr() == errors
    assert two_blas_threads() == 1


def test_sweep_pool_initializer_pins_blas_in_each_worker(setter_calls, monkeypatch):
    class InProcessPool:
        # Runs the initializer once per worker and maps in this process.
        def __init__(self, max_workers, initializer):
            for _ in range(max_workers):
                initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    p = NetworkParams(m=2, beta=2.0, seed=4, **FAST)
    run_sweep(p, [2, 3], workers=2)
    assert setter_calls == [1, 1]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_explicit_blas_thread_setting_wins_over_the_pin(setter_calls, monkeypatch, tmp_path, var):
    monkeypatch.setenv(var, "2")
    harness._one_blas_thread()
    assert main([*TINY_POINT, "--out", str(tmp_path / "point.csv")]) == 0
    assert setter_calls == []
    monkeypatch.delenv(var)
    harness._one_blas_thread()
    assert setter_calls == [1]


def test_cli_pins_openblas_where_proc_cannot_be_read(two_blas_threads, monkeypatch, tmp_path):
    # The lookup goes through numpy's linalg extension, not /proc/self/maps.
    real_open = open

    def no_proc(file, *args, **kwargs):
        if str(file).startswith("/proc/"):
            raise OSError(f"{file} cannot be read")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", no_proc)
    harness._openblas_setter.cache_clear()
    try:
        assert main([*TINY_POINT, "--out", str(tmp_path / "point.csv")]) == 0
    finally:
        harness._openblas_setter.cache_clear()
    assert two_blas_threads() == 1


@pytest.mark.parametrize(
    "linalg_ext, setters",
    [
        (np.linalg._umath_linalg, ("no_such_openblas_set_num_threads",)),
        (SimpleNamespace(__file__="/nonexistent/_umath_linalg.so"), harness._OPENBLAS_SETTERS),
        (SimpleNamespace(), harness._OPENBLAS_SETTERS),
    ],
    ids=["no_exported_setter", "unloadable_library", "no_linalg_extension"],
)
def test_blas_pin_is_a_no_op_without_an_openblas_setter(monkeypatch, linalg_ext, setters):
    monkeypatch.setattr(np.linalg, "_umath_linalg", linalg_ext)
    monkeypatch.setattr(harness, "_OPENBLAS_SETTERS", setters)
    harness._openblas_setter.cache_clear()
    try:
        assert harness._openblas_setter() is None
        harness._one_blas_thread()
    finally:
        harness._openblas_setter.cache_clear()


def test_library_calls_and_rejected_settings_leave_blas_threads_alone(
    setter_calls, tmp_path, capsys
):
    p = NetworkParams(m=2, beta=2.0, seed=4, **FAST)
    run_point(p)
    run_sweep(p, [2, 3])
    assert main(["--workers", "0"]) == 2
    assert main(["--alpha", "1.5", "--out", str(tmp_path / "bad.csv")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 2
    assert setter_calls == []
    assert main([*TINY_POINT, "--out", str(tmp_path / "ok.csv")]) == 0
    assert setter_calls == [1]


def test_cli_sweep_csv_bytes_independent_of_worker_count(tmp_path):
    # m = 64 is the first point whose Gram products are 128 wide in real
    # form, where an unpinned OpenBLAS would split them across cores.
    argv = ["--sweep", "48,64", "--beta", "3", "--mode", "hier", "--trials", "8",
            "--sample-size", "4", "--seed", "17"]
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}.csv"
        assert main([*argv, "--workers", workers, "--out", str(out)]) == 0
    assert (tmp_path / "workers1.csv").read_bytes() == (tmp_path / "workers2.csv").read_bytes()
