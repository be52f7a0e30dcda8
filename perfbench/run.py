"""Benchmark of the qfmimo antenna-count sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The benchmark drives ``qfmimo.cli.main`` in-process with ``--workers 1`` and
``--out`` into a scratch directory, exactly as a user's sweep runs, and builds
the CLI arguments from the workload and ``--seed`` (the CLI's master seed).
A single closed loop runs one CLI invocation after another.

--trace 0 reports the end-to-end metrics:
    wall_s       median wall seconds of warm, untraced CLI runs
    cpu_s        median user+sys CPU seconds of the same runs (all threads)
    peak_rss_mb  peak resident memory of a fresh process running the
                 workload once at the pinned seed
    setup_s      median, over fresh processes, of import qfmimo plus one
                 tiny warm-up run_point
--trace 1 alternates untraced and traced CLI runs and reports per-layer self
seconds (medians over the traced runs), call counts, work counters computed
from the calls' arguments, and the tracing overhead.

Every reported time is scaled to the nominal speed of a fixed calibration
kernel run around it (see calibrate.py), because a shared machine's speed
can drift far more between runs than the bounds allow; the report lines print
the raw times and the scale factors as well.

Before measuring, every run executes the workload once, in a fresh process, at
the pinned seed and compares the CSV with the reference stored in
perfbench/ref; the same process gives peak_rss_mb, which depends on n and the
group sizes and so barely on the seed.  A tiny run_point then warms the
benchmark's own process, and the timed runs use --seed.  Every CSV is checked
point by point (see checks.py); failed points over attempted points is the
run's fail fraction, reported as the result's ``failed`` and ``attempted``.  A
traced run whose workload should reach a layer boundary but records no call
for it reports a missing span and is not correct.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report, starting with
an environment stamp (commit, versions, BLAS, thread variables, nproc, load).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import calibrate
import checks
import child
from tracer import CLI_SPAN, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "ref"
WORK_DIR = HERE / "_work"
CHILD = str(HERE / "child.py")

PINNED_SEED = 0
SETUP_PROCESSES = 5
MIN_TIMED_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    points: tuple[int, ...]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(seed), "--workers", "1", "--out", str(out)]

    @property
    def spans(self) -> tuple[str, ...]:
        """Layer boundaries every run of this workload must reach."""
        return tuple(
            s for s in SPAN_NAMES if s != "harness.fit_scaling" or "--fit" in self.args
        )


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "ref_sweep_tdma": Workload(
        ("--sweep", "4,8,16,32", "--beta", "3", "--trials", "100", "--sample-size", "30",
         "--mode", "tdma", "--fit", "m_log_m_ratio"),
        (4, 8, 16, 32),
    ),
    "hier_profile": Workload(
        ("--mode", "hier", "--beta", "2", "--q", "0.05", "--epsilon", "0.05",
         "--delta", "0.5", "--sweep", "4,8,16,32", "--trials", "100",
         "--sample-size", "20", "--fit", "power_law"),
        (4, 8, 16, 32),
    ),
    "exact_min_tdma": Workload(
        ("--sweep", "6,7,8", "--beta", "3", "--trials", "100", "--sample-size", "1000",
         "--mode", "tdma"),
        (6, 7, 8),
    ),
    "geom_m128_hier": Workload(
        ("--m", "128", "--beta", "3", "--mode", "hier", "--trials", "4",
         "--sample-size", "4"),
        (128,),
    ),
}

# Per-layer self seconds for every span except harness.fit_scaling, whose time
# is zero on workloads without --fit (its call count is reported instead).
SELF_TIME_SPANS = tuple(s for s in SPAN_NAMES if s != "harness.fit_scaling")
# Call counts of the spans whose count is work done, not the number of points.
CALL_COUNTS = {
    "harness.run_point": "harness.run_point.calls",
    "harness.fit_scaling": "harness.fit_scaling.calls",
    "qmimo.achievable_rate": "qmimo.dest_evals",
    "qmimo.noise_profile": "qmimo.noise_profile.calls",
    "linkrate.link_capacity": "linkrate.link_capacity.calls",
    "qmimo.quantization_noise": "qmimo.quantization_noise.calls",
    "qmimo.quantized_mimo_rate": "qmimo.quantized_mimo_rate.calls",
    "channel.phase_matrix": "channel.phase_matrix.calls",
    "qmimo.logdet": "qmimo.logdet.calls",
}
WORK_COUNTERS = (
    "netgeom.n",
    "netgeom.n1",
    "netgeom.n2_max",
    "channel.phase_entries",
    "channel.phase_bytes",
    "qmimo.gram_flops",
    "qmimo.logdet.matrices",
    "qmimo.logdet.max_dim",
)


@dataclass
class Invocation:
    """One CLI run: its CSV text, exit code, clocks and any traceback.

    scale converts its times to the calibration kernel's nominal speed.
    """

    text: str
    code: int | None
    wall_s: float
    cpu_s: float
    error: str = ""
    scale: float = 1.0


class Bracket:
    """Calibration kernel runs around consecutive program runs."""

    def __init__(self) -> None:
        self._last = calibrate.kernel_seconds()

    def close(self, inv: Invocation) -> None:
        """Set the scale of the run that just ended from the kernel before
        and after it."""
        before, self._last = self._last, calibrate.kernel_seconds()
        inv.scale = calibrate.NOMINAL_S / ((before + self._last) / 2)


@dataclass
class Tally:
    """Points attempted and failed over one benchmark run."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(
        self,
        label: str,
        inv: Invocation,
        points: tuple[int, ...],
        reference: str | None = None,
        identical_to: str | None = None,
    ) -> None:
        errors = checks.point_errors(inv.text, list(points), reference, identical_to)
        for m in points:
            self.attempted += 1
            if inv.code != 0:
                errors[m].append(f"exit code {inv.code}")
            if errors[m]:
                self.failed += 1
                self.notes.append(f"{label} m={m}: " + "; ".join(errors[m]))
        if inv.error:
            self.notes.append(f"{label}: {inv.error.strip()}")


def invoke(workload: Workload, seed: int, out: Path, main=None) -> Invocation:
    """Run the CLI in-process once; clocks cover the CLI call alone."""
    out.unlink(missing_ok=True)
    argv = workload.argv(seed, out)
    main = main or importlib.import_module("qfmimo.cli").main
    wall0, cpu0 = perf_counter(), process_time()
    code, error = child.run_cli(main, argv)
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return Invocation(text, code, wall, cpu, error)


def run_child(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, CHILD, *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def environment_stamp() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def reference_run(name: str, workload: Workload, work: Path, tally: Tally) -> float:
    """Run the pinned seed in a fresh process and check it against the stored
    reference; returns the process's peak resident memory in MiB."""
    reference = (REF_DIR / f"{name}.csv").read_text(encoding="utf-8")
    out = work / "reference.csv"
    fresh = run_child("workload", *workload.argv(PINNED_SEED, out))
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    inv = Invocation(text, fresh["exit"], 0.0, 0.0, fresh["error"])
    tally.check(f"reference seed {PINNED_SEED}", inv, workload.points, reference=reference)
    return fresh["peak_rss_mb"]


def warm_up(seed: int) -> None:
    """Load the program's lazy imports and numpy paths before timing."""
    from qfmimo import NetworkParams, run_point

    run_point(NetworkParams(seed=seed, **child.WARMUP_POINT))


def end_to_end(
    name: str, workload: Workload, seed: int, seconds: float, work: Path, tally: Tally
) -> dict[str, float]:
    setup = [run_child("setup", str(seed)) for _ in range(SETUP_PROCESSES)]
    peak_rss_mb = reference_run(name, workload, work, tally)
    warm_up(seed)
    runs: list[Invocation] = []
    bracket = Bracket()
    start = perf_counter()
    while len(runs) < MIN_TIMED_RUNS or perf_counter() - start < seconds:
        inv = invoke(workload, seed, work / "timed.csv")
        bracket.close(inv)
        tally.check("timed", inv, workload.points, identical_to=runs[0].text if runs else None)
        runs.append(inv)
        if inv.code != 0 or inv.error:
            break
    print("raw wall_s: " + " ".join(f"{r.wall_s:.4f}" for r in runs))
    print("raw cpu_s: " + " ".join(f"{r.cpu_s:.4f}" for r in runs))
    print("scale: " + " ".join(f"{r.scale:.4f}" for r in runs))
    print("raw setup_s: " + " ".join(f"{s['setup_s']:.4f}" for s in setup))
    print("setup scale: " + " ".join(f"{calibrate.NOMINAL_S / s['kernel_s']:.4f}" for s in setup))
    return {
        "wall_s": statistics.median(r.wall_s * r.scale for r in runs),
        "cpu_s": statistics.median(r.cpu_s * r.scale for r in runs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(
            s["setup_s"] * calibrate.NOMINAL_S / s["kernel_s"] for s in setup
        ),
    }


def per_layer(
    name: str, workload: Workload, seed: int, seconds: float, work: Path, tally: Tally
) -> tuple[dict[str, float], list[str]]:
    reference_run(name, workload, work, tally)
    warm_up(seed)
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    tracers: list[Tracer] = []
    bracket = Bracket()
    start = perf_counter()
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() - start < seconds:
        plain = invoke(workload, seed, work / "plain.csv")
        bracket.close(plain)
        tally.check("untraced", plain, workload.points,
                    identical_to=untraced[0].text if untraced else None)
        tracer = Tracer()
        with tracer.installed():
            inv = invoke(workload, seed, work / "traced.csv",
                         main=tracer.wrap(CLI_SPAN, importlib.import_module("qfmimo.cli").main))
        bracket.close(inv)
        tally.check("traced", inv, workload.points, identical_to=plain.text)
        untraced.append(plain)
        traced.append(inv)
        tracers.append(tracer)
        if plain.code != 0 or inv.code != 0 or plain.error or inv.error:
            break

    # Times below are scaled to the calibration kernel's nominal speed.
    layers = [
        {span: (calls, secs * inv.scale) for span, (calls, secs) in t.layers().items()}
        for t, inv in zip(tracers, traced)
    ]
    first = layers[0]
    missing = [s for s in workload.spans if first[s][0] == 0]
    if any(
        {s: c for s, (c, _) in lay.items()} != {s: c for s, (c, _) in first.items()}
        or t.counts != tracers[0].counts
        for lay, t in zip(layers, tracers)
    ):
        tally.notes.append("call counts or work counters differ between traced runs")
        missing.append("(counts not repeatable)")

    def point_s(m: int) -> float:
        return statistics.median(
            t.point_seconds.get(m, 0.0) * inv.scale for t, inv in zip(tracers, traced)
        )

    wall = statistics.median(r.wall_s * r.scale for r in traced)
    plain_wall = statistics.median(r.wall_s * r.scale for r in untraced)
    metrics: dict[str, float] = {}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.s"] = statistics.median(lay[span][1] for lay in layers)
    for span, metric in CALL_COUNTS.items():
        metrics[metric] = first[span][0]
    for counter in WORK_COUNTERS:
        metrics[counter] = tracers[0].counts[counter]
    metrics["harness.run_point.m_min.s"] = point_s(min(workload.points))
    metrics["harness.run_point.m_max.s"] = point_s(max(workload.points))
    metrics["trace.overhead_s"] = wall - plain_wall

    print(f"pairs: {len(traced)}; wall median untraced {plain_wall:.4f} s, traced {wall:.4f} s")
    print(f"{'layer':<28} {'calls':>8} {'self s':>10} {'share':>7}")
    for span in SPAN_NAMES:
        secs = statistics.median(lay[span][1] for lay in layers)
        print(f"{span:<28} {first[span][0]:>8} {secs:>10.4f} {secs / wall:>7.1%}")
    for m in workload.points:
        print(f"harness.run_point.m{m}.s {point_s(m):.4f}")
    return metrics, missing


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    workload = WORKLOADS[name]
    tally = Tally()
    missing: list[str] = []
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        if trace:
            metrics, missing = per_layer(name, workload, seed, seconds, work, tally)
        else:
            metrics = end_to_end(name, workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in tally.notes:
        print(f"check failed: {note}")
    for span in missing:
        print(f"missing span: {span}")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    print(f"{name}: fail_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.4f}")
    for metric, unit in declared.items():
        print(f"{name}: {metric} {metrics[metric]} {unit}")
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in declared.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise RuntimeError("workloads in BENCHMARK.json and run.py differ")

    child.load_program()
    print("stamp " + json.dumps(environment_stamp()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), declared) for n in names]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
