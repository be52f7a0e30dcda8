"""Run orchestration: single points, antenna-count sweeps, fits, CSV output.

A sweep row is a pure function of (configuration, seed): per-point seeds are
derived by hashing (master seed, m), destination substreams hang off the
point seed, and the CSV serialization is fixed.  Two runs of the same config
therefore produce byte-identical CSV files regardless of worker count.  Wall
clock per point, and per stage (placement, rate, bound), is measured and
kept on the in-memory result (and logged by the CLI), but the CSV runtime_s
column always carries the placeholder 0.0 -- the one field a real clock
would otherwise leak into the reproducible artifact.  The rate stage's time
is further split into link capacities plus quantization noise and the Monte
Carlo log-det.

Entry points (the CLI, every sweep worker process, the scaling script) run
OpenBLAS on the calling thread, so parallelism comes from workers alone;
library calls leave the process's BLAS threads as they are.  The setter is
found through ctypes on numpy's linalg extension, which links its OpenBLAS.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cache, partial
from time import perf_counter
from typing import IO, Iterable

import numpy as np

from .bounds import UpperBoundReport, cutset_upper_bound
from .netgeom import (
    NetworkParams,
    min_source_distance,
    place_nodes,
)
from .qmimo import RateReport, sum_rate
from .seeding import derive_rng, derive_seed

CSV_HEADER = "m,n,n1,n2_mean,mode,R_sum,R_sum_stderr,R_upper,N_max,C_link_min,runtime_s,seed"

FIT_MODELS = ("power_law", "m_log_m_ratio")

# Guard exponent for the minimum source distance check in exclusion-free runs:
# the distance should exceed n**-(1 + MIN_DISTANCE_SLACK) in all but a
# vanishing fraction of realizations.
MIN_DISTANCE_SLACK = 0.1


# Thread-count setters of the OpenBLAS builds numpy ships or links, tried in
# this order; numpy 2.x wheels export the scipy_openblas names.
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)

# Either variable is the user's own thread count, which wins over the pin.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_lib() -> ctypes.CDLL | None:
    """numpy's linalg extension, whose handle also finds its BLAS's symbols, or None."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


@cache
def _openblas_setter():
    """OpenBLAS's set-thread-count function, looked up once, or None."""
    lib = _openblas_lib()
    for name in _OPENBLAS_SETTERS if lib is not None else ():
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return setter
    return None


def _one_blas_thread() -> None:
    """Run OpenBLAS on the calling thread unless the user set a thread count.

    Any other BLAS, or an OpenBLAS the lookup cannot find, is left as it is.
    """
    if any(var in os.environ for var in _BLAS_THREAD_VARS):
        return
    setter = _openblas_setter()
    if setter is not None:
        setter(1)


def _init_worker(errors: dict[str, str]) -> None:
    """Sweep pool initializer: the caller's numpy error settings, one BLAS thread."""
    np.seterr(**errors)
    _one_blas_thread()


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Numerical failure while running or fitting (CLI exit code 3)."""


class SweepFailure(NumericalError):
    """A sweep point failed; completed rows are kept on .partial."""

    def __init__(self, message: str, partial: "ScalingSeries"):
        super().__init__(message)
        self.partial = partial


# What a failing point raises: a ValueError past configuration is a numerical
# failure inside the point, and a MemoryError a size no machine holds.
POINT_FAILURES = (NumericalError, ValueError, ArithmeticError, np.linalg.LinAlgError, MemoryError)


@dataclass(frozen=True)
class SweepRow:
    """One CSV row of a sweep; runtime_seconds and the timings are not serialized.

    timings holds the place/rate/bound stage seconds, rate_timings the
    link/phase/gram seconds spent inside the rate stage.
    """

    m: int
    n: int
    n1: int
    n2_mean: float
    mode: str
    r_sum: float
    r_sum_stderr: float
    r_upper: float
    n_max: float
    c_link_min: float
    runtime_seconds: float
    seed: int
    timings: dict[str, float] = field(default_factory=dict, compare=False)
    rate_timings: dict[str, float] = field(default_factory=dict, compare=False)

    def to_csv(self) -> str:
        # repr() of a float is its shortest round-trip form, so rows are
        # byte-stable; runtime_s is pinned to 0.0 to keep output reproducible.
        return ",".join(
            [
                str(self.m),
                str(self.n),
                str(self.n1),
                repr(float(self.n2_mean)),
                self.mode,
                repr(float(self.r_sum)),
                repr(float(self.r_sum_stderr)),
                repr(float(self.r_upper)),
                repr(float(self.n_max)),
                repr(float(self.c_link_min)),
                repr(0.0),
                str(self.seed),
            ]
        )


@dataclass
class PointResult:
    """Full outcome of one (params, seed) evaluation.

    timings holds wall seconds per stage: "place" (placement and grouping),
    "rate" (sum-rate estimate) and "bound" (cut-set upper bound), plus the
    parts of the rate stage "link" (link capacities and quantization noise),
    "phase" (unit-modulus phase draws) and "gram" (row scaling, Gram
    matrices and log-dets).
    """

    params: NetworkParams
    report: RateReport
    upper: UpperBoundReport
    n: int
    n1: int
    n2_mean: float
    runtime_seconds: float
    timings: dict[str, float]

    def row(self) -> SweepRow:
        return SweepRow(
            m=self.params.m,
            n=self.n,
            n1=self.n1,
            n2_mean=self.n2_mean,
            mode=self.params.mode,
            r_sum=self.report.r_sum,
            r_sum_stderr=self.report.r_sum_stderr,
            r_upper=self.upper.value,
            n_max=self.report.n_max,
            c_link_min=self.report.c_link_min,
            runtime_seconds=self.runtime_seconds,
            seed=self.params.seed,
            timings={k: self.timings[k] for k in ("place", "rate", "bound")},
            rate_timings={k: self.timings[k] for k in ("link", "phase", "gram")},
        )


@dataclass
class ScalingSeries:
    """Rows of an m-sweep, ascending in m."""

    rows: list[SweepRow]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    residual: float  # rms residual of log2 R around the fit


@dataclass(frozen=True)
class RatioFit:
    ratios: tuple[float, ...]  # R / (m * log2 m) per row
    max_min_ratio: float


def run_point(params: NetworkParams) -> PointResult:
    """One realization, one sum-rate estimate, one upper bound.

    Every random stream derives from params.seed, so repeated calls are
    bit-identical.  The realization depends on geometry knobs only, never on
    the relay mode.  Raises NumericalError when an output the CSV reports is
    not finite (C_link_min may be NaN: the sample had no relay link).
    """
    t0 = perf_counter()
    realization = place_nodes(params, derive_rng(params.seed, 0))
    t_place = perf_counter()
    if params.exclusion_radius == 0.0:
        guard = realization.n ** -(1.0 + MIN_DISTANCE_SLACK)
        if min_source_distance(realization) <= guard:
            warnings.warn(
                f"minimum source distance fell below the n**-(1+{MIN_DISTANCE_SLACK}) "
                "guard; near-source destinations will dominate the upper bound",
                stacklevel=2,
            )
    report = sum_rate(realization, params, derive_rng(params.seed, 1), params.sample_size)
    t_rate = perf_counter()
    upper = cutset_upper_bound(realization, params)
    t_bound = perf_counter()
    outputs = {
        "R_sum": report.r_sum,
        "R_sum_stderr": report.r_sum_stderr,
        "R_upper": upper.value,
        "N_max": report.n_max,
    }
    bad = [f"{k}={v}" for k, v in outputs.items() if not math.isfinite(v)]
    if math.isinf(report.c_link_min):
        bad.append(f"C_link_min={report.c_link_min}")
    if bad:
        raise NumericalError(f"non-finite output at m={params.m}: {', '.join(bad)}")
    return PointResult(
        params=params,
        report=report,
        upper=upper,
        n=realization.n,
        n1=realization.n1,
        n2_mean=realization.n2_mean,
        runtime_seconds=perf_counter() - t0,
        timings={
            "place": t_place - t0,
            "rate": t_rate - t_place,
            "bound": t_bound - t_rate,
            **report.timings,
        },
    )


def point_params(params: NetworkParams, m: int) -> NetworkParams:
    """Per-point configuration: seed hashed from (master seed, m).

    Adding values to a sweep never perturbs existing rows, and rerunning a
    single point with the row's seed reproduces the row exactly.
    """
    return replace(params, m=m, seed=derive_seed(params.seed, m))


def _run_point_row(args: tuple[NetworkParams, int]) -> SweepRow:
    params, m = args
    return run_point(point_params(params, m)).row()


def run_sweep(
    params: NetworkParams, m_list: Iterable[int], workers: int = 1
) -> ScalingSeries:
    """Run one point per m and assemble rows in ascending m order.

    Points are independent, so any worker count yields identical rows, and
    workers run under the caller's numpy floating-point error settings with
    OpenBLAS on one thread each; the pool never starts more workers than
    there are points, and a serial sweep leaves this process's BLAS alone.
    If a point fails (a size too large for memory included), the completed
    rows are flushed into SweepFailure.partial.
    """
    m_list = list(m_list)
    # int() would truncate 2.7 to 2 and turn True into 1; numpy integers,
    # as np.arange gives, are whole numbers.
    if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool) for m in m_list):
        raise ConfigError(f"sweep m values must be integers, got {m_list}")
    m_list = [int(m) for m in m_list]
    if not m_list:
        raise ConfigError("sweep needs at least one m value")
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ConfigError(f"sweep m values must be strictly ascending, got {m_list}")
    if any(m < 1 for m in m_list):
        raise ConfigError("sweep m values must be positive")

    rows: list[SweepRow] = []
    parallel = workers > 1 and len(m_list) > 1
    executor = (
        ProcessPoolExecutor(
            max_workers=min(workers, len(m_list)), initializer=partial(_init_worker, np.geterr())
        )
        if parallel
        else nullcontext()
    )
    with executor as pool:
        points = (pool.map if parallel else map)(_run_point_row, [(params, m) for m in m_list])
        try:
            for row in points:
                rows.append(row)
        except POINT_FAILURES as exc:
            raise SweepFailure(
                f"sweep point m={m_list[len(rows)]} failed: {exc}",
                partial=ScalingSeries(rows=rows),
            ) from exc
    return ScalingSeries(rows=rows)


def fit_scaling(series: ScalingSeries, model: str) -> PowerLawFit | RatioFit:
    """Fit the sweep's R_sum column against m.

    power_law fits the log-log slope; m_log_m_ratio reports R/(m log2 m) and
    its max/min spread, the constancy surrogate for an m log m scaling shape
    (a log factor biases plain slope fits at small m).
    """
    if model not in FIT_MODELS:
        raise ConfigError(f"fit model must be one of {FIT_MODELS}, got {model!r}")
    if len(series.rows) < 3:
        raise ConfigError(f"fit needs >= 3 sweep points, got {len(series.rows)}")
    m = series.column("m").astype(float)
    r = series.column("r_sum").astype(float)
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise NumericalError("fit requires strictly positive finite R_sum values")

    if model == "power_law":
        x = np.log2(m)
        y = np.log2(r)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        return PowerLawFit(
            slope=float(slope),
            intercept=float(intercept),
            residual=float(np.sqrt(np.mean(resid**2))),
        )

    if np.any(m < 2):
        raise NumericalError("m_log_m_ratio needs every m >= 2 (log2 m must be > 0)")
    ratios = r / (m * np.log2(m))
    return RatioFit(
        ratios=tuple(float(x) for x in ratios),
        max_min_ratio=float(ratios.max() / ratios.min()),
    )


def write_csv(series: ScalingSeries, stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    for row in series.rows:
        stream.write(row.to_csv() + "\n")
