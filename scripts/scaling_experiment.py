#!/usr/bin/env python3
"""Antenna-count scaling sweep of the quantize-and-forward pipeline.

Two profiles, chosen by --mode:

  tdma  beta = 3 (destinations vastly outnumber antennas), q = delta = 1/2,
        in-group TDMA relaying with exact-geometry SINR.
  hier  beta = 2, delta = 1/2 and q = epsilon, so groups stay nearly as
        large as the whole network while the per-link relay rate degrades
        only as n2**(-epsilon); hierarchical in-group relaying.

In both regimes the sum rate is expected to track m log2 m up to a constant,
so the experiment reports the log-log slope and the ratio-constancy statistic
R_sum / (m log2 m), with the max/min spread of 2.5 that acceptance criterion
6 allows as the verdict.

Exit codes, as for the qfmimo CLI: 0 success, 2 invalid settings (found
before any point runs), 3 a point or the fit failed numerically.
"""

import argparse
import math
import sys
import time

from qfmimo import NetworkParams, fit_scaling, run_sweep
from qfmimo.cli import positive_int
from qfmimo.harness import POINT_FAILURES, SweepFailure, _one_blas_thread

# Per-mode defaults of --beta and --sample-size.
PROFILES = {
    "tdma": {"beta": 3.0, "sample_size": 30},
    "hier": {"beta": 2.0, "sample_size": 20},
}


def m_values(text: str) -> list[int]:
    """Ascending comma-separated antenna counts, at least 3 for the fit and
    each >= 2 so that m log2 m > 0."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        values = []
    if len(values) < 3 or min(values) < 2 or any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"expects at least 3 ascending comma-separated integers >= 2, got {text!r}"
        )
    return values


def unit_interval(text: str) -> float:
    """A float strictly between 0 and 1."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly in (0, 1), got {text!r}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", choices=PROFILES, default="tdma")
    ap.add_argument("--m", type=m_values, default="4,8,16,32",
                    help="at least 3 ascending comma-separated sweep values, each >= 2")
    ap.add_argument("--beta", type=float, help="default: 3 (tdma), 2 (hier)")
    ap.add_argument("--epsilon", type=unit_interval, default=0.05,
                    help="hier-mode rate exponent, also its cell-area exponent q")
    ap.add_argument("--trials", type=positive_int, default=100)
    ap.add_argument("--sample-size", type=positive_int, help="default: 30 (tdma), 20 (hier)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=positive_int, default=1)
    args = ap.parse_args()
    profile = PROFILES[args.mode]

    try:
        params = NetworkParams(
            beta=profile["beta"] if args.beta is None else args.beta,
            q=args.epsilon if args.mode == "hier" else 0.5,
            delta=0.5,
            mode=args.mode,
            epsilon=args.epsilon,
            seed=args.seed,
            trials=args.trials,
            sample_size=profile["sample_size"] if args.sample_size is None else args.sample_size,
        )
    except ValueError as exc:
        ap.error(str(exc))

    # As in the CLI: one BLAS thread per process, parallelism from --workers.
    _one_blas_thread()
    t0 = time.perf_counter()
    try:
        series = run_sweep(params, args.m, workers=args.workers)
        power = fit_scaling(series, "power_law")
        ratio = fit_scaling(series, "m_log_m_ratio")
    except POINT_FAILURES as exc:
        # The points that completed before the failure are still reported.
        if isinstance(exc, SweepFailure) and exc.partial.rows:
            print_rows(exc.partial.rows)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0

    print_rows(series.rows)
    print(f"\nlog-log slope: {power.slope:.3f} (rms residual {power.residual:.3g})")
    print(f"ratio constancy max/min: {ratio.max_min_ratio:.3f} "
          f"({'consistent with' if ratio.max_min_ratio <= 2.5 else 'deviates from'} m log m shape)")
    print(f"total runtime: {elapsed:.1f}s")
    return 0


def print_rows(rows) -> None:
    """The sweep table, one line per completed point."""
    print(f"{'m':>4} {'n':>7} {'n1':>5} {'n2_mean':>9} {'R_sum':>10} "
          f"{'stderr':>8} {'R_upper':>10} {'R/(m lg m)':>11}")
    for row in rows:
        ratio = row.r_sum / (row.m * math.log2(row.m))
        print(f"{row.m:>4} {row.n:>7} {row.n1:>5} {row.n2_mean:>9.2f} "
              f"{row.r_sum:>10.4f} {row.r_sum_stderr:>8.4f} {row.r_upper:>10.2f} "
              f"{ratio:>11.4f}")


if __name__ == "__main__":
    sys.exit(main())
