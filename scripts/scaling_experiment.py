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
"""

import argparse
import math
import sys
import time

from qfmimo import NetworkParams, fit_scaling, run_sweep

# Per-mode defaults of --beta and --sample-size.
PROFILES = {
    "tdma": {"beta": 3.0, "sample_size": 30},
    "hier": {"beta": 2.0, "sample_size": 20},
}


def m_values(text: str) -> list[int]:
    """Comma-separated antenna counts, each >= 2 so that m log2 m > 0."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 2:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers >= 2, got {text!r}")
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mode", choices=PROFILES, default="tdma")
    ap.add_argument("--m", type=m_values, default="4,8,16,32",
                    help="comma-separated sweep values, each >= 2")
    ap.add_argument("--beta", type=float, help="default: 3 (tdma), 2 (hier)")
    ap.add_argument("--epsilon", type=float, default=0.05,
                    help="hier-mode rate exponent, also its cell-area exponent q")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--sample-size", type=int, help="default: 30 (tdma), 20 (hier)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    profile = PROFILES[args.mode]

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

    t0 = time.perf_counter()
    series = run_sweep(params, args.m, workers=args.workers)
    elapsed = time.perf_counter() - t0

    print(f"{'m':>4} {'n':>7} {'n1':>5} {'n2_mean':>9} {'R_sum':>10} "
          f"{'stderr':>8} {'R_upper':>10} {'R/(m lg m)':>11}")
    for row in series.rows:
        ratio = row.r_sum / (row.m * math.log2(row.m))
        print(f"{row.m:>4} {row.n:>7} {row.n1:>5} {row.n2_mean:>9.2f} "
              f"{row.r_sum:>10.4f} {row.r_sum_stderr:>8.4f} {row.r_upper:>10.2f} "
              f"{ratio:>11.4f}")

    power = fit_scaling(series, "power_law")
    ratio = fit_scaling(series, "m_log_m_ratio")
    print(f"\nlog-log slope: {power.slope:.3f} (rms residual {power.residual:.3g})")
    print(f"ratio constancy max/min: {ratio.max_min_ratio:.3f} "
          f"({'consistent with' if ratio.max_min_ratio <= 2.5 else 'deviates from'} m log m shape)")
    print(f"total runtime: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
