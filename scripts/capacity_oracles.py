#!/usr/bin/env python3
"""Monte Carlo ergodic capacity against the closed-form regime values.

Checks the phase-fading log-det estimator in the three aspect-ratio limits
of an i.i.d. channel matrix: wide (a -> inf), square (a -> 1), and tall
(a -> 0, leading term only).  Per-receive-antenna capacities, p = 1.

Exit codes: 0 success, 2 a trial count that is not an integer >= 1.
"""

import argparse
import sys

from qfmimo import derive_rng, lozano_regime_value, mimo_ergodic_capacity_mc
from qfmimo.cli import positive_int

CASES = [
    # (n_rx, m, regime, explicit a for the tall limit)
    (4, 256, "a_to_inf", None),
    (128, 128, "a_to_1", None),
    (256, 4, "a_to_0", 4 / 256),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trials", nargs="?", type=positive_int, default=200,
                    help="Monte Carlo trials per case (default: 200)")
    trials = ap.parse_args().trials
    print(f"{'N':>4} {'M':>4} {'regime':>9} {'measured':>10} {'closed form':>12} {'rel err':>8}")
    for n_rx, m, regime, a in CASES:
        cap, stderr = mimo_ergodic_capacity_mc(n_rx, m, 1.0, trials, derive_rng(7, n_rx, m))
        measured = cap / n_rx
        target = lozano_regime_value(regime, 1.0, a)
        rel = abs(measured - target) / target
        print(f"{n_rx:>4} {m:>4} {regime:>9} {measured:>10.5f} {target:>12.5f} {rel:>8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
