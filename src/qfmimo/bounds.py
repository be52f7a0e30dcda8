"""Upper bounds and random-matrix capacity oracles.

The cut-set bound treats all destinations as one cooperative receiver of the
source's m-antenna MIMO channel.  Two branches apply depending on whether
destinations outnumber antennas (beta > 1, isotropic input) or not
(beta <= 1, per-destination Hadamard split).  The Monte Carlo ergodic
capacity and the three closed-form aspect-ratio regimes serve as mutual
oracles for the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgeom import NetworkParams, NetworkRealization
from .qmimo import ergodic_logdet

REGIME_A_INF = "a_to_inf"
REGIME_A_ONE = "a_to_1"
REGIME_A_ZERO = "a_to_0"
REGIMES = (REGIME_A_INF, REGIME_A_ONE, REGIME_A_ZERO)


@dataclass(frozen=True)
class UpperBoundReport:
    """Cut-set upper bound on one realization."""

    branch: str  # "beta>1" or "beta<=1", selected solely by beta
    value: float
    distance_sum: float  # sum_i ||r_0 - r_i||**(-alpha)


def cutset_upper_bound(
    realization: NetworkRealization, params: NetworkParams
) -> UpperBoundReport:
    """Cooperative-receiver upper bound on the sum rate.

    beta > 1:   m * log2(1 + (p0/m) * sum_i d_i**-alpha)
    beta <= 1:  sum_i log2(1 + p0 * m * d_i**-alpha)
    """
    d = realization.source_dist
    dist_sum = float(np.sum(d**-params.alpha))
    if params.beta > 1.0:
        branch = "beta>1"
        value = params.m * math.log2(1.0 + params.p0 / params.m * dist_sum)
    else:
        branch = "beta<=1"
        value = float(np.sum(np.log2(1.0 + params.p0 * params.m * d**-params.alpha)))
    return UpperBoundReport(branch=branch, value=value, distance_sum=dist_sum)


def mimo_ergodic_capacity_mc(
    n_rx: int, m: int, p: float, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo ergodic capacity E[log2 det(I + (p/m) Th Th')].

    Th is an (n_rx, m) matrix of i.i.d. unit-modulus phases (isotropic input
    across the m antennas).  Returns (capacity, standard error).
    """
    if n_rx < 1 or m < 1 or trials < 1:
        raise ValueError("n_rx, m, and trials must all be >= 1")
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    scale = np.full((1, n_rx), math.sqrt(p / m))
    mean, stderr = ergodic_logdet(scale, m, trials, [rng], {"phase": 0.0, "gram": 0.0})
    return float(mean[0]), float(stderr[0])


def lozano_regime_value(regime: str, p: float, a: float | None = None) -> float:
    """Closed-form per-receive-antenna ergodic capacity in a limit regime.

    a = (transmit antennas) / (receive antennas).  Wide arrays (a -> inf)
    give log2(1 + p); square arrays (a -> 1) the fixed-point expression
    below; tall arrays (a -> 0) the leading term a * log2(p / a), evaluated
    at an explicitly supplied small a (the O(a) remainder is dropped).
    """
    if p <= 0:
        raise ValueError(f"p must be > 0, got {p}")
    if regime == REGIME_A_INF:
        return math.log2(1.0 + p)
    if regime == REGIME_A_ONE:
        root = math.sqrt(1.0 + 4.0 * p)
        return 2.0 * math.log2((1.0 + root) / 2.0) - (
            math.log2(math.e) / (4.0 * p)
        ) * (root - 1.0) ** 2
    if regime == REGIME_A_ZERO:
        if a is None or a <= 0:
            raise ValueError("the a_to_0 regime needs an explicit a > 0")
        return a * math.log2(p / a)
    raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
