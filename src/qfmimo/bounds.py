"""Upper bounds and the Monte Carlo ergodic capacity.

The cut-set bound treats all destinations as one cooperative receiver of the
source's m-antenna MIMO channel.  Two branches apply depending on whether
destinations outnumber antennas (beta > 1, isotropic input) or not
(beta <= 1, per-destination Hadamard split).  A realization stores no
distances, so both branches read them block by block from
NetworkRealization.source_distances and sum one block at a time: the bound
needs one reused block of terms, not an n-sized column of distances or path
gains (16 MiB each at n = 2**21).  Beyond half a chunk the partial sums are
added in block order, so the result can differ from a single numpy sum in
its last bits.  The Monte Carlo ergodic capacity of an i.i.d. phase-faded
channel is the acceptance suite's check on the shared log-det kernel, against
closed forms; qmimo.de_logdet is the finite-size oracle for any row profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netgeom import NetworkParams, NetworkRealization
from .qmimo import ergodic_logdet

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
    gain = params.p0 * params.m
    dist_sum = value = 0.0
    # Each block of distances is raised to -alpha in place.
    for terms in realization.source_distances():
        np.power(terms, -params.alpha, out=terms)
        dist_sum += float(terms.sum())
        if params.beta <= 1.0:
            terms *= gain
            terms += 1.0
            value += float(np.log2(terms, out=terms).sum())
    if params.beta > 1.0:
        branch = "beta>1"
        value = params.m * math.log2(1.0 + params.p0 / params.m * dist_sum)
    else:
        branch = "beta<=1"
    return UpperBoundReport(branch=branch, value=value, distance_sum=dist_sum)


def mimo_ergodic_capacity_mc(
    n_rx: int, m: int, p: float, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo ergodic capacity E[log2 det(I + (p/m) Th Th')].

    Th is an (n_rx, m) matrix of i.i.d. unit-modulus phases (isotropic input
    across the m antennas).  Returns (capacity, standard error).
    """
    if not (n_rx >= 1 and m >= 1 and trials >= 1):
        raise ValueError("n_rx, m, and trials must all be >= 1")
    if not p > 0:
        raise ValueError(f"p must be > 0, got {p}")
    scale = np.full(n_rx, math.sqrt(p / m))
    mean, stderr = ergodic_logdet([scale], m, trials, [rng], {"phase": 0.0, "gram": 0.0})
    return float(mean[0]), float(stderr[0])
