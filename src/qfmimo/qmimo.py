"""Quantize-and-forward rate machinery.

A destination decodes from the quantized observations relayed by its group:
relay i's observation arrives with quantization-noise variance

    N_i = E|Y_i|**2 / (2**(((1-delta)/delta) * (n / (4 n2)) * C_i) - 1),

the smallest variance whose forwarding rate fits through the in-group link of
capacity C_i given the relay-phase time budget.  The decode rate is then the
ergodic log-det of the group MIMO channel with per-row effective noise
1 + N_i, scaled by the delta/n time share of that destination:

    R = (delta / n) E[ log2 det(I + (p0/m) G Th Th' G Q^{-1}) ],

with G the diagonal of path-loss ratios, Th the unit-modulus phase matrix and
Q = diag(1 + N_i).  A destination's own observation is unquantized (N = 0);
a useless link (C <= 0) removes its relay from the determinant entirely.
The phase draws and the ergodic log-det kernel here also serve the cut-set
module's Monte Carlo capacity oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linkrate import LinkCapacityModel, link_capacity
from .netgeom import NetworkParams, NetworkRealization

# Distinguished quantization-noise value for a relay whose link is useless.
NO_RELAY = math.inf

_LOG2 = math.log(2.0)


def phase_matrix(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex array of the given shape with unit-modulus i.i.d. phases.

    Fading enters only through these phases, uniform on [0, 2*pi) and redrawn
    on every sample; magnitudes are deterministic path losses.
    """
    return np.exp(2j * np.pi * rng.random(shape))


def ergodic_logdet(
    row_scale: np.ndarray, m: int, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of log2 det(I + S S').

    S = diag(row_scale) Th with Th a fresh (rows, m) phase matrix per trial.
    The determinant is evaluated on the smaller side of the product.
    """
    rows = row_scale.size
    theta = phase_matrix(rng, trials, rows, m)
    s = row_scale[None, :, None] * theta
    if rows <= m:
        gram = s @ s.conj().swapaxes(-1, -2)
    else:
        gram = s.conj().swapaxes(-1, -2) @ s
    gram += np.eye(min(rows, m))
    _, logdet = np.linalg.slogdet(gram)
    vals = logdet / _LOG2
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def received_power(
    realization: NetworkRealization, k: int, i: int | np.ndarray, p0: float, alpha: float
) -> float | np.ndarray:
    """Mean received power E|Y|**2 at member i of group k, unit noise included.

    The source scales its power so the group's farthest member sees SNR p0;
    member i therefore receives p0 * (d_far / d_i)**alpha + 1.  `i` may be a
    rank or an array of ranks.
    """
    d = realization.group_distances(k)
    return p0 * (d[-1] / d[i]) ** alpha + 1.0


def quantization_noise(
    e_y2: float | np.ndarray, c_link: float | np.ndarray, delta: float, n: int, n2: int
) -> float | np.ndarray:
    """Smallest quantization-noise variance the link capacity c_link allows.

    Elementwise over array arguments; scalar arguments give a float.  Returns
    NO_RELAY (inf) where c_link <= 0: the link cannot carry any quantization
    index and the relay is dropped from the decode.  An infinite capacity
    gives exactly zero noise.  A received power below the unit noise floor
    or a NaN capacity raises ValueError.
    """
    e_y2 = np.asarray(e_y2, dtype=float)
    c_link = np.asarray(c_link, dtype=float)
    if not np.all(e_y2 >= 1.0):
        raise ValueError(f"received power must include unit noise, got {e_y2}")
    if np.isnan(c_link).any():
        raise ValueError(f"link capacity must not be NaN, got {c_link}")
    expo = ((1.0 - delta) / delta) * (n / (4.0 * n2)) * c_link
    with np.errstate(over="ignore", divide="ignore"):
        denom = 2.0**expo - 1.0
        # Where 2**expo overflows, 2**expo - 1 == 2**expo to machine precision.
        noise = np.where(np.isinf(denom), e_y2 * 2.0 ** (-expo), e_y2 / denom)
    noise = np.where(c_link > 0.0, noise, NO_RELAY)
    return float(noise) if noise.ndim == 0 else noise


def quantized_mimo_rate(
    gamma: np.ndarray,
    noises: np.ndarray,
    p0: float,
    m: int,
    delta: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """Monte Carlo decode rate for one destination given its noise profile.

    Averages log2 det(I + (p0/m) G Th Th' G Q^{-1}) over fresh phase draws;
    rows with NO_RELAY noise are dropped.  Returns (rate, standard error,
    mean log-det), where rate = (delta/n) * mean log-det.
    """
    gamma = np.asarray(gamma, dtype=float)
    noises = np.asarray(noises, dtype=float)
    keep = np.isfinite(noises)
    if not keep.any():
        return 0.0, 0.0, 0.0

    # det(I + c G Th Th' G Q^{-1}) = det(I + S S') with S = diag(row_scale) Th,
    # since G and Q are diagonal and commute.
    row_scale = math.sqrt(p0 / m) * gamma[keep] / np.sqrt(1.0 + noises[keep])
    mean, stderr = ergodic_logdet(row_scale, m, trials, rng)
    share = delta / n
    return share * mean, share * stderr, mean


@dataclass
class QuantizerNoiseProfile:
    """Per-relay quantization-noise variances for one target destination.

    noises[i] is the variance relay i adds on its forwarded observation
    (NO_RELAY when the link is unusable, exactly 0 for the target's own
    unquantized observation); link_capacities[i] is the capacity that
    produced it (infinite for the self-link).
    """

    group: int
    target_rank: int
    link_capacities: np.ndarray
    noises: np.ndarray
    received_powers: np.ndarray

    @property
    def n2(self) -> int:
        return int(self.noises.size)


def noise_profile(
    realization: NetworkRealization,
    k: int,
    j: int,
    link_model: LinkCapacityModel,
    params: NetworkParams,
) -> QuantizerNoiseProfile:
    """Link capacities and quantization noises seen by destination (k, j)."""
    n2 = realization.n2_of(k)
    powers = received_power(realization, k, np.arange(n2), params.p0, params.alpha)
    caps = link_capacity(link_model, realization, k, j)
    noises = quantization_noise(powers, caps, params.delta, realization.n, n2)
    noises[j] = 0.0  # the target's own observation is not quantized
    return QuantizerNoiseProfile(
        group=k,
        target_rank=j,
        link_capacities=caps,
        noises=noises,
        received_powers=powers,
    )


@dataclass
class DestinationRate:
    """Rate estimate and link/noise bookkeeping for one destination."""

    group: int
    rank: int
    dest_index: int
    rate: float
    stderr: float
    mean_logdet: float
    link_capacities: np.ndarray = field(repr=False)
    noises: np.ndarray = field(repr=False)
    quantizer_rates: np.ndarray = field(repr=False)
    mi_quantize: np.ndarray = field(repr=False)


def achievable_rate(
    realization: NetworkRealization,
    k: int,
    j: int,
    link_model: LinkCapacityModel,
    params: NetworkParams,
    rng: np.random.Generator,
) -> DestinationRate:
    """Quantize-and-forward rate of destination rank j in group k.

    Link capacities follow the configured model; the destination's own
    observation enters with zero quantization noise (an infinite-capacity
    self-link).  Alongside the Monte Carlo rate the per-relay quantizer rates
    and mutual-information bounds are recorded so a report can be audited
    against the rate-constraint system (see check_rate_constraints).
    """
    profile = noise_profile(realization, k, j, link_model, params)
    n = realization.n
    n2 = profile.n2
    caps, noises = profile.link_capacities, profile.noises

    usable = np.isfinite(noises)
    with np.errstate(divide="ignore"):
        fidelity = np.log2(1.0 + profile.received_powers / noises)
    # An unused relay forwards nothing.  Where the noise underflowed to zero
    # (the self link included) the fidelity bound coincides with the link
    # budget exponent, infinite for the self link.
    budget_expo = (1.0 - params.delta) / params.delta * (n / (4.0 * n2)) * caps
    mi_quantize = np.where(usable, np.where(noises > 0.0, fidelity, budget_expo), 0.0)

    # A usable relay is granted exactly its relay-phase budget
    # (1-delta)/(4 n2) of the link capacity; the self link's is infinite.
    quantizer_rates = np.where(usable, (1.0 - params.delta) / (4.0 * n2) * caps, 0.0)

    d = realization.group_distances(k)
    gamma = (d[-1] / d) ** (params.alpha / 2.0)
    rate, stderr, mean_logdet = quantized_mimo_rate(
        gamma, noises, params.p0, params.m, params.delta, n, params.trials, rng
    )
    return DestinationRate(
        group=k,
        rank=j,
        dest_index=int(realization.group_members[k][j]),
        rate=rate,
        stderr=stderr,
        mean_logdet=mean_logdet,
        link_capacities=caps,
        noises=noises,
        quantizer_rates=quantizer_rates,
        mi_quantize=mi_quantize,
    )


def rate_lower_bound_iid(
    n2: int,
    m: int,
    p0: float,
    n_q_max: float,
    delta: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """I.i.d. surrogate that lower-bounds the decode rate.

    Replaces the path-loss diagonal by the identity and every quantization
    noise by the common worst case n_q_max:
    (delta/n) E[log2 det(I + p0 / (m (1 + n_q_max)) Th Th')].
    """
    if n_q_max < 0:
        raise ValueError(f"n_q_max must be >= 0, got {n_q_max}")
    rate, _, _ = quantized_mimo_rate(
        np.ones(n2), np.full(n2, float(n_q_max)), p0, m, delta, n, trials, rng
    )
    return rate


def check_rate_constraints(
    r: float,
    r_q: np.ndarray,
    c: np.ndarray,
    mi_quantize: np.ndarray,
    mi_decode: float,
    delta: float,
    n: int,
    n2: int,
    rtol: float = 1e-9,
) -> bool:
    """Validate the quantize-and-forward rate-constraint system.

    True iff, for every relay i,
        r_q[i] <= (1-delta)/(4 n2) * c[i]          (link budget)
        r_q[i] >= (delta/n) * mi_quantize[i]       (quantizer fidelity)
    and r <= (delta/n) * mi_decode                 (decoder).
    Comparisons allow a small relative slack rtol for float roundoff; an
    infinite bound is satisfied by any value, an infinite left side only by
    an infinite bound.
    """
    r_q = np.asarray(r_q, dtype=float)
    c = np.asarray(c, dtype=float)
    mi_quantize = np.asarray(mi_quantize, dtype=float)
    if not (r_q.shape == c.shape == mi_quantize.shape == (n2,)):
        raise ValueError(
            f"expected three vectors of length n2={n2}, got shapes "
            f"{r_q.shape}, {c.shape}, {mi_quantize.shape}"
        )
    fmax = np.finfo(float).max

    def slack(bound: np.ndarray) -> np.ndarray:
        return rtol * (1.0 + np.minimum(np.abs(bound), fmax))

    upper = (1.0 - delta) / (4.0 * n2) * c
    lower = (delta / n) * mi_quantize
    ok_budget = bool(np.all(r_q <= upper + slack(upper)))
    ok_fidelity = bool(np.all(r_q >= lower - slack(lower)))
    decode_bound = (delta / n) * mi_decode
    ok_decode = bool(r <= decode_bound + float(slack(np.asarray(decode_bound))))
    return ok_budget and ok_fidelity and ok_decode


@dataclass
class RateReport:
    """Sum-rate estimate over a destination sample.

    r_ind is the minimum estimated rate over the evaluated destinations and
    r_sum = n * r_ind exactly; r_sum_stderr scales the standard error of the
    minimizing destination.  n_max is the largest finite quantization noise
    seen, c_link_min the smallest relay-link capacity, self links excluded
    (NaN when no sampled destination has a relay).
    """

    n: int
    destinations: list[DestinationRate]
    r_ind: float
    r_sum: float
    r_sum_stderr: float
    n_max: float
    c_link_min: float

    @property
    def sample_size(self) -> int:
        return len(self.destinations)


def sum_rate(
    realization: NetworkRealization,
    link_model: LinkCapacityModel,
    params: NetworkParams,
    rng: np.random.Generator,
    sample_size: int,
) -> RateReport:
    """Estimate the achievable sum rate n * min_j R(j) on a realization.

    Evaluates achievable_rate on a uniform sample of sample_size destinations
    (all of them when sample_size >= n); each destination consumes an
    independent substream seeded from rng, so evaluation order and worker
    count cannot change the result.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    n = realization.n
    if sample_size >= n:
        chosen = np.arange(n)
    else:
        chosen = rng.choice(n, size=sample_size, replace=False)
    dest_seeds = rng.integers(0, 2**63, size=chosen.size)

    destinations = []
    for dest, seed in zip(chosen, dest_seeds):
        k = int(realization.group_of[dest])
        j = int(realization.rank_of[dest])
        destinations.append(
            achievable_rate(
                realization, k, j, link_model, params, np.random.default_rng(int(seed))
            )
        )

    worst = min(destinations, key=lambda dr: dr.rate)
    noises = np.concatenate([dr.noises for dr in destinations])
    relay_caps = np.concatenate(
        [np.delete(dr.link_capacities, dr.rank) for dr in destinations]
    )
    finite_noises = noises[np.isfinite(noises) & (noises > 0.0)]
    return RateReport(
        n=n,
        destinations=destinations,
        r_ind=worst.rate,
        r_sum=n * worst.rate,
        r_sum_stderr=n * worst.stderr,
        n_max=float(finite_noises.max()) if finite_noises.size else 0.0,
        c_link_min=float(relay_caps.min()) if relay_caps.size else math.nan,
    )
