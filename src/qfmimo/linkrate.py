"""Relay-phase link capacities.

Within a group of n2 destinations, every ordered pair must exchange one
quantized observation.  The exchange takes n2 - 1 slots: while pair (i, j)
is served, rank i of every co-active group transmits (a smaller group's last
member stands in for missing ranks).  Groups reuse the spectrum under a
4-cell activation pattern: the cell grid is colored by (row mod 2, col mod 2)
and a slot activates one color class, so one cell out of every 2x2 block is
active at a time.  Link capacities are computed for a batch of receivers of
one group and every transmitter rank at once, under the relay discipline
NetworkParams.mode selects:

* "tdma": exact-geometry SINR under the 4-cell reuse pattern, from one
  table of the rank-i transmitters of the group and its co-active groups
  and their distances to the receivers, one chunk of receivers at a time,
* "hier": the hierarchical-cooperation per-node rate guarantee
  c2 * n2**(-epsilon).

The pessimistic closed-form worst-case bound is kept as a diagnostic only
(tdma_worst_case_capacity): it is negative for every admissible parameter
choice.
"""

from __future__ import annotations

import math

import numpy as np

from .netgeom import NetworkParams, NetworkRealization

# Partial-sum length for the zeta evaluation; with the Euler-Maclaurin tail
# below this keeps the absolute error under 1e-9 for every s > 1.
_ZETA_TERMS = 20_000

# Entries one batch may hold: each (J, n2) matrix of capacities or noises
# that qmimo.sum_rate rates at once, and each chunk of receivers' (J, n2,
# 1 + groups) interference arrays in _exact_sinr_capacities.  A destination
# or receiver that alone exceeds the budget forms a batch of one.
_BATCH_ENTRIES = 3 * 2**14


def riemann_zeta(s: float) -> float:
    """zeta(s) = sum_{i>=1} i**-s for s > 1, to absolute error < 1e-9.

    Partial sum to K terms plus the integral tail K**(1-s)/(s-1) with the
    Euler-Maclaurin endpoint and first curvature corrections; the truncation
    error is then of order s**3 * K**(-s-3).
    """
    if not s > 1.0:
        raise ValueError(f"zeta series diverges for s <= 1, got s={s}")
    k = _ZETA_TERMS
    i = np.arange(1, k + 1, dtype=float)
    partial = float(np.sum(i**-s))
    tail = k ** (1.0 - s) / (s - 1.0) - 0.5 * k**-s + (s / 12.0) * k ** (-s - 1.0)
    return partial + tail


def tdma_worst_case_capacity(d: float, n2: int, p1: float, alpha: float) -> float:
    """Closed-form worst-case link capacity with 8i interferers at ring i.

    Returns (1/n2) * log2(p1 / ((sqrt(2) d)**alpha + 2**(alpha/2+3) p1
    zeta(alpha-1))) for cell side d.  Diagnostic only: the interference term
    exceeds p1 for every alpha > 2, so the value is negative whenever it is
    finite.  The exact-geometry model below is what the rate pipeline uses.
    """
    if not d > 0:
        raise ValueError(f"cell side d must be > 0, got {d}")
    if not n2 >= 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    if not alpha > 2:
        raise ValueError(f"alpha must be > 2, got {alpha}")
    if not p1 >= 0:
        raise ValueError(f"p1 must be >= 0, got {p1}")
    if p1 == 0.0:
        return -math.inf
    denom = (math.sqrt(2.0) * d) ** alpha + 2.0 ** (alpha / 2.0 + 3.0) * p1 * riemann_zeta(alpha - 1.0)
    return math.log2(p1 / denom) / n2


def hier_capacity(n2: int, epsilon: float, c2: float) -> float:
    """Hierarchical-cooperation per-link rate guarantee c2 * n2**(-epsilon)."""
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    return c2 * n2 ** (-epsilon)


def _exact_sinr_capacities(
    realization: NetworkRealization, k: int, ranks: np.ndarray, params: NetworkParams
) -> np.ndarray:
    """Exact-geometry capacities of every in-group link into each rank of `ranks`.

    While pair (i, j) is served in group k, the rank-i member of every
    co-active group l transmits as well, so

        SINR_i = p1 |h_ij|**2 / (1 + p1 * sum_l |h_l|**2).

    Unit-modulus fading leaves every received power at its deterministic
    path-loss value, so the ergodic log2(1 + SINR) equals its single-draw
    value.  The in-set TDMA share contributes the 1/n2 prefactor, and every
    entry is >= 0 by construction.  Row r holds the capacities of links
    i -> ranks[r]; its entry ranks[r] is left for link_capacity to set.  Each
    chunk of receivers works in two chunk-sized float arrays.  The SINR reads
    p1 and alpha from `params`; callers check that ranks lie in group k.
    """
    n2 = realization.n2_of(k)
    cells = np.asarray(realization.group_cells)
    co_active = np.flatnonzero(((cells & 1) == (cells[k] & 1)).all(axis=1))
    groups = np.concatenate(([k], co_active[co_active != k]))
    # tx[i, c] is the rank-min(i, size - 1) member of groups[c], group k first.
    rank = np.arange(n2)
    tx = np.stack([realization.group_members[l].take(rank, mode="clip") for l in groups], axis=1)
    x, y = np.take(realization.dest_pos, tx, axis=0).transpose(2, 0, 1)
    caps = np.empty((ranks.size, n2))
    # Each chunk of receivers holds at most _BATCH_ENTRIES distances, or one
    # receiver's; a row's capacities do not depend on its chunk.
    chunk = max(1, _BATCH_ENTRIES // tx.size)
    scratch = np.empty((2, min(chunk, ranks.size)) + tx.shape)
    for lo in range(0, ranks.size, chunk):
        part = ranks[lo : lo + chunk]
        gain, dy2 = scratch[:, : part.size]
        # Squared distances first, then gains, in place.  Column 0 is group k
        # itself, so its row j is rank j's own position.
        np.square(np.subtract(x, x[part, :1, None], out=gain), out=gain)
        gain += np.square(np.subtract(y, y[part, :1, None], out=dy2), out=dy2)
        # Each row holds its receiver's own zero distance; any other zero is a clash.
        if np.count_nonzero(gain == 0.0) > part.size:
            raise ValueError("transmitter and receiver share a position")
        # Any positive value: link_capacity overwrites the self link.
        gain[np.arange(part.size), part, 0] = 1.0
        gain **= -params.alpha / 2.0
        gain *= params.p1
        caps[lo : lo + chunk] = np.log2(1.0 + gain[..., 0] / (1.0 + gain[..., 1:].sum(axis=-1))) / n2
    return caps


def exact_sinr_capacity(
    realization: NetworkRealization, k: int, pair: tuple[int, int], params: NetworkParams
) -> float:
    """Exact-geometry capacity of directed in-group link (rank i -> rank j).

    One entry of the matrix that link_capacity returns in tdma mode; see
    _exact_sinr_capacities for the SINR model.
    """
    n2 = realization.n2_of(k)
    i, j = pair
    if i == j or not (0 <= i < n2 and 0 <= j < n2):
        raise ValueError(f"pair {pair} is not a directed link of a group of size {n2}")
    return float(_exact_sinr_capacities(realization, k, np.array([j]), params)[0, i])


def link_capacity(
    realization: NetworkRealization, k: int, ranks: np.ndarray, params: NetworkParams
) -> np.ndarray:
    """Capacities of every in-group link into each receiver rank of `ranks`.

    Returns a (J, n2) matrix for group k whose entry (r, i) is the capacity
    of link i -> ranks[r] under params.mode; entry (r, ranks[r]), the
    receiver's own observation, is infinite in both modes, set here alone.
    """
    n2 = realization.n2_of(k)
    outside = ranks[(ranks < 0) | (ranks >= n2)]
    if outside.size:
        raise ValueError(
            f"{outside.size} of {ranks.size} ranks not in group {k} of size {n2}, first {outside[0]}"
        )
    if params.mode == "tdma":
        caps = _exact_sinr_capacities(realization, k, ranks, params)
    else:
        caps = np.full((ranks.size, n2), hier_capacity(n2, params.epsilon, params.c2))
    caps[np.arange(ranks.size), ranks] = math.inf
    return caps
