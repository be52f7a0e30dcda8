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
module's Monte Carlo capacity oracle.  de_logdet, a deterministic equivalent
of the same log-det, is the finite-size oracle the kernel is checked against;
no rate calls it.

The rate layer takes batches only.  sum_rate rates its sample one group at a
time, so achievable_rate, noise_profile, quantized_mimo_rate and
ergodic_logdet take J destinations (an array of ranks or a (J, n2) matrix)
with one generator each, and return results with a leading axis of J.

Phases are mapped from uniform draws by one of two kernels, chosen once at
import.  Where numpy's float64 tan runs a SIMD loop (AVX-512 on x86-64), the
half-angle tangent t = tan(pi u) gives cos 2 pi u = r - 1 and sin 2 pi u =
t r with r = 2 / (1 + t**2), equal to a complex exp within 5e-16 over 3e6
draws.  Elsewhere tan is a scalar loop several times slower, and a
4096-entry table of roots of unity times cos x + i sin x of the remaining
angle x < 2 pi / 4096, taken as the Taylor polynomials 1 - x**2/2 + x**4/24
and x - x**3/6, is faster; it is equal to a complex exp within 2e-15.  Both
take one uniform per entry in C order, so the random stream does not depend
on the kernel, but the phases' last bits do.  The draws are mapped in pieces
of at most 2**14 entries through the kernel's scratch arrays, which a caller
may lend, and written into a caller-owned output buffer when one is given.
The draws are unit phases only; the row scales enter where the Gram matrix
is formed.

The log-det kernel and its deterministic equivalent take a batch's row
scales as one (J, rows) matrix in which a zero, such as a dropped relay's,
is a row that is not there.  The kernel draws unit phases Th for each
channel's nonzero rows in blocks of trials of about 8192 phase entries,
into one phase buffer per channel, through one scratch set per call that
all its channels share.  Consecutive blocks write their Gram matrices into
one buffer spanning about 8192 Gram entries of trials, and each span gets
one diagonal add and one slogdet, so the working set stays in cache, and
memory grows with the trial count only by one float log-det per trial and
channel.  The Gram form is chosen for OpenBLAS on one thread, as the CLI,
its sweep workers and the scaling script run it
(harness._one_blas_thread): a tall channel (more rows than antennas)
of more than 2**19 complex multiply-adds per trial scales the interleaved
(re, im) float view x of its phase block in place to S = D Th, D =
diag(scale), and forms S'S as the real symmetric product x^T x, one BLAS
dsyrk with half the flops, folded into complex form.  Smaller tall channels
and every wide one take one complex product of Th with the copy D**2
conj(Th), which one multiply by a trial of interleaved (s**2, -s**2) row
weights writes where a conjugate copy would go: Th' D**2 Th = S'S when tall,
and Th Th' D**2 when wide, where det(I + Th Th' D**2) = det(I + S S') by
Sylvester's identity.  A tall channel whose row scales are so strongly
graded that forming S'S would lose its small eigenvalues raises
FloatingPointError instead of returning an inaccurate rate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .linkrate import link_capacity
from .netgeom import NetworkParams, NetworkRealization

# Distinguished quantization-noise value for a relay whose link is useless.
NO_RELAY = math.inf

_LOG2 = math.log(2.0)


def _simd_tan() -> bool:
    """Whether numpy's float64 tan runs a SIMD loop on this CPU.

    The tangent phase kernel is faster than the table kernel only then: on a
    2-core x86-64 machine with AVX-512 (numpy 2.4), tan costs about 2.7 ns an
    entry, and with AVX-512 disabled 20-24 ns, which made the tangent kernel
    2.1-2.5 times slower than the table.  numpy before 2.0 cannot report its
    loops, so it gets the table.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return False
    loops = opt_func_info(func_name="^tan$", signature="float64").get("tan", {})
    return any(not loop["current"].startswith("baseline") for loop in loops.values())


# Whether phase_matrix maps draws through the half-angle tangent (True) or
# through the root table (False).
_TANGENT_PHASES = _simd_tan()

# exp(2 pi i k / K) for k < K; K is a power of two, so splitting u * K into
# its integer and fractional parts is exact.
_PHASE_TABLE = np.exp(2j * np.pi * np.arange(2**12) / 2**12)
_PHASE_STEP = 2.0 * np.pi / _PHASE_TABLE.size
# Taylor coefficients of cos x and sin x in the table-step fraction y of the
# remaining angle x = _PHASE_STEP * y.
_COS2, _COS4 = _PHASE_STEP**2 / 2.0, _PHASE_STEP**4 / 24.0
_SIN3 = _PHASE_STEP**3 / 6.0

# Phase entries phase_matrix maps per pass through its scratch arrays, whose
# 16 bytes an entry (256 KiB) for the tangent kernel, or 40 (640 KiB) for the
# table kernel, stay in a 2 MiB per-core L2 cache.
_PIECE_ENTRIES = 2**14

# Phase entries per trial block of ergodic_logdet (at least one trial), and
# Gram entries per span of trials that share one slogdet call.
_BLOCK_ENTRIES = 2**13

# Complex multiply-adds rows * m * m of one trial's Gram product above which
# ergodic_logdet forms a tall channel's Gram S'S as the real symmetric
# product x^T x of the (re, im)-interleaved float view x of S: one BLAS dsyrk
# with half the flops, folded into complex form.  Smaller tall channels, and
# every wide one (whose x would first need a transposed copy), take one
# complex product with a conjugated copy of S.  The rule is set for OpenBLAS
# on one thread, as the CLI, its sweep workers and the scaling script run it
# (harness._one_blas_thread).  There, on a 2-core x86-64 machine with numpy
# 2.4 and OpenBLAS 0.3.31, per trial (medians of alternating runs):
#   - above 2**19, the real form was faster at 1024 x 32 (223 against
#     269 us), 200 x 64, 400 x 64 and 1485 x 128 (3.1 against 6.7 ms), and
#     within 5% at 150 x 64;
#   - at 2**19 and below, the complex form was faster at 128 x 64 (116
#     against 135 us), 100 x 32, 195 x 32 and 1024 x 8, within 5% at
#     255 x 32, 1024 x 16 and 512 x 32, and slower at 2048 x 16 (7%);
#   - the complex form was faster at every wide shape tried (24 to 128 rows
#     by 128 antennas; 128 x 128: 422 against 535 us).
# A library caller at OpenBLAS's default thread count may see the complex
# product, as well as the dsyrk, split across cores, which this rule does
# not model.
_REAL_FORM_MACS = 2**19

# Largest eps * m * sum(row_scale**2) for which the tall Gram S'S keeps the
# log-det accurate; beyond it roundoff swamps the small eigenvalues.
_TALL_GRAM_LIMIT = 1e-3

# Relative slack of check_rate_constraints's comparisons, for float roundoff.
_CONSTRAINT_RTOL = 1e-9

# Entries one destination batch of sum_rate may hold per (J, n2) matrix of
# capacities or noises, and in tdma in its interference distances (at most
# n2 * n1 per receiver); a destination that alone exceeds the budget forms a
# batch of one.
_BATCH_ENTRIES = 3 * 2**14


class _PhaseScratch:
    """Working arrays of phase_matrix, for pieces of up to `size` entries.

    `arrays` holds a piece's uniforms first, then the kernel's other arrays.
    """

    def __init__(self, entries: int) -> None:
        self.size = size = max(1, min(entries, _PIECE_ENTRIES))
        if _TANGENT_PHASES:
            self.arrays = tuple(np.empty((2, size)))
        else:
            self.arrays = (*np.empty((3, size)), np.empty(size, complex))


def _tangent_piece(theta: np.ndarray, t: np.ndarray, r: np.ndarray) -> None:
    """Map the uniforms u in `t` to exp(2 pi i u) in theta; `r` is scratch."""
    t *= np.pi
    np.tan(t, out=t)
    np.multiply(t, t, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.subtract(r, 1.0, out=theta.real)
    np.multiply(t, r, out=theta.imag)


def _table_piece(
    theta: np.ndarray, y: np.ndarray, y2: np.ndarray, t: np.ndarray, roots: np.ndarray
) -> None:
    """Map the uniforms in `y` to exp(2 pi i y) in theta; the rest is scratch."""
    y *= _PHASE_TABLE.size
    # y2 holds the integer part until it is cast into the table indices,
    # which share t's memory until the roots are gathered.
    np.floor(y, out=y2)
    idx = t.view(np.intp)[: t.size]
    np.copyto(idx, y2, casting="unsafe")
    # Indices lie in [0, 4096), so clipping changes none; unlike the
    # default mode it lets take write into `roots` without a buffer.
    np.take(_PHASE_TABLE, idx, out=roots, mode="clip")
    y -= y2
    np.multiply(y, y, out=y2)
    # cos x = 1 - y2 (_COS2 - y2 _COS4) and sin x = y (_PHASE_STEP - y2
    # _SIN3), through one scratch array.
    np.multiply(y2, _COS4, out=t)
    np.subtract(_COS2, t, out=t)
    t *= y2
    np.subtract(1.0, t, out=theta.real)
    np.multiply(y2, _SIN3, out=t)
    np.subtract(_PHASE_STEP, t, out=t)
    np.multiply(y, t, out=theta.imag)
    theta *= roots


def phase_matrix(
    rng: np.random.Generator,
    *shape: int,
    out: np.ndarray | None = None,
    scratch: _PhaseScratch | None = None,
) -> np.ndarray:
    """Complex array of the given shape with unit-modulus i.i.d. phases.

    Fading enters only through these phases, uniform on [0, 2*pi) and redrawn
    on every sample; magnitudes are deterministic path losses.  Each entry is
    exp(2 pi i u) for one uniform draw u, taken in C order.  Where numpy's
    float64 tan is a SIMD loop, it is evaluated from t = tan(pi u) as
    (r - 1) + i t r with r = 2 / (1 + t**2); otherwise as a table root of
    unity times cos x + i sin x for the remaining angle x < 2 pi / 4096,
    with cos x = 1 - x**2/2 + x**4/24 and sin x = x - x**3/6 (truncation
    errors below 2e-20 and 7.1e-17).  The kernel is fixed at import, so a
    process always gives the same bits; two hosts that choose different
    kernels differ in the last bits only, with the same generator end state.

    The result is written into `out` when given (a C-contiguous complex
    array of the shape) and returned; its bits and the generator's end state
    are those of a fresh call.  The draws are mapped in pieces of at most
    _PIECE_ENTRIES entries through `scratch`, a _PhaseScratch that a caller
    drawing many blocks allocates once.
    """
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    flat = out.reshape(-1)
    if scratch is None:
        scratch = _PhaseScratch(flat.size)
    piece = scratch.size
    kernel = _tangent_piece if _TANGENT_PHASES else _table_piece
    for lo in range(0, flat.size, piece):
        theta = flat[lo : lo + piece]
        work = scratch.arrays if theta.size == piece else [a[: theta.size] for a in scratch.arrays]
        rng.random(out=work[0])
        kernel(theta, *work)
    return out


def _gram(s: np.ndarray, g: np.ndarray, weight: np.ndarray, conj: np.ndarray | None) -> None:
    """Write the Gram matrices of the unit phase block s, row-scaled, into g.

    Without `conj`, S is tall and `weight` is the column of row scales: the
    float view of s is scaled in place to S = D Th, D = diag(scale), and S'S
    is formed in real form (see _REAL_FORM_MACS).  With `conj`, a buffer of
    s's shape, `weight` holds one trial of interleaved (s**2, -s**2), which
    turns s into the copy D**2 conj(Th): a tall block gets Th' D**2 Th = S'S,
    a wide one Th Th' D**2, of the same det(I + .) as S S' (Sylvester).
    """
    x = s.view(float)
    if conj is None:
        # With x the (re, im)-interleaved float view of S, x^T x is one
        # dsyrk, and its rows 2a and 2a + 1 read as complex fold into row a
        # of S'S.
        x *= weight
        p = np.matmul(x.swapaxes(-1, -2), x).view(complex)
        np.multiply(p[:, 1::2], -1j, out=g)
        g += p[:, ::2]
        return
    # Copied into every trial first: a multiply that broadcasts the weights
    # over trials takes numpy's 64 KiB buffered loop and runs slower.
    cf = conj[: len(s)].view(float)
    np.copyto(cf, weight)
    cf *= x
    c = cf.view(complex)
    if s.shape[-2] > s.shape[-1]:
        np.matmul(c.swapaxes(-1, -2), s, out=g)
    else:
        np.matmul(s, c.swapaxes(-1, -2), out=g)


def _block_trials(rows: int, m: int, trials: int) -> int:
    """Trials per phase block of a channel of `rows` rows (at least one)."""
    return max(1, min(trials, _BLOCK_ENTRIES // max(1, rows * m)))


def _channel_logdets(
    scale: np.ndarray, m: int, gen: np.random.Generator, out: np.ndarray, scratch: _PhaseScratch
) -> float:
    """Write one channel's natural log-dets into `out`, one per trial.

    Returns the seconds spent drawing phases.  The channel's buffers live
    only for this call, so a batch holds one channel's at a time; the phase
    kernel's `scratch` is the caller's, shared by the batch.
    """
    trials = out.size
    rows = scale.size
    k = min(rows, m)
    block = _block_trials(rows, m, trials)
    # Never shorter than a block, since k * k <= rows * m.
    span = max(1, min(trials, _BLOCK_ENTRIES // max(1, k * k)))
    phases = np.empty((block, rows, m), dtype=complex)
    if rows > m and rows * m * m > _REAL_FORM_MACS:
        weight, conj = scale[:, None], None
    else:
        # One trial of interleaved (s**2, -s**2), the float-view factor that
        # turns Th into D**2 conj(Th).
        weight, conj = np.outer(scale * scale, np.tile([1.0, -1.0], m)), np.empty_like(phases)
    gram = np.empty((span, k, k), dtype=complex)
    drawing = 0.0
    for lo in range(0, trials, span):
        hi = min(lo + span, trials)
        for b in range(lo, hi, block):
            e = min(b + block, hi)
            t0 = perf_counter()
            s = phase_matrix(gen, e - b, rows, m, out=phases[: e - b], scratch=scratch)
            drawing += perf_counter() - t0
            _gram(s, gram[b - lo : e - lo], weight, conj)
        g = gram[: hi - lo]
        g.reshape(hi - lo, k * k)[:, :: k + 1] += 1.0
        out[lo:hi] = np.linalg.slogdet(g)[1]
    return drawing


def ergodic_logdet(
    row_scales: np.ndarray,
    m: int,
    trials: int,
    rngs: Sequence[np.random.Generator],
    timings: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo means and standard errors of log2 det(I + S S'), one per channel.

    Channel r's row scales s are row r's nonzero entries, in order: a zero
    is a row that is not there.  S = diag(s) Th with Th a fresh (s.size, m)
    phase matrix per trial, drawn from rngs[r] by phase_matrix.  Returns two
    (J,) arrays; an all-zero row gives 0 and leaves its generator untouched.
    The determinant is evaluated on the smaller side of the product.  Each
    channel's trials are drawn in consecutive blocks, which consume the same
    random stream as one draw of every trial; consecutive blocks write their
    Gram matrices into one span of trials, and each span goes through one
    slogdet call into a (J, trials) array of log-dets.  The seconds spent
    drawing the unit phases are added to timings["phase"], the rest (row
    scaling, Gram products and slogdet) to timings["gram"].  Raises, before
    any draw, ValueError unless there is one generator per channel, and
    FloatingPointError when a channel has rows > m and row scales too large
    for the m x m Gram S'S to resolve det(I + S'S).
    """
    start = perf_counter()
    if len(rngs) != len(row_scales):
        raise ValueError(f"{len(row_scales)} channels need as many generators, got {len(rngs)}")
    counts = np.count_nonzero(row_scales, axis=1).tolist()
    for scale, rows in zip(row_scales, counts):
        if rows > m and np.finfo(float).eps * m * (scale @ scale) > _TALL_GRAM_LIMIT:
            raise FloatingPointError(
                f"row scales up to {scale.max():.3g} over {rows} rows are too "
                f"large for an accurate {m}x{m} Gram log-det"
            )
    vals = np.empty((len(row_scales), trials))
    # One scratch set for every channel, sized for the largest block: one
    # set per channel would be freed and faulted back in channel by channel.
    scratch = _PhaseScratch(
        max((_block_trials(rows, m, trials) * rows * m for rows in counts), default=0)
    )
    drawing = sum(
        _channel_logdets(scale[scale != 0.0], m, gen, out, scratch)
        for out, scale, gen in zip(vals, row_scales, rngs)
    )
    vals /= _LOG2
    mean = vals.mean(axis=-1)
    stderr = vals.std(ddof=1, axis=-1) / math.sqrt(trials) if trials > 1 else np.zeros(len(vals))
    timings["phase"] += drawing
    timings["gram"] += perf_counter() - start - drawing
    return mean, stderr


def de_logdet(row_scales: np.ndarray, m: int) -> np.ndarray:
    """Deterministic equivalent of E log2 det(I + S S'), one per channel.

    The finite-size oracle of ergodic_logdet, for the same (J, n) matrix of
    row scales s and S = diag(s) Th.  With d = s**2, t solves
    t = 1 / (1 + sum_i d_i t_i), t_i = 1 / (1 + m d_i t), and in nats

        C = sum_i log(1 + m d_i t) + m log(1 + sum_i d_i t_i)
            - m t sum_i d_i t_i + (m/2) t**2 sum_i d_i**2 t_i**2.

    The first three terms are the limit for Gaussian entries with a row
    variance profile (Hachem, Loubaton and Najim, Ann. Appl. Probab. 2007);
    the last corrects it for unit-modulus phases, whose fourth cumulant
    E|th|**4 - 2 is -1.  t is the root of the increasing, concave
    g(x) = x (1 + sum_i d_i / (1 + m d_i x)) = 1, so Newton's method from
    x = 0 rises monotonically to it; each channel's x stops when it stops
    rising.  The channels are solved together, and a zero, a row that is not
    there, adds nothing to any sum.  Returns a (J,) array; an all-zero row
    gives 0.
    """
    d = row_scales * row_scales
    md = m * d
    x = np.zeros(len(d))
    while True:
        t = 1.0 / (1.0 + md * x[:, None])
        du = d * t
        sum_du = du.sum(axis=1)
        nxt = x + (1.0 - x * (1.0 + sum_du)) / (1.0 + (du * t).sum(axis=1))
        rising = nxt > x
        if not rising.any():
            break
        x = np.where(rising, nxt, x)
    nats = (
        np.log1p(md * x[:, None]).sum(axis=1) + m * np.log1p(sum_du) - m * x * sum_du
        + 0.5 * m * x * x * (du * du).sum(axis=1)
    )
    return nats / _LOG2


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
    # Messages give a count and the first offender: one line at any size.
    low = e_y2[~(e_y2 >= 1.0)]
    if low.size:
        raise ValueError(
            f"received power must include unit noise, got {low.size} of {e_y2.size} "
            f"values not >= 1, first {low[0]}"
        )
    nan = np.count_nonzero(np.isnan(c_link))
    if nan:
        raise ValueError(f"link capacity must not be NaN, got {nan} NaN of {c_link.size}")
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
    rngs: Sequence[np.random.Generator],
    timings: dict[str, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo decode rates of J destinations of one group.

    Row r of the (J, n2) noise matrix is destination r's noise profile, and
    its rate averages log2 det(I + (p0/m) G Th Th' G Q^{-1}) over fresh phase
    draws from rngs[r], with rows of NO_RELAY noise dropped.  Returns three (J,)
    arrays (rate, standard error, mean log-det), where rate = (delta/n) *
    mean log-det.  Their (J, n2) row scales, 0 at NO_RELAY, go to one
    ergodic_logdet call, which adds its seconds to `timings`.
    """
    # det(I + c G Th Th' G Q^{-1}) = det(I + S S') with S = diag(row_scale) Th,
    # since G and Q are diagonal and commute; 1 / sqrt(inf) drops a relay.
    row_scales = math.sqrt(p0 / m) * gamma / np.sqrt(1.0 + noises)
    mean, stderr = ergodic_logdet(row_scales, m, trials, rngs, timings)
    share = delta / n
    return share * mean, share * stderr, mean


def noise_profile(
    realization: NetworkRealization, k: int, ranks: np.ndarray, params: NetworkParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Link capacities, quantization noises and received powers of J targets.

    Each result is a (J, n2) matrix whose row r belongs to target rank
    ranks[r] of group k, and whose entry i belongs to relay rank i.
    noises[r, i] is the variance relay i adds on its forwarded observation
    (NO_RELAY when the link is unusable, exactly 0 for the target's own
    unquantized observation); caps[r, i] is the capacity that produced it
    (infinite for the self link).  The powers do not depend on the target,
    so that matrix is a read-only broadcast of one row.
    """
    n2 = realization.n2_of(k)
    powers = received_power(realization, k, np.arange(n2), params.p0, params.alpha)
    caps = link_capacity(realization, k, ranks, params)
    noises = quantization_noise(powers, caps, params.delta, realization.n, n2)
    # The target's own observation is not quantized.
    noises[np.arange(ranks.size), ranks] = 0.0
    return caps, noises, np.broadcast_to(powers, noises.shape)


@dataclass
class DestinationRate:
    """Rate estimate of one destination, and its link/noise bookkeeping.

    The bookkeeping, four n2-vectors over relay ranks, is rebuilt bit for bit
    from the realization and params on first read: link_capacities and noises
    (a noise_profile row) and the rate-constraint audit (check_rate_constraints).
    """

    group: int
    rank: int
    dest_index: int
    rate: float
    stderr: float
    mean_logdet: float
    realization: NetworkRealization = field(repr=False, compare=False)
    params: NetworkParams = field(repr=False, compare=False)

    @cached_property
    def _bookkeeping(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        profile = noise_profile(self.realization, self.group, np.array([self.rank]), self.params)
        caps, noises, powers = (a[0] for a in profile)
        delta, n2 = self.params.delta, noises.size
        usable = np.isfinite(noises)
        with np.errstate(divide="ignore"):
            fidelity = np.log2(1.0 + powers / noises)
        # An unused relay forwards nothing.  Where the noise underflowed to zero
        # (the self link included) the fidelity bound coincides with the link
        # budget exponent, infinite for the self link.
        budget_expo = (1.0 - delta) / delta * (self.realization.n / (4.0 * n2)) * caps
        mi_quantize = np.where(usable, np.where(noises > 0.0, fidelity, budget_expo), 0.0)
        # A usable relay is granted exactly its relay-phase budget
        # (1-delta)/(4 n2) of the link capacity; the self link's is infinite.
        quantizer_rates = np.where(usable, (1.0 - delta) / (4.0 * n2) * caps, 0.0)
        return caps, noises, quantizer_rates, mi_quantize

    link_capacities, noises, quantizer_rates, mi_quantize = (
        property(lambda self, i=i: self._bookkeeping[i]) for i in range(4)
    )


def achievable_rate(
    realization: NetworkRealization,
    k: int,
    ranks: np.ndarray,
    params: NetworkParams,
    rngs: Sequence[np.random.Generator],
    timings: dict[str, float],
) -> tuple[list[DestinationRate], np.ndarray, np.ndarray]:
    """Quantize-and-forward rates of destination ranks `ranks` of group k.

    Rates the batch with one generator per rank, and returns one
    DestinationRate per rank, in order, and the batch's (J, n2) capacities
    and noises from noise_profile.  The seconds spent on link capacities
    plus quantization noise are added to timings["link"], those of the
    Monte Carlo log-det to timings["phase"] and timings["gram"] (see
    ergodic_logdet).
    """
    t0 = perf_counter()
    caps, noises, _ = noise_profile(realization, k, ranks, params)
    d = realization.group_distances(k)
    gamma = (d[-1] / d) ** (params.alpha / 2.0)
    timings["link"] += perf_counter() - t0
    rate, stderr, mean_logdet = quantized_mimo_rate(
        gamma, noises, params.p0, params.m, params.delta, realization.n, params.trials, rngs, timings
    )
    return [
        DestinationRate(
            group=k,
            rank=int(rank),
            dest_index=int(realization.group_members[k][rank]),
            rate=float(rate[r]),
            stderr=float(stderr[r]),
            mean_logdet=float(mean_logdet[r]),
            realization=realization,
            params=params,
        )
        for r, rank in enumerate(ranks)
    ], caps, noises


def check_rate_constraints(
    r: float,
    r_q: np.ndarray,
    c: np.ndarray,
    mi_quantize: np.ndarray,
    mi_decode: float,
    delta: float,
    n: int,
    n2: int,
) -> bool:
    """Validate the quantize-and-forward rate-constraint system.

    True iff, for every relay i,
        r_q[i] <= (1-delta)/(4 n2) * c[i]          (link budget)
        r_q[i] >= (delta/n) * mi_quantize[i]       (quantizer fidelity)
    and r <= (delta/n) * mi_decode                 (decoder).
    Comparisons allow a relative slack _CONSTRAINT_RTOL for float roundoff; an
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
        return _CONSTRAINT_RTOL * (1.0 + np.minimum(np.abs(bound), fmax))

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
    r_sum = n * r_ind exactly.  r_sum_stderr is n times the standard error of
    the minimizing destination's mean over its `trials` phase draws; it
    covers neither the spread across networks (other seeds) nor the bias of
    a sampled minimum above the exact one.  n_max is the largest finite
    quantization noise seen, c_link_min the smallest relay-link capacity,
    self links excluded (NaN when no sampled destination has a relay).  The
    report keeps its realization alive (see DestinationRate).  timings holds
    the wall seconds spent on link capacities plus quantization noise
    ("link"), on phase draws ("phase") and on Gram matrices and log-dets
    ("gram").
    """

    n: int
    destinations: list[DestinationRate]
    r_ind: float
    r_sum: float
    r_sum_stderr: float
    n_max: float
    c_link_min: float
    timings: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    @property
    def sample_size(self) -> int:
        return len(self.destinations)


def _batch_size(realization: NetworkRealization, k: int, params: NetworkParams) -> int:
    """Destinations of group k one achievable_rate call may rate together."""
    per_dest = realization.n2_of(k) * (realization.n1 if params.mode == "tdma" else 1)
    return max(1, _BATCH_ENTRIES // per_dest)


def sum_rate(
    realization: NetworkRealization,
    params: NetworkParams,
    rng: np.random.Generator,
) -> RateReport:
    """Estimate the achievable sum rate n * min_j R(j) on a realization.

    Evaluates achievable_rate on a uniform sample of params.sample_size
    destinations (all of them when it is at least n); each one consumes an
    independent substream seeded from rng, so evaluation order and worker
    count cannot change the result.  The sample is rated in batches of
    destinations sharing a group, at most _batch_size of them at a time, and
    reported in sampling order.
    """
    n = realization.n
    if params.sample_size >= n:
        chosen = np.arange(n)
    else:
        chosen = rng.choice(n, size=params.sample_size, replace=False)
    dest_seeds = rng.integers(0, 2**63, size=chosen.size)

    groups = realization.groups_of(chosen)
    order = np.argsort(groups, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(groups[order])) + 1)
    destinations = [None] * chosen.size
    timings = {"link": 0.0, "phase": 0.0, "gram": 0.0}
    n_max, relay_cap_mins = 0.0, []
    for run in runs:
        k = int(groups[run[0]])
        # A destination's rank is its position in the group's members.
        members = realization.group_members[k]
        by_index = np.argsort(members)
        run_ranks = by_index[np.searchsorted(members, chosen[run], sorter=by_index)]
        size = _batch_size(realization, k, params)
        for lo in range(0, run.size, size):
            batch = run[lo : lo + size]
            rngs = [np.random.default_rng(int(seed)) for seed in dest_seeds[batch]]
            ranks = run_ranks[lo : lo + size]
            rated, caps, noises = achievable_rate(realization, k, ranks, params, rngs, timings)
            for index, dr in zip(batch, rated):
                destinations[index] = dr
            n_max = max(n_max, float(noises[np.isfinite(noises)].max(initial=0.0)))
            if caps.shape[1] > 1:  # self links are infinite, so this is a relay link's
                relay_cap_mins.append(float(caps.min()))

    worst = min(destinations, key=lambda dr: dr.rate)
    return RateReport(
        n=n,
        destinations=destinations,
        r_ind=worst.rate,
        r_sum=n * worst.rate,
        r_sum_stderr=n * worst.stderr,
        n_max=n_max,
        c_link_min=min(relay_cap_mins, default=math.nan),
        timings=timings,
    )
