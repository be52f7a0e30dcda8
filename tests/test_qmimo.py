import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmimo import (
    NO_RELAY,
    NetworkParams,
    achievable_rate,
    check_rate_constraints,
    derive_rng,
    link_capacity,
    noise_profile,
    phase_matrix,
    place_nodes,
    point_params,
    quantization_noise,
    quantized_mimo_rate,
    realization_from_positions,
    received_power,
    sum_rate,
)
from qfmimo import qmimo
from qfmimo.qmimo import ergodic_logdet

# One group at source distances (0.5, 0.6).
TWO_MEMBER = realization_from_positions(
    np.array([[0.0, 0.5], [0.02, 0.86]]), grid_side=1
)


# The rate layer takes batches only; these rate a batch of one and unpack it.


def _timings():
    return {"link": 0.0, "phase": 0.0, "gram": 0.0}


def _rate_one(gamma, noises, p0, m, delta, n, trials, rng):
    rate, stderr, mean = quantized_mimo_rate(
        gamma, noises[None], p0, m, delta, n, trials, [rng], _timings()
    )
    return rate[0], stderr[0], mean[0]


def _logdet_one(row_scale, m, trials, rng):
    mean, stderr = ergodic_logdet(row_scale[None], m, trials, [rng], _timings())
    return mean[0], stderr[0]


def _padded(vectors):
    """Row-scale vectors of any lengths as one zero-padded (J, rows) matrix."""
    out = np.zeros((len(vectors), max((v.size for v in vectors), default=0)))
    for row, v in zip(out, vectors):
        row[: v.size] = v
    return out


def _destination_rate(realization, k, j, params, rng):
    return achievable_rate(realization, k, np.array([j]), params, [rng], _timings())[0][0]


# ---------------------------------------------------------------------------
# received power
# ---------------------------------------------------------------------------


def test_received_power_farthest_member():
    assert received_power(TWO_MEMBER, 0, 1, p0=3.0, alpha=4.0) == pytest.approx(4.0)


def test_received_power_ratio():
    # p0 (0.6/0.5)**4 + 1 = 3.0736
    assert received_power(TWO_MEMBER, 0, 0, p0=1.0, alpha=4.0) == pytest.approx(3.0736)


def test_received_power_no_signal():
    assert received_power(TWO_MEMBER, 0, 0, p0=0.0, alpha=4.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# quantization noise
# ---------------------------------------------------------------------------


def test_noise_exact_unit_exponent():
    # exponent = ((1-.5)/.5) * (16/16) * 1 = 1, so N = 2 / (2**1 - 1) = 2.
    assert quantization_noise(2.0, 1.0, 0.5, 16, 4) == 2.0


def test_noise_strictly_decreasing_in_capacity():
    caps = np.linspace(0.5, 5.0, 10)
    values = [quantization_noise(2.0, c, 0.5, 16, 4) for c in caps]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_noise_vanishes_for_perfect_links():
    assert quantization_noise(2.0, 1e3, 0.5, 16, 4) < 1e-290
    assert quantization_noise(2.0, 1e9, 0.5, 16, 4) == 0.0


def test_noise_no_relay_sentinel():
    assert quantization_noise(2.0, 0.0, 0.5, 16, 4) == NO_RELAY
    assert quantization_noise(2.0, -1.0, 0.5, 16, 4) == NO_RELAY


def test_noise_array_call_matches_scalar_cases():
    caps = np.array([1.0, 1e3, 1e9, 0.0, -1.0, math.inf])
    noises = quantization_noise(np.full(caps.size, 2.0), caps, 0.5, 16, 4)
    assert noises.shape == caps.shape
    assert noises[0] == 2.0
    assert 0.0 < noises[1] < 1e-290
    assert noises[2] == 0.0  # 2**expo overflows
    assert noises[3] == noises[4] == NO_RELAY
    assert noises[5] == 0.0  # self link
    for c, value in zip(caps, noises):
        assert quantization_noise(2.0, float(c), 0.5, 16, 4) == value


def test_noise_requires_unit_noise_floor():
    with pytest.raises(ValueError):
        quantization_noise(0.5, 1.0, 0.5, 16, 4)
    with pytest.raises(ValueError):
        quantization_noise(np.array([2.0, 0.5]), np.ones(2), 0.5, 16, 4)


def test_noise_rejects_nan_capacity():
    # A NaN capacity must not pass for an unusable link and drop its relay.
    with pytest.raises(ValueError):
        quantization_noise(2.0, math.nan, 0.5, 16, 4)
    with pytest.raises(ValueError):
        quantization_noise(np.full(2, 2.0), np.array([1.0, math.nan]), 0.5, 16, 4)


def test_array_errors_give_a_count_on_one_line():
    # Formatting a whole offending matrix would spread the CLI's error line
    # over many lines; the message gives a count and the first offender.
    e_y2 = np.full((40, 50), 2.0)
    e_y2[3, 7], e_y2[9, 1] = 0.5, 0.25
    with pytest.raises(ValueError, match=r"^[^\n]*2 of 2000 values not >= 1, first 0\.5$"):
        quantization_noise(e_y2, np.ones_like(e_y2), 0.5, 16, 4)
    with pytest.raises(ValueError, match=r"^[^\n]*got 2000 NaN of 2000$"):
        quantization_noise(np.full((40, 50), 2.0), np.full((40, 50), math.nan), 0.5, 16, 4)
    p = NetworkParams(m=4, beta=2.0, seed=6)
    r = place_nodes(p, derive_rng(p.seed, 0))
    n2 = r.n2_of(0)
    ranks = np.arange(-10, n2 + 20)
    message = rf"^30 of {ranks.size} ranks not in group 0 of size {n2}, first -10$"
    with pytest.raises(ValueError, match=message):
        link_capacity(r, 0, ranks, p)


def test_noise_profile_shape_and_self_link():
    p = NetworkParams(m=3, beta=2.0, seed=14, trials=8)
    r = place_nodes(p, derive_rng(p.seed, 0))
    k = int(np.argmax([r.n2_of(g) for g in range(r.n1)]))
    j = r.n2_of(k) - 1
    caps, noises, powers = (x[0] for x in noise_profile(r, k, np.array([j]), p))
    assert caps.shape == noises.shape == powers.shape == (r.n2_of(k),)
    assert noises[j] == 0.0
    assert caps[j] == math.inf
    others = np.delete(noises, j)
    assert np.all(others > 0.0)  # p1 > 0 makes every relay link usable
    assert np.all(powers >= 1.0)
    # farthest member receives exactly p0 + 1
    assert powers[-1] == pytest.approx(p.p0 + 1.0)


@given(
    e_y2=st.floats(1.0, 50.0),
    c=st.floats(0.01, 10.0),
    bump=st.floats(0.01, 5.0),
)
@settings(max_examples=50)
def test_noise_monotone_property(e_y2, c, bump):
    lo = quantization_noise(e_y2, c + bump, 0.5, 64, 8)
    hi = quantization_noise(e_y2, c, 0.5, 64, 8)
    assert lo <= hi


# ---------------------------------------------------------------------------
# quantized MIMO decode rate
# ---------------------------------------------------------------------------


def test_rate_single_member_is_deterministic():
    rate, stderr, mean = _rate_one(
        np.ones(1), np.zeros(1), p0=1.0, m=1, delta=0.5, n=1, trials=32,
        rng=derive_rng(0),
    )
    assert rate == pytest.approx(0.5)  # (delta/n) log2(1 + p0)
    assert mean == pytest.approx(1.0)
    assert stderr < 1e-12


def test_rate_monotone_in_noise_at_fixed_phases():
    gamma = np.array([2.0, 1.5, 1.0])
    base = np.array([0.2, 0.5, 1.0])
    r1, _, _ = _rate_one(gamma, base, 1.0, 4, 0.5, 27, 64, derive_rng(5))
    r2, _, _ = _rate_one(gamma, base + 0.7, 1.0, 4, 0.5, 27, 64, derive_rng(5))
    assert r2 < r1


def test_quantized_never_beats_unquantized():
    gamma = np.array([3.0, 1.2, 1.0, 1.0])
    clean, _, _ = _rate_one(gamma, np.zeros(4), 1.0, 8, 0.5, 64, 64, derive_rng(9))
    noisy, _, _ = _rate_one(gamma, np.full(4, 2.0), 1.0, 8, 0.5, 64, 64, derive_rng(9))
    assert noisy < clean


def test_no_relay_rows_are_dropped():
    gamma = np.array([1.0, 5.0])
    with_drop, _, _ = _rate_one(
        gamma, np.array([0.0, NO_RELAY]), 1.0, 3, 0.5, 10, 16, derive_rng(4)
    )
    alone, _, _ = _rate_one(
        gamma[:1], np.zeros(1), 1.0, 3, 0.5, 10, 16, derive_rng(4)
    )
    assert with_drop == alone


def test_no_relay_inside_a_batch_is_a_zero_row_scale_without_warning():
    # 1 / sqrt(1 + inf) is exactly 0 with no RuntimeWarning, which pyproject
    # turns into an error; the dropped middle relay leaves the other rows'
    # bits and the generators' end states as if it were never there.
    gamma = np.array([2.0, 1.5, 1.0])
    noises = np.array([[0.0, NO_RELAY, 0.4], [0.3, 0.0, 0.4]])
    rngs, twins = [derive_rng(50), derive_rng(51)], [derive_rng(50), derive_rng(51)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = quantized_mimo_rate(gamma, noises, 1.0, 4, 0.5, 10, 16, rngs, _timings())
    kept = _rate_one(gamma[[0, 2]], noises[0, [0, 2]], 1.0, 4, 0.5, 10, 16, twins[0])
    full = _rate_one(gamma, noises[1], 1.0, 4, 0.5, 10, 16, twins[1])
    for r, want in enumerate((kept, full)):
        assert [v[r].hex() for v in got] == [v.hex() for v in want]
        assert rngs[r].bit_generator.state == twins[r].bit_generator.state


def test_all_rows_dropped_gives_zero_rate():
    rate, stderr, mean = _rate_one(
        np.ones(2), np.full(2, NO_RELAY), 1.0, 3, 0.5, 10, 16, derive_rng(4)
    )
    assert (rate, stderr, mean) == (0.0, 0.0, 0.0)


def test_rate_uses_small_side_of_product():
    # The small-side determinant must agree with the literal n2 x n2 form.
    gamma = np.array([2.0, 1.4, 1.1, 1.0, 1.0])
    noises = np.array([0.1, 0.3, 0.0, 0.9, 0.2])
    m, p0 = 2, 1.3
    rate, _, _ = _rate_one(gamma, noises, p0, m, 0.5, 25, 8, derive_rng(11))
    vals = []
    theta = phase_matrix(derive_rng(11), 8, 5, m)
    for t in range(8):
        g = np.diag(gamma)
        qinv = np.diag(1.0 / (1.0 + noises))
        mat = np.eye(5) + (p0 / m) * g @ theta[t] @ theta[t].conj().T @ g @ qinv
        vals.append(math.log2(abs(np.linalg.det(mat))))
    assert rate == pytest.approx((0.5 / 25) * np.mean(vals), rel=1e-10)


@pytest.mark.parametrize("rows, m, trials", [(37, 5, 23), (4, 9, 17), (3, 3, 1)])
def test_logdet_independent_of_trial_block(monkeypatch, rows, m, trials):
    # One trial per block and span, every trial in one block, and spans
    # that do not divide the trial count (200 entries: 37 x 5 takes spans of
    # 8 one-trial blocks over 23 trials, 4 x 9 spans of 12 trials in blocks
    # of 5, 5 and 2 over 17) draw the same stream and give the same estimate.
    row_scale = np.linspace(0.3, 3.0, rows)
    results = []
    for entries in (1, 200, 2**40):
        monkeypatch.setattr(qmimo, "_BLOCK_ENTRIES", entries)
        rng = derive_rng(8)
        results.append((_logdet_one(row_scale, m, trials, rng), rng.bit_generator.state))
    whole, whole_state = results[-1]
    for estimate, state in results[:-1]:
        assert estimate == pytest.approx(whole, rel=1e-13, abs=0.0)
        assert state == whole_state


@pytest.mark.parametrize("rows", [195, 1024])
def test_logdet_takes_one_slogdet_per_span(monkeypatch, rows):
    # A 32-antenna channel draws one trial per block (195 x 32 and 1024 x 32
    # exceed 8192 phase entries) but spans 8192 // 32**2 = 8 trials of Gram
    # matrices per slogdet call: 100 trials take 13 calls, not 100.
    calls = []
    slogdet = np.linalg.slogdet

    def spy(a):
        calls.append(a.shape)
        return slogdet(a)

    monkeypatch.setattr(qmimo.np.linalg, "slogdet", spy)
    _logdet_one(np.linspace(0.01, 0.1, rows), 32, 100, derive_rng(14))
    assert calls == [(8, 32, 32)] * 12 + [(4, 32, 32)]


def test_logdet_builds_one_phase_scratch_per_call(monkeypatch):
    # 40 channels of 1 to 40 rows share one scratch set, sized for the
    # largest block (8 trials of 40 x 8 entries); a set per channel would
    # be freed and faulted back in channel after channel.
    sizes = []
    scratch = qmimo._PhaseScratch

    def spy(entries):
        sizes.append(entries)
        return scratch(entries)

    monkeypatch.setattr(qmimo, "_PhaseScratch", spy)
    row_scales = _padded([np.full(rows, 0.5) for rows in range(1, 41)])
    ergodic_logdet(row_scales, 8, 8, [derive_rng(r) for r in range(40)], _timings())
    assert sizes == [8 * 40 * 8]


def test_logdet_memory_independent_of_trials():
    # Phases and Gram matrices live one block at a time; only the float
    # log-det of each trial (8 bytes) scales with the trial count.
    ergodic_logdet(np.ones((1, 1024)), 32, 2, [derive_rng(9)], _timings())  # warm numpy paths
    peaks = []
    for trials in (100, 2000):
        tracemalloc.start()
        try:
            ergodic_logdet(np.ones((1, 1024)), 32, trials, [derive_rng(9)], _timings())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8e6
    assert abs(peaks[1] - peaks[0]) < 8 * 2000 + 2**16


def test_tall_logdet_memory_holds_one_trial_of_phases():
    # One 1485 x 128 channel, as at m = 128: beyond one trial's phase buffer,
    # the kernel may hold only a Gram block and a scratch set of bounded
    # size, never a temporary the size of the phase matrix.
    rows, m, trials = 1485, 128, 4
    phase_bytes = rows * m * 16
    scale = np.full((1, rows), 0.05)
    ergodic_logdet(scale, m, 1, [derive_rng(12)], _timings())  # warm numpy paths
    tracemalloc.start()
    try:
        ergodic_logdet(scale, m, trials, [derive_rng(12)], _timings())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < phase_bytes + 2**21


@pytest.mark.parametrize("tangent", [True, False], ids=["tangent", "table"])
@pytest.mark.parametrize("rows, m, real_form", [(20, 8, False), (1024, 32, True)])
def test_logdet_memory_holds_unit_phase_buffers(monkeypatch, tangent, rows, m, real_form):
    # A warm 100-trial call holds its phase block, the Gram span, the phase
    # kernel's scratch set (16 bytes an entry of a piece for the tangent
    # kernel, 40 for the table) and the log-dets; in complex form also the
    # conjugate copy and one trial of (s**2, -s**2) row weights.  Beyond
    # them only numpy's 64 KiB ufunc buffer and small temporaries: no
    # per-entry copies of the row scales.
    monkeypatch.setattr(qmimo, "_TANGENT_PHASES", tangent)
    assert (rows * m * m > qmimo._REAL_FORM_MACS) is real_form
    trials, k = 100, min(rows, m)
    block = max(1, min(trials, qmimo._BLOCK_ENTRIES // (rows * m)))
    span = min(trials, qmimo._BLOCK_ENTRIES // (k * k))
    phase_bytes = block * rows * m * 16
    buffers = (
        phase_bytes
        + (0 if real_form else phase_bytes + rows * m * 16)
        + span * k * k * 16
        + (16 if tangent else 40) * min(block * rows * m, qmimo._PIECE_ENTRIES)
        + trials * 8
    )
    scale = np.linspace(0.1, 1.0, rows)
    _logdet_one(scale, m, trials, derive_rng(16))  # warm numpy paths
    tracemalloc.start()
    try:
        _logdet_one(scale, m, trials, derive_rng(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffers + 80 * 1024


def test_complex_form_gram_of_many_trials_allocates_no_ufunc_buffer():
    # One trial of (s**2, -s**2) weights applied to a 51-trial block, as in
    # a 20 x 8 channel: a multiply that broadcasts them over the trials
    # would take numpy's 64 KiB ufunc buffer.
    trials, rows, m = 51, 20, 8
    s = phase_matrix(derive_rng(17), trials, rows, m)
    scale = np.linspace(0.1, 1.0, rows)
    weight = np.outer(scale * scale, np.tile([1.0, -1.0], m))
    conj, gram = np.empty_like(s), np.empty((trials, m, m), dtype=complex)
    qmimo._gram(s, gram, weight, conj)  # warm numpy paths
    tracemalloc.start()
    try:
        qmimo._gram(s, gram, weight, conj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    d2_conj = scale[:, None] ** 2 * s.conj()
    np.testing.assert_allclose(gram, d2_conj.swapaxes(-1, -2) @ s, rtol=1e-13, atol=1e-13)


def test_logdet_refuses_ill_conditioned_tall_gram():
    # Row scales spanning eight decades: S'S on the m side cannot resolve
    # det(I + S'S), while the rows x rows side stays accurate.  There the
    # kernel takes the non-Hermitian Th Th' D**2 of Sylvester's identity,
    # which must match the Hermitian S S' on the same phases.
    row_scale = np.logspace(0.0, 8.0, 6)
    with pytest.raises(FloatingPointError):
        _logdet_one(row_scale, 4, 8, derive_rng(10))
    for m in (6, 8):
        mean, stderr = _logdet_one(row_scale, m, 8, derive_rng(10))
        ref_mean, ref_stderr = _complex_product_logdet(row_scale, m, 8, derive_rng(10))
        assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
        assert stderr == pytest.approx(ref_stderr, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "m, rows",
    [(128, (24, 200, 0, 8, 24)), (16, (3000, 0, 40, 8))],
    ids=["wide_both_forms", "tall_both_forms"],
)
def test_ragged_logdet_matches_one_channel_at_a_time(m, rows):
    # Channels of different lengths in one call, zero-padded into one
    # matrix: wide and tall, in real and complex form (see _REAL_FORM_MACS),
    # and one with no rows.  Each must give the bits and the generator end
    # state of a call on that channel alone.
    forms = {r > m and r * m * m > qmimo._REAL_FORM_MACS for r in rows if r}
    assert forms == {True, False}
    trials = 5
    scales = [np.linspace(0.2, 1.5, r) for r in rows]
    rngs = [derive_rng(30 + i) for i in range(len(rows))]
    twins = [derive_rng(30 + i) for i in range(len(rows))]
    fresh = [derive_rng(30 + i).bit_generator.state for i in range(len(rows))]
    means, stderrs = ergodic_logdet(_padded(scales), m, trials, rngs, _timings())
    assert means.shape == stderrs.shape == (len(rows),)
    for r, scale, mean, stderr, rng, twin, state in zip(
        rows, scales, means, stderrs, rngs, twins, fresh
    ):
        want = _logdet_one(scale, m, trials, twin)
        assert (mean.hex(), stderr.hex()) == (want[0].hex(), want[1].hex())
        assert rng.bit_generator.state == twin.bit_generator.state
        if r == 0:
            assert (mean, stderr) == (0.0, 0.0)
            assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "rows, m", [(24, 128), (40, 16), (3000, 16)], ids=["wide", "tall_complex", "tall_real"]
)
def test_zero_row_scales_are_rows_that_are_not_there(rows, m):
    # A channel's rows are its row's nonzero entries in order: zeros
    # interspersed give the bits and the generator end state of the
    # compacted row.
    assert (rows > m and rows * m * m > qmimo._REAL_FORM_MACS) is (rows == 3000)
    scale = np.linspace(0.2, 1.5, rows)
    spread = np.zeros((1, 2 * rows + 3))
    spread[0, np.sort(derive_rng(40).choice(spread.size, rows, replace=False))] = scale
    rng, twin = derive_rng(41), derive_rng(41)
    got = ergodic_logdet(spread, m, 5, [rng], _timings())
    want = _logdet_one(scale, m, 5, twin)
    assert (got[0][0].hex(), got[1][0].hex()) == (want[0].hex(), want[1].hex())
    assert rng.bit_generator.state == twin.bit_generator.state


def _complex_product_logdet(row_scale, m, trials, rng):
    """ergodic_logdet's estimate with the Gram as one complex matmul."""
    s = phase_matrix(rng, trials, *row_scale.shape, m) * row_scale[:, None]
    sh = s.conj().swapaxes(-1, -2)
    gram = sh @ s if s.shape[-2] > m else s @ sh
    vals = np.linalg.slogdet(gram + np.eye(gram.shape[-1]))[1] / math.log(2.0)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(trials)


@pytest.mark.parametrize(
    "threshold", [None, 0, 2**62], ids=["default", "real_form", "complex_form"]
)
@pytest.mark.parametrize(
    "rows, m, batch",
    [(1024, 32, 1), (64, 64, 1), (32, 64, 1), (8, 200, 1), (23, 8, 1), (256, 16, 3)],
)
def test_real_form_gram_matches_complex_product(monkeypatch, threshold, rows, m, batch):
    # Large trials take the Gram as a real symmetric rank-k update folded into
    # complex form, small ones as a complex product; both must match the
    # complex product on the same phases.  Each shape also runs with either
    # form forced.
    if threshold is not None:
        monkeypatch.setattr(qmimo, "_REAL_FORM_MACS", threshold)
    trials = 6
    scales = np.linspace(0.4, 2.5, batch * rows).reshape(batch, rows)
    seeds = [20 + j for j in range(batch)]
    rngs = [derive_rng(seed) for seed in seeds]
    twins = [derive_rng(seed) for seed in seeds]
    got = list(zip(*ergodic_logdet(scales, m, trials, rngs, _timings())))
    for (mean, stderr), scale, rng, twin in zip(got, scales, rngs, twins):
        ref_mean, ref_stderr = _complex_product_logdet(scale, m, trials, twin)
        assert mean == pytest.approx(ref_mean, rel=1e-13, abs=0.0)
        assert stderr == pytest.approx(ref_stderr, rel=1e-10, abs=0.0)
        assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# deterministic equivalent of the log-det
# ---------------------------------------------------------------------------

# Bound on |MC - de_logdet| in Monte Carlo standard errors.  Measured on the
# cases below: at most 2.35 at the sampled destinations and 1.63 on the
# synthetic shapes.  The unit-modulus term it checks is worth 2.1 to 10.8
# standard errors at those destinations and 5.9 to 45 on those shapes.  Do
# not loosen.
DE_STDERRS = 3.0


@pytest.mark.parametrize(
    "mode, beta, q, m, sample_size, trials",
    [
        ("tdma", 3.0, 0.5, 16, 8, 200),
        ("tdma", 3.0, 0.5, 32, 6, 100),
        ("tdma", 3.0, 0.5, 64, 8, 30),
        ("hier", 2.0, 0.05, 32, 4, 50),
        ("hier", 2.0, 0.05, 64, 4, 8),
    ],
    ids=["tdma16", "tdma32", "tdma64", "hier32", "hier64"],
)
def test_de_logdet_matches_monte_carlo_at_sampled_destinations(
    monkeypatch, mode, beta, q, m, sample_size, trials
):
    # The row profiles the pipeline rates: one network per point at master
    # seed 1, its sampled destinations rated by Monte Carlo as sum_rate does.
    base = NetworkParams(mode=mode, beta=beta, q=q, seed=1, trials=trials,
                         sample_size=sample_size)
    p = point_params(base, m)
    r = place_nodes(p, derive_rng(p.seed, 0))
    z = []

    def both(row_scales, m, trials, rngs, timings):
        mean, stderr = ergodic_logdet(row_scales, m, trials, rngs, timings)
        z.extend((mean - qmimo.de_logdet(row_scales, m)) / stderr)
        return mean, stderr

    monkeypatch.setattr(qmimo, "ergodic_logdet", both)
    sum_rate(r, p, derive_rng(p.seed, 1))
    assert len(z) == sample_size
    assert np.abs(z).max() <= DE_STDERRS, z


@pytest.mark.parametrize(
    "rows, m, trials",
    [(4, 32, 2000), (32, 128, 400), (128, 128, 100), (64, 64, 400), (8, 8, 4000),
     (40, 8, 4000), (300, 16, 1000)],
    ids=["4x32", "32x128", "128x128", "64x64", "8x8", "40x8", "300x16"],
)
def test_de_logdet_matches_monte_carlo_on_synthetic_shapes(rows, m, trials):
    # Wide, square and tall channels at p = 1 per receive antenna.
    scale = np.full(rows, math.sqrt(1.0 / m))
    mean, stderr = _logdet_one(scale, m, trials, derive_rng(7, rows, m))
    assert abs(mean - qmimo.de_logdet(scale[None], m)[0]) <= DE_STDERRS * stderr


@pytest.mark.parametrize(
    "m, bound", [(4, 1.8e-2), (8, 4.1e-3), (16, 1.0e-3), (64, 6.0e-5)]
)
def test_de_logdet_one_row_pin(m, bound):
    # One row is exactly log2(1 + m d).  The residual falls like m**-2; its
    # maxima over m d in [1e-3, 1e4] are 1.72e-2, 4.0e-3, 9.7e-4 and 5.9e-5
    # bits at m = 4, 8, 16 and 64.
    md = np.logspace(-3.0, 4.0, 401)
    de = qmimo.de_logdet(np.sqrt(md / m)[:, None], m)
    assert np.abs(de - np.log2(1.0 + md)).max() <= bound


def test_de_logdet_of_no_rows_is_zero():
    assert qmimo.de_logdet(np.empty((0, 0)), 4).shape == (0,)
    scale = np.full(3, 0.5)
    got = qmimo.de_logdet(_padded([np.empty(0), scale, np.empty(0)]), 4)
    assert got[0] == got[2] == 0.0
    assert got[1] == pytest.approx(qmimo.de_logdet(scale[None], 4)[0], rel=1e-14)


def test_de_logdet_reads_interspersed_zeros_as_trailing_ones():
    # The same 37 row scales, trailing and interspersed among zeros.
    scale = np.linspace(0.05, 2.0, 37)
    rows = np.zeros((2, 100))
    rows[0, : scale.size] = scale
    rows[1, np.sort(derive_rng(42).choice(100, scale.size, replace=False))] = scale
    for m in (4, 32, 128):
        trailing, spread = qmimo.de_logdet(rows, m)
        assert spread == pytest.approx(trailing, rel=1e-14, abs=0.0)


def _de_reference(scale, m):
    """The corrected DE in bits, its fixed point found by bisection."""
    d = scale * scale
    lo, hi = 0.0, 1.0  # g(0) = 0 < 1 <= g(1)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * (1.0 + np.sum(d / (1.0 + m * d * mid))) < 1.0:
            lo = mid
        else:
            hi = mid
    t = 1.0 / (1.0 + m * d * lo)
    s = np.sum(d * t)
    nats = (np.sum(np.log1p(m * d * lo)) + m * math.log1p(s) - m * lo * s
            + 0.5 * m * lo * lo * np.sum((d * t) ** 2))
    return nats / math.log(2.0)


@pytest.mark.parametrize(
    "rows, m, d",
    [(128, 128, 100.0 / 128), (1, 1, 1e4), (3, 4, 0.25)],
    ids=["square_high_snr", "one_row_m1", "small"],
)
def test_de_logdet_solves_slow_fixed_points(rows, m, d):
    # Plain iteration of t = 1 / (1 + sum_i d_i t_i) from t = 1 takes 169
    # steps to 1e-15 relative on the first case and 1569 on the second;
    # Newton from 0 takes 9 and 13, and needs no step cap.
    # Solved alone and beside channels of other lengths, each must match a
    # bisection reference.
    scale = np.full(rows, math.sqrt(d))
    want = _de_reference(scale, m)
    assert qmimo.de_logdet(scale[None], m)[0] == pytest.approx(want, rel=1e-12)
    batch = qmimo.de_logdet(_padded([np.full(5, 0.1), scale, np.empty(0)]), m)
    assert batch[1] == pytest.approx(want, rel=1e-12)
    assert batch[0] == pytest.approx(_de_reference(np.full(5, 0.1), m), rel=1e-12)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
def test_hier_de_rate_never_rises_with_rank(monkeypatch, beta):
    # The rule an exact hier minimum would rest on: in hier every relay's
    # link capacity is c2 n2**-epsilon, so its noise does not depend on the
    # target, and the farthest member (the last rank) rates lowest.  Every
    # member of every group is rated by de_logdet; a rise within float
    # roundoff is a tie (near-noiseless relays give every target one profile).
    monkeypatch.setattr(
        qmimo, "ergodic_logdet",
        lambda row_scales, m, trials, rngs, timings: (
            qmimo.de_logdet(row_scales, m), np.zeros(len(row_scales))
        ),
    )
    for m in (4, 8, 16):
        for seed in range(10):
            p = NetworkParams(m=m, beta=beta, q=0.5, mode="hier", seed=seed)
            r = place_nodes(p, derive_rng(seed, 0))
            for k in range(r.n1):
                ranks = np.arange(r.n2_of(k))
                rated, _, _ = achievable_rate(r, k, ranks, p, [None] * ranks.size, _timings())
                de = np.array([dr.mean_logdet for dr in rated])
                assert np.all(np.diff(de) <= 1e-12 * de[1:]), (m, seed, k)


# ---------------------------------------------------------------------------
# achievable rate and the i.i.d. surrogate
# ---------------------------------------------------------------------------


def test_single_destination_rate_exact():
    r = realization_from_positions(np.array([[0.5, 0.9]]), grid_side=1)
    p = NetworkParams(m=1, beta=1.0, p0=1.0, trials=16)
    dr = _destination_rate(r, 0, 0, p, derive_rng(0))
    assert dr.rate == pytest.approx(0.5 * math.log2(1.0 + p.p0))
    assert dr.noises[0] == 0.0
    assert dr.link_capacities[0] == math.inf


def _iid_surrogate(n2, m, p0, n_q_max, delta, n, trials, rng):
    """I.i.d. lower bound on the decode rate: unit gains and every
    quantization noise at the common worst case n_q_max."""
    rate, _, _ = _rate_one(
        np.ones(n2), np.full(n2, float(n_q_max)), p0, m, delta, n, trials, rng
    )
    return rate


def test_iid_surrogate_single_antenna_exact():
    v = _iid_surrogate(1, 1, 2.0, 1.0, 0.5, 4, 16, derive_rng(1))
    assert v == pytest.approx((0.5 / 4) * math.log2(1.0 + 2.0 / 2.0))


def test_iid_surrogate_with_zero_noise_is_unquantized():
    a = _iid_surrogate(3, 2, 1.0, 0.0, 0.5, 9, 32, derive_rng(2))
    b, _, _ = _rate_one(np.ones(3), np.zeros(3), 1.0, 2, 0.5, 9, 32, derive_rng(2))
    assert a == b


def test_iid_surrogate_square_matrix_matches_regime_oracle():
    # Per-antenna value at 64x64 against the deterministic equivalent, which
    # it meets to 5.2e-4 relative (the square-array limit was 0.14% off).
    n2 = m = 64
    rate = _iid_surrogate(n2, m, 1.0, 0.0, 0.5, 1000, 200, derive_rng(3))
    per_antenna = rate * 1000 / (0.5 * n2)
    oracle = qmimo.de_logdet(np.full((1, n2), math.sqrt(1.0 / m)), m)[0] / n2
    assert abs(per_antenna - oracle) / oracle < 1e-3


def test_bound_chain_surrogate_below_estimate():
    p = NetworkParams(m=6, beta=2.0, seed=3, trials=300)
    r = place_nodes(p, derive_rng(p.seed, 0))
    group, rank = _scan_group_members(r)
    for dest in range(0, r.n, 7):
        k, j = int(group[dest]), int(rank[dest])
        dr = _destination_rate(r, k, j, p, derive_rng(p.seed, 5, dest))
        finite = dr.noises[np.isfinite(dr.noises)]
        n_q_max = float(finite.max()) if finite.size else 0.0
        surrogate = _iid_surrogate(
            dr.noises.size, p.m, p.p0, n_q_max, p.delta, r.n, 300,
            derive_rng(p.seed, 6, dest),
        )
        assert surrogate <= dr.rate + 2.0 * dr.stderr


def test_achievable_rate_rejects_bad_rank():
    p = NetworkParams(m=2, beta=1.0)
    r = realization_from_positions(np.array([[0.2, 0.2], [0.3, 0.3]]), grid_side=1)
    with pytest.raises(ValueError):
        _destination_rate(r, 0, 2, p, derive_rng(0))


def test_rate_needs_one_generator_per_destination():
    # Channels past the last generator used to come back as whatever the
    # log-det buffer held: rates of 0.0, or means such as 1.7e-263.
    p = NetworkParams(m=3, beta=1.0, trials=4)
    r = realization_from_positions(np.array([[0.2, 0.2], [0.3, 0.3], [0.4, 0.1]]), grid_side=1)
    rng = derive_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        achievable_rate(r, 0, np.arange(3), p, [rng], _timings())
    with pytest.raises(ValueError):
        ergodic_logdet(np.ones((3, 2)), 2, 4, [rng], _timings())
    with pytest.raises(ValueError):
        ergodic_logdet(np.ones((1, 2)), 2, 4, [rng, derive_rng(1)], _timings())
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# constraint system
# ---------------------------------------------------------------------------


def test_constraints_all_zero_rates_pass():
    z = np.zeros(3)
    assert check_rate_constraints(0.0, z, np.array([1.0, 2.0, 0.5]), z, 0.0, 0.5, 27, 3)


def test_constraints_budget_violation_fails():
    n2, delta, n = 3, 0.5, 27
    c = np.array([1.0, 2.0, 0.5])
    r_q = (1 - delta) / (4 * n2) * c
    r_q_over = r_q.copy()
    r_q_over[0] *= 1.01  # exceed the link budget by 1%
    assert check_rate_constraints(0.0, r_q, c, np.zeros(n2), 0.0, delta, n, n2)
    assert not check_rate_constraints(0.0, r_q_over, c, np.zeros(n2), 0.0, delta, n, n2)


def test_constraints_fidelity_violation_fails():
    n2, delta, n = 2, 0.5, 16
    c = np.array([4.0, 4.0])
    r_q = (1 - delta) / (4 * n2) * c
    mi = np.array([0.0, 1.05 * r_q[1] * n / delta])  # needs more than granted
    assert not check_rate_constraints(0.0, r_q, c, mi, 0.0, delta, n, n2)


def test_constraints_decode_violation_fails():
    z = np.zeros(2)
    assert not check_rate_constraints(
        0.2, z, np.ones(2), z, mi_decode=1.0, delta=0.5, n=4, n2=2
    )
    assert check_rate_constraints(
        0.1, z, np.ones(2), z, mi_decode=1.0, delta=0.5, n=4, n2=2
    )


def test_constraints_infinite_self_link():
    # Self link: infinite capacity, infinite fidelity requirement, infinite
    # granted rate; all three inequalities must hold.
    inf = math.inf
    assert check_rate_constraints(
        0.0,
        np.array([inf, 0.1]),
        np.array([inf, 10.0]),
        np.array([inf, 0.0]),
        0.0,
        0.5,
        16,
        2,
    )
    # A finite granted rate cannot satisfy an infinite fidelity requirement.
    assert not check_rate_constraints(
        0.0,
        np.array([5.0, 0.1]),
        np.array([inf, 10.0]),
        np.array([inf, 0.0]),
        0.0,
        0.5,
        16,
        2,
    )


def test_constraints_reject_mismatched_lengths():
    with pytest.raises(ValueError):
        check_rate_constraints(
            0.0, np.zeros(2), np.zeros(3), np.zeros(2), 0.0, 0.5, 4, 2
        )


def test_pipeline_output_satisfies_constraints():
    p = NetworkParams(m=4, beta=2.0, seed=6, trials=32, sample_size=8)
    r = place_nodes(p, derive_rng(p.seed, 0))
    report = sum_rate(r, p, derive_rng(p.seed, 1))
    for dr in report.destinations:
        assert check_rate_constraints(
            dr.rate,
            dr.quantizer_rates,
            dr.link_capacities,
            dr.mi_quantize,
            dr.mean_logdet,
            p.delta,
            r.n,
            dr.noises.size,
        )


# ---------------------------------------------------------------------------
# sum rate
# ---------------------------------------------------------------------------


def test_sum_rate_single_destination():
    r = realization_from_positions(np.array([[0.5, 0.9]]), grid_side=1)
    p = NetworkParams(m=1, beta=1.0, trials=16, sample_size=5)
    report = sum_rate(r, p, derive_rng(1))
    assert report.sample_size == 1
    assert report.r_sum == report.destinations[0].rate
    assert report.r_ind == report.destinations[0].rate


def test_sum_rate_full_sample_takes_exact_minimum():
    p = NetworkParams(m=3, beta=2.0, seed=8, trials=16)
    r = place_nodes(p, derive_rng(p.seed, 0))
    report = sum_rate(r, p, derive_rng(2))
    assert report.sample_size == r.n
    assert report.r_ind == min(dr.rate for dr in report.destinations)
    assert report.r_sum == r.n * report.r_ind


def test_sum_rate_subsample_is_deterministic():
    p = NetworkParams(m=4, beta=2.0, seed=9, trials=16, sample_size=4)
    r = place_nodes(p, derive_rng(p.seed, 0))
    a = sum_rate(r, p, derive_rng(3))
    b = sum_rate(r, p, derive_rng(3))
    assert a.r_sum == b.r_sum
    assert a.sample_size == 4
    assert [d.dest_index for d in a.destinations] == [d.dest_index for d in b.destinations]


# ---------------------------------------------------------------------------
# group batches against the per-destination reference
# ---------------------------------------------------------------------------


def _bits(x: float) -> str:
    return float(x).hex()


def _scan_group_members(realization):
    """Every destination's group and rank, read off group_members."""
    group = np.empty(realization.n, dtype=int)
    rank = np.empty(realization.n, dtype=int)
    for k, members in enumerate(realization.group_members):
        group[members] = k
        rank[members] = np.arange(members.size)
    return group, rank


def _reference_sum_rate(realization, params, rng):
    """sum_rate as a loop of achievable_rate calls on batches of one, one
    generator per destination, evaluated in sampling order."""
    n = realization.n
    if params.sample_size >= n:
        chosen = np.arange(n)
    else:
        chosen = rng.choice(n, size=params.sample_size, replace=False)
    dest_seeds = rng.integers(0, 2**63, size=chosen.size)
    group, rank = _scan_group_members(realization)
    destinations, generators = [], []
    for dest, seed in zip(chosen, dest_seeds):
        gen = np.random.default_rng(int(seed))
        k, j = int(group[dest]), int(rank[dest])
        destinations.append(_destination_rate(realization, k, j, params, gen))
        generators.append(gen)
    worst = min(destinations, key=lambda dr: dr.rate)
    noises = np.concatenate([dr.noises for dr in destinations])
    relay_caps = np.concatenate(
        [np.delete(dr.link_capacities, dr.rank) for dr in destinations]
    )
    finite_noises = noises[np.isfinite(noises) & (noises > 0.0)]
    report = qmimo.RateReport(
        n=n,
        destinations=destinations,
        r_ind=worst.rate,
        r_sum=n * worst.rate,
        r_sum_stderr=n * worst.stderr,
        n_max=float(finite_noises.max()) if finite_noises.size else 0.0,
        c_link_min=float(relay_caps.min()) if relay_caps.size else math.nan,
    )
    return report, generators


BATCH_CASES = {
    "tdma_subsample": (NetworkParams(m=4, beta=3.0, seed=3, trials=16), 10),
    "tdma_every_destination": (NetworkParams(m=4, beta=2.5, seed=5, trials=8), 100),
    "hier": (NetworkParams(m=4, beta=3.0, mode="hier", seed=3, trials=16), 40),
    # log2(1 + SINR) rounds to 0 on far links only, so relays drop and every
    # group mixes destinations of different kept-row counts.
    "tdma_dropped_relays": (NetworkParams(m=4, beta=3.0, seed=3, p1=1e-19, trials=8), 64),
}


@pytest.mark.parametrize("budget", [None, 1, 256, "pairs"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_sum_rate_equals_per_destination_reference(monkeypatch, case, budget):
    p, sample_size = BATCH_CASES[case]
    p = replace(p, sample_size=sample_size)
    r = place_nodes(p, derive_rng(p.seed, 0))
    if case == "tdma_dropped_relays":
        for k in range(r.n1):
            _, noises, _ = noise_profile(r, k, np.arange(r.n2_of(k)), p)
            assert np.unique(np.isfinite(noises).sum(axis=1)).size > 1
    if budget == "pairs":
        # Twice the largest group's entry count gives it batches of two.
        budget = 2 * max(r.n2_of(k) for k in range(r.n1)) * (r.n1 if p.mode == "tdma" else 1)
    if budget is not None:
        # A destination of group k counts n2 entries, times n1 in tdma.  One
        # entry gives every group, tdma or hier, batches of one; 256 gives
        # the tdma groups of these cases batches of two to twelve, and the
        # hier groups, of at most ten members, whole-group batches.
        monkeypatch.setattr(qmimo, "_BATCH_ENTRIES", budget)
    batches = []

    def spy(realization, k, ranks, params, rngs, timings):
        assert len(ranks) <= qmimo._batch_size(realization, k, params)
        batches.append((k, np.asarray(ranks).copy(), list(rngs)))
        rated, caps, noises = achievable_rate(realization, k, ranks, params, rngs, timings)
        # The bookkeeping a destination rebuilds alone is its row of the batch.
        for dr, cap_row, noise_row in zip(rated, caps, noises):
            assert dr.link_capacities.tobytes() == cap_row.tobytes()
            assert dr.noises.tobytes() == noise_row.tobytes()
        return rated, caps, noises

    ref_rng, new_rng = derive_rng(p.seed, 1), derive_rng(p.seed, 1)
    reference, ref_gens = _reference_sum_rate(r, p, ref_rng)
    monkeypatch.setattr(qmimo, "achievable_rate", spy)
    report = sum_rate(r, p, new_rng)

    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    assert all(np.ndim(j) == 1 for _, j, _ in batches)
    if budget is None:
        assert len(batches) < report.sample_size  # some batch rates several
    if budget == 1:
        assert all(j.size == 1 for _, j, _ in batches)
    elif budget is not None:
        assert max(j.size for _, j, _ in batches) >= 2
    # Generators in destination order: batches list each group's
    # destinations in sampling order, and groups ascend.
    order = sorted(
        range(report.sample_size),
        key=lambda i: report.destinations[i].group,
    )
    gens = [g for _, _, gs in batches for g in gs]
    assert len(gens) == len(ref_gens)
    for i, gen in zip(order, gens):
        assert gen.bit_generator.state == ref_gens[i].bit_generator.state

    assert [d.dest_index for d in report.destinations] == [
        d.dest_index for d in reference.destinations
    ]
    for got, want in zip(report.destinations, reference.destinations):
        for name in ("group", "rank", "dest_index"):
            assert getattr(got, name) == getattr(want, name)
            assert type(getattr(got, name)) is int
        for name in ("rate", "stderr", "mean_logdet"):
            assert type(getattr(got, name)) is float
            assert _bits(getattr(got, name)) == _bits(getattr(want, name))
        for name in ("link_capacities", "noises", "quantizer_rates", "mi_quantize"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    assert report.n == reference.n
    for name in ("r_ind", "r_sum", "r_sum_stderr", "n_max", "c_link_min"):
        assert _bits(getattr(report, name)) == _bits(getattr(reference, name))
    assert set(report.timings) == {"link", "phase", "gram"}


def test_rank_array_with_one_bad_rank_raises():
    p = NetworkParams(m=4, beta=2.0, seed=6)
    r = place_nodes(p, derive_rng(p.seed, 0))
    k = int(np.argmax([r.n2_of(g) for g in range(r.n1)]))
    n2 = r.n2_of(k)
    for bad in (n2, -1):
        with pytest.raises(ValueError):
            link_capacity(r, k, np.array([0, bad, 1]), p)
        with pytest.raises(ValueError):
            noise_profile(r, k, np.array([bad]), p)
        with pytest.raises(ValueError):
            achievable_rate(
                r, k, np.array([0, bad]), p, [derive_rng(0), derive_rng(1)],
                _timings(),
            )


# tracemalloc peak of the guarded sum_rate call below on the per-destination
# implementation that preceded group batches: 4,722,092 bytes.
PER_DESTINATION_PEAK = 4_722_092


def test_batch_memory_stays_bounded(monkeypatch):
    # The shape of hier_profile's m=32 point: one group of 1024 members, 20
    # sampled destinations rated in one batch of (20, 1024) link and noise
    # matrices, whose log-det kernel holds one trial of phases at a time.
    p = NetworkParams(m=32, beta=2.0, mode="hier", q=0.05, epsilon=0.05, delta=0.5,
                      trials=100, sample_size=20, seed=1)
    r = place_nodes(p, derive_rng(p.seed, 0))
    assert r.n1 == 1 and r.n2_of(0) == 1024

    def refuse(*args, **kwargs):
        raise AssertionError("the rate layer must not call np.unique or np.union1d")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "union1d", refuse)
    sum_rate(r, p, derive_rng(p.seed, 1))  # warm numpy paths
    tracemalloc.start()
    try:
        sum_rate(r, p, derive_rng(p.seed, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * PER_DESTINATION_PEAK


def test_report_keeps_no_per_destination_bookkeeping():
    # Every destination of one hier group of 256: copies of four n2-vectors
    # per destination would keep 4 * n * n2 * 8 bytes (2 MiB).  The report
    # keeps each destination's scalars and rebuilds its bookkeeping on read.
    p = NetworkParams(m=16, beta=2.0, mode="hier", q=0.05, epsilon=0.05, trials=8,
                      sample_size=256, seed=1)
    r = place_nodes(p, derive_rng(p.seed, 0))
    assert r.n1 == 1 and r.n == r.n2_of(0) == 256
    sum_rate(r, p, derive_rng(p.seed, 1))  # warm numpy paths
    tracemalloc.start()
    try:
        report = sum_rate(r, p, derive_rng(p.seed, 1))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.sample_size == r.n
    assert kept < r.n * r.n2_of(0) * 8
    dr = report.destinations[0]
    assert dr.noises is dr.noises  # rebuilt once, on first read
