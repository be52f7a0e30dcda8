import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmimo import derive_rng, phase_matrix, qmimo, realization_from_positions

M = 3


def test_theta_unit_modulus():
    theta = phase_matrix(derive_rng(5), 3, M)
    assert theta.shape == (3, M)
    assert np.allclose(np.abs(theta), 1.0, atol=1e-12)


@given(
    dists=st.lists(st.floats(0.05, 1.4), min_size=1, max_size=12),
    alpha=st.floats(2.1, 8.0),
)
@settings(max_examples=50)
def test_gamma_entries_at_least_one(dists, alpha):
    d = np.sort(np.array(dists))
    gamma = (d[-1] / d) ** (alpha / 2.0)
    assert np.all(gamma >= 1.0)
    assert gamma[-1] == 1.0


def test_phase_kernel_matches_complex_exp():
    # Whichever kernel this host chose at import, against exp(2 pi i u) on the
    # same draws, taking exactly one uniform per entry from the stream.
    shape = (50, 40, 30)
    rng, twin = derive_rng(21), derive_rng(21)
    theta = phase_matrix(rng, *shape)
    reference = np.exp(2j * np.pi * twin.random(shape))
    assert np.abs(theta - reference).max() < 2e-15
    assert np.abs(np.abs(theta) - 1.0).max() < 1e-15
    assert rng.bit_generator.state == twin.bit_generator.state


def test_phase_buffer_reuse_matches_fresh_draws(monkeypatch):
    # Draws written into a reused buffer through a reused scratch set, in
    # pieces of an odd size that do not divide the array, are the bits of
    # fresh calls and leave the generator in the same state.
    shape = (6, 37, 11)
    rng, twin = derive_rng(31), derive_rng(31)
    fresh = [phase_matrix(twin, *shape) for _ in range(2)]
    monkeypatch.setattr(qmimo, "_PIECE_ENTRIES", 1001)
    out = np.full(shape, complex(np.nan, np.nan))
    scratch = qmimo._PhaseScratch(out.size)
    for want in fresh:
        got = phase_matrix(rng, *shape, out=out, scratch=scratch)
        assert got is out
        assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


KERNELS = pytest.mark.parametrize("tangent", [True, False], ids=["tangent", "table"])


@KERNELS
def test_each_phase_kernel_matches_complex_exp(monkeypatch, tangent):
    # Whichever kernel this host chose at import, both stay within 2e-15 of
    # exp(2 pi i u) and take exactly one uniform per entry.
    monkeypatch.setattr(qmimo, "_TANGENT_PHASES", tangent)
    shape = (50, 40, 30)
    rng, twin = derive_rng(23), derive_rng(23)
    theta = phase_matrix(rng, *shape)
    reference = np.exp(2j * np.pi * twin.random(shape))
    assert np.abs(theta - reference).max() < 2e-15
    assert np.abs(np.abs(theta) - 1.0).max() < 1e-15
    assert rng.bit_generator.state == twin.bit_generator.state


@KERNELS
def test_each_phase_kernel_reuses_buffers_bitwise(monkeypatch, tangent):
    # The reuse test above, with each kernel forced and its own scratch set.
    monkeypatch.setattr(qmimo, "_TANGENT_PHASES", tangent)
    shape = (5, 29, 13)
    rng, twin = derive_rng(37), derive_rng(37)
    fresh = [phase_matrix(twin, *shape) for _ in range(2)]
    monkeypatch.setattr(qmimo, "_PIECE_ENTRIES", 999)
    out = np.full(shape, complex(np.nan, np.nan))
    scratch = qmimo._PhaseScratch(out.size)
    for want in fresh:
        assert phase_matrix(rng, *shape, out=out, scratch=scratch) is out
        assert out.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_phase_kernels_differ_only_in_the_last_bits(monkeypatch):
    # Hosts that choose different kernels draw the same stream into phases
    # that differ by rounding only.
    draws = {}
    for tangent in (True, False):
        monkeypatch.setattr(qmimo, "_TANGENT_PHASES", tangent)
        rng = derive_rng(41)
        draws[tangent] = phase_matrix(rng, 300, 40), rng.bit_generator.state
    (tan_theta, tan_state), (table_theta, table_state) = draws[True], draws[False]
    assert tan_state == table_state
    assert tan_theta.tobytes() != table_theta.tobytes()
    assert np.abs(tan_theta - table_theta).max() < 4e-15


@pytest.mark.parametrize(
    "loops, simd",
    [
        ({"tan": {"dd": {"current": "X86_V4", "available": "X86_V4 baseline(X86_V2)"}}}, True),
        ({"tan": {"dd": {"current": "baseline(X86_V2)", "available": "X86_V4"}}}, False),
        ({}, False),
    ],
    ids=["simd", "baseline", "unlisted"],
)
def test_tangent_kernel_chosen_only_for_a_simd_tan(monkeypatch, loops, simd):
    introspect = pytest.importorskip("numpy.lib.introspect")
    asked = []

    def opt_func_info(**kwargs):
        asked.append(kwargs)
        return loops

    monkeypatch.setattr(introspect, "opt_func_info", opt_func_info)
    assert qmimo._simd_tan() is simd
    assert asked == [{"func_name": "^tan$", "signature": "float64"}]


def test_table_kernel_chosen_when_numpy_cannot_report_its_loops(monkeypatch):
    # numpy before 2.0 has no numpy.lib.introspect.
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
    assert qmimo._simd_tan() is False


@pytest.mark.parametrize(
    "out",
    [np.empty((4, 3), complex), np.empty((3, 4)), np.empty((4, 3), complex).T],
    ids=["shape", "dtype", "order"],
)
def test_phase_buffer_must_fit(out):
    with pytest.raises(ValueError):
        phase_matrix(derive_rng(0), 3, 4, out=out)


def test_empty_phase_matrix_draws_nothing():
    rng, twin = derive_rng(3), derive_rng(3)
    assert phase_matrix(rng, 0, M).shape == (0, M)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_phase_mean_vanishes():
    # Empirical mean of a unit-modulus phase entry over 10^4 draws.
    samples = phase_matrix(derive_rng(42), 10_000)
    assert abs(samples.mean()) < 0.05


def test_group_channel_phase_mean_vanishes():
    # One entry of successive per-group draws, as the rate estimator takes them.
    rng = derive_rng(13)
    draws = np.array([phase_matrix(rng, 1, M)[0, 0] for _ in range(10_000)])
    assert abs(draws.mean()) < 0.05


def test_fast_fading_resamples_phases_not_magnitudes():
    rng = derive_rng(77)
    a = phase_matrix(rng, 2, M)
    b = phase_matrix(rng, 2, M)
    assert not np.allclose(a, b)
    assert np.allclose(np.abs(a), np.abs(b), atol=1e-12)


def test_empty_group_rejected():
    r = realization_from_positions(np.array([[0.2, 0.3]]), grid_side=1)
    with pytest.raises(IndexError):
        r.group_members[1]
