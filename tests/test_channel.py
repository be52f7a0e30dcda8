import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmimo import derive_rng, phase_matrix, realization_from_positions

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
    # The table-plus-polynomial kernel against exp(2 pi i u) on the same draws,
    # taking exactly one uniform per entry from the stream.
    shape = (50, 40, 30)
    rng, twin = derive_rng(21), derive_rng(21)
    theta = phase_matrix(rng, *shape)
    reference = np.exp(2j * np.pi * twin.random(shape))
    assert np.abs(theta - reference).max() < 2e-15
    assert np.abs(np.abs(theta) - 1.0).max() < 1e-15
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
