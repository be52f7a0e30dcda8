import math
import tracemalloc

import numpy as np
import pytest

from qfmimo import (
    NetworkParams,
    cutset_upper_bound,
    derive_rng,
    mimo_ergodic_capacity_mc,
    netgeom,
    place_nodes,
    realization_from_positions,
)

# Two destinations, both at distance 0.5 from the source.
TWIN = realization_from_positions(np.array([[0.0, 0.5], [1.0, 0.5]]), grid_side=1)


def test_cutset_small_beta_branch():
    p = NetworkParams(m=4, beta=0.5, alpha=4.0, p0=1.0)
    report = cutset_upper_bound(TWIN, p)
    assert report.branch == "beta<=1"
    # 2 * log2(1 + p0 * m * 0.5**-4) = 2 * log2(65)
    assert report.value == pytest.approx(2.0 * math.log2(65.0), rel=1e-12)
    assert report.value == pytest.approx(12.04, abs=5e-3)
    assert report.distance_sum == pytest.approx(32.0)


def test_cutset_large_beta_branch():
    p = NetworkParams(m=4, beta=1.5, alpha=4.0, p0=1.0)
    report = cutset_upper_bound(TWIN, p)
    assert report.branch == "beta>1"
    # m * log2(1 + (p0/m) * 32) = 4 * log2(9)
    assert report.value == pytest.approx(4.0 * math.log2(9.0), rel=1e-12)
    assert report.value == pytest.approx(12.68, abs=5e-3)


def test_cutset_branch_selected_by_beta_alone():
    at_one = cutset_upper_bound(TWIN, NetworkParams(m=4, beta=1.0))
    assert at_one.branch == "beta<=1"
    above = cutset_upper_bound(TWIN, NetworkParams(m=4, beta=1.0000001))
    assert above.branch == "beta>1"


def test_cutset_zero_power():
    for beta in (0.5, 1.5):
        p = NetworkParams(m=4, beta=beta, p0=0.0)
        assert cutset_upper_bound(TWIN, p).value == 0.0


@pytest.mark.parametrize("beta", [0.5, 1.5], ids=["beta<=1", "beta>1"])
def test_cutset_sums_over_chunks(monkeypatch, beta):
    # One pass is a single numpy sum bit for bit; chunk sums agree with it
    # to rounding.
    r = place_nodes(NetworkParams(m=10, beta=3.0, seed=4), derive_rng(4, 0))
    p = NetworkParams(m=10, beta=beta)
    one_pass = cutset_upper_bound(r, p)
    d = np.linalg.norm(r.dest_pos - netgeom.SOURCE_POS, axis=1)
    assert one_pass.distance_sum == float(np.sum(d**-p.alpha))
    monkeypatch.setattr(netgeom, "_CHUNK", 101)
    chunked = cutset_upper_bound(r, p)
    assert chunked.distance_sum == pytest.approx(one_pass.distance_sum, rel=1e-13)
    assert chunked.value == pytest.approx(one_pass.value, rel=1e-13)


@pytest.mark.parametrize("beta", [0.5, 3.0], ids=["beta<=1", "beta>1"])
def test_cutset_allocates_no_n_sized_temporary(beta):
    r = place_nodes(NetworkParams(m=64, beta=3.0, seed=1), derive_rng(1, 0))
    assert r.n == 2**18
    tracemalloc.start()
    try:
        cutset_upper_bound(r, NetworkParams(m=64, beta=beta))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One chunk of float64 terms, against 2 MiB for an n-sized column.
    assert peak <= 8 * netgeom._CHUNK + 4096


def test_mc_capacity_scalar_channel_exact():
    # 1x1 with unit-modulus fading: every trial equals log2(1 + p).
    cap, stderr = mimo_ergodic_capacity_mc(1, 1, 3.0, 50, derive_rng(0))
    assert cap == pytest.approx(2.0, abs=1e-12)
    assert stderr < 1e-12


def test_mc_capacity_monotone_in_power():
    lo, _ = mimo_ergodic_capacity_mc(4, 4, 1.0, 64, derive_rng(1))
    hi, _ = mimo_ergodic_capacity_mc(4, 4, 2.0, 64, derive_rng(1))
    assert hi > lo


def test_mc_capacity_wide_array_approaches_scalar_limit():
    cap, _ = mimo_ergodic_capacity_mc(2, 64, 1.0, 400, derive_rng(2))
    assert abs(cap / 2.0 - 1.0) < 0.05  # log2(1 + 1) = 1 per antenna


def test_mc_capacity_rejects_bad_input():
    with pytest.raises(ValueError):
        mimo_ergodic_capacity_mc(0, 4, 1.0, 10, derive_rng(0))
    with pytest.raises(ValueError):
        mimo_ergodic_capacity_mc(4, 4, 0.0, 10, derive_rng(0))
    with pytest.raises(ValueError):
        mimo_ergodic_capacity_mc(4, 4, 1.0, 0, derive_rng(0))
    # Each parameter's check is written to fail on NaN too.
    for args in ((math.nan, 4, 1.0, 10), (4, math.nan, 1.0, 10), (4, 4, math.nan, 10),
                 (4, 4, 1.0, math.nan)):
        with pytest.raises(ValueError):
            mimo_ergodic_capacity_mc(*args, derive_rng(0))
