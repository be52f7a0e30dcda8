import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmimo import (
    NetworkParams,
    cell_occupancy_stats,
    derive_rng,
    min_source_distance,
    partition_cells,
    place_nodes,
    realization_from_positions,
)


def test_default_params_are_valid():
    p = NetworkParams()
    assert p.mode == "tdma"
    assert p.n == 64  # 4**3


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(m=0),
        dict(beta=0.0),
        dict(beta=-1.0),
        dict(alpha=2.0),
        dict(q=0.0),
        dict(q=1.0),
        dict(delta=0.0),
        dict(delta=1.0),
        dict(epsilon=0.0),
        dict(epsilon=1.0),
        dict(mode="fdma"),
        dict(c2=0.0),
        dict(exclusion_radius=0.7),
        dict(exclusion_radius=-0.1),
        dict(trials=0),
        dict(sample_size=0),
        dict(p0=-1.0),
        dict(p1=-0.5),
        dict(seed=-1),
        dict(m=True),
        dict(beta=float("nan")),
        dict(beta=float("inf")),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(p0=float("nan")),
        dict(p0=float("inf")),
        dict(p1=float("nan")),
        dict(p1=float("inf")),
        dict(c2=float("nan")),
        dict(c2=float("inf")),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        NetworkParams(**kwargs)


def test_destination_count_rounding():
    assert NetworkParams(m=1, beta=1.0).n == 1
    assert NetworkParams(m=10, beta=4.0).n == 10_000
    assert NetworkParams(m=32, beta=3.0).n == 32_768


def test_single_destination_layout():
    p = NetworkParams(m=1, beta=1.0, exclusion_radius=0.0)
    r = place_nodes(p, derive_rng(0))
    assert r.n == 1
    assert r.n1 == 1
    assert np.all((r.dest_pos >= 0.0) & (r.dest_pos <= 1.0))
    assert tuple(r.source_pos) == (0.5, 0.5)


def test_mean_position_near_center():
    # Law of large numbers at n = 10^4: coordinate means settle near 0.5.
    p = NetworkParams(m=10, beta=4.0, exclusion_radius=0.0)
    r = place_nodes(p, derive_rng(7, 0))
    assert np.all(np.abs(r.dest_pos.mean(axis=0) - 0.5) < 0.02)


def test_exclusion_disk_enforced():
    p = NetworkParams(m=4, beta=3.0, exclusion_radius=0.1)
    r = place_nodes(p, derive_rng(3))
    assert min_source_distance(r) > 0.1


def test_partition_cells_examples():
    assert partition_cells(16, 0.5) == 2
    assert partition_cells(100, 0.5) == 3
    assert partition_cells(1, 0.3) == 1
    assert partition_cells(1, 0.9) == 1


def test_partition_cells_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_cells(0, 0.5)
    with pytest.raises(ValueError):
        partition_cells(10, 0.0)
    with pytest.raises(ValueError):
        partition_cells(10, 1.0)


def test_occupancy_one_destination_per_cell():
    pos = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    r = realization_from_positions(np.array(pos), grid_side=2)
    assert cell_occupancy_stats(r) == (1, 1, 1.0)
    assert r.n1 == 4


def test_empty_cells_are_legal():
    r = realization_from_positions(np.array([[0.1, 0.1]]), grid_side=2)
    lo, hi, mean = cell_occupancy_stats(r)
    assert (lo, hi) == (0, 1)
    assert mean == pytest.approx(0.25)
    assert r.n1 == 1  # empty cells host no group


def test_min_source_distance_direct():
    r = realization_from_positions(np.array([[0.5, 0.9]]), grid_side=1)
    assert min_source_distance(r) == pytest.approx(0.4)


def test_boundary_point_folds_into_last_cell():
    r = realization_from_positions(np.array([[1.0, 1.0]]), grid_side=3)
    assert r.group_cells[0] == (2, 2)


def test_groups_sorted_and_partitioned():
    p = NetworkParams(m=6, beta=2.0, seed=11)
    r = place_nodes(p, derive_rng(11, 0))
    seen = np.concatenate(r.group_members)
    assert sorted(seen) == list(range(r.n))
    for k in range(r.n1):
        d = r.group_distances(k)
        assert np.all(np.diff(d) >= 0)
        members = r.group_members[k]
        assert np.all(r.group_of[members] == k)
        assert np.all(r.rank_of[members] == np.arange(len(members)))
    assert sum(r.n2_of(k) for k in range(r.n1)) == r.n


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), beta=st.floats(0.5, 2.5))
@settings(max_examples=30)
def test_partition_invariant_property(seed, m, beta):
    p = NetworkParams(m=m, beta=beta, seed=seed)
    r = place_nodes(p, derive_rng(seed, 0))
    assert sorted(np.concatenate(r.group_members)) == list(range(r.n))
    for k in range(r.n1):
        assert np.all(np.diff(r.group_distances(k)) >= 0)


def test_placement_is_bitwise_deterministic():
    p = NetworkParams(m=5, beta=2.0, seed=123)
    a = place_nodes(p, derive_rng(123, 0))
    b = place_nodes(p, derive_rng(123, 0))
    assert np.array_equal(a.dest_pos, b.dest_pos)
    assert all(np.array_equal(x, y) for x, y in zip(a.group_members, b.group_members))


def test_occupancy_concentration_smoke():
    # Light version of the full 100-seed acceptance experiment.
    hits = 0
    for seed in range(10):
        p = NetworkParams(m=10, beta=4.0, q=0.5, exclusion_radius=0.0, seed=seed)
        r = place_nodes(p, derive_rng(seed, 0))
        lo, hi, _ = cell_occupancy_stats(r)
        hits += lo >= 50 and hi <= 150
    assert hits == 10
