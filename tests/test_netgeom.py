import tracemalloc

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
    netgeom,
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
        # Counts must be int: seed=1.5 used to run as seed 1 but print 1.5.
        dict(m=4.0),
        dict(seed=1.5),
        dict(seed=2.0),
        dict(seed=True),
        dict(seed="3"),
        dict(trials=2.5),
        dict(trials=True),
        dict(sample_size=2.5),
        dict(sample_size=False),
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
        assert np.all(r.groups_of(r.group_members[k]) == k)
    assert sum(r.n2_of(k) for k in range(r.n1)) == r.n


def _per_cell_grouping(dest_pos, g):
    """Reference grouping: one scan per occupied cell, then a stable sort."""
    source_dist = np.linalg.norm(dest_pos - np.array([0.5, 0.5]), axis=1)
    cols = np.minimum((dest_pos[:, 0] * g).astype(int), g - 1)
    rows = np.minimum((dest_pos[:, 1] * g).astype(int), g - 1)
    cell_id = rows * g + cols
    cell_counts = np.bincount(cell_id, minlength=g * g).reshape(g, g)
    group_members, group_cells = [], []
    group_of = np.empty(len(dest_pos), dtype=int)
    for cid in np.flatnonzero(cell_counts.reshape(-1)):
        members = np.flatnonzero(cell_id == cid)
        members = members[np.argsort(source_dist[members], kind="stable")]
        group_of[members] = len(group_members)
        group_members.append(members)
        group_cells.append((int(cid) // g, int(cid) % g))
    return group_members, group_cells, cell_counts, group_of


def test_sort_grouping_matches_per_cell_scan():
    rng = np.random.default_rng(2024)
    for case in range(300):
        g = int(rng.integers(1, 9))
        n = int(rng.integers(1, 200))
        if case % 2:
            # Multiples of half a cell: points on cell edges, on the far
            # boundary (folded into the last cell) and at tied distances.
            pos = rng.integers(0, 2 * g + 1, size=(n, 2)) / (2 * g)
        else:
            pos = rng.random((n, 2))
        members, cells, counts, group_of = _per_cell_grouping(pos, g)
        r = realization_from_positions(pos, grid_side=g)
        assert len(r.group_members) == len(members)
        assert all(np.array_equal(a, b) for a, b in zip(r.group_members, members))
        assert r.group_cells == cells
        assert np.array_equal(r.cell_counts, counts)
        assert np.array_equal(r.groups_of(np.arange(n)), group_of)


@pytest.mark.parametrize("case", ["distance_ties", "far_edges", "empty_cells", "placed"])
def test_group_lookup_and_members_return_every_destination(monkeypatch, case):
    rng = np.random.default_rng(31)
    g = 5
    if case == "distance_ties":
        # Lattice points: runs of equal distances, cell edges and x, y = 1.
        pos = rng.integers(0, 11, size=(3000, 2)) / 10
    elif case == "far_edges":
        pos = rng.random((600, 2))
        pos[0::4, 0] = 1.0
        pos[1::4, 1] = 1.0
        pos[2::8] = 1.0
    elif case == "empty_cells":
        # Only the lower-left cells and the far corner are occupied.
        pos = np.concatenate([rng.random((400, 2)) * 0.39, [(1.0, 1.0), (0.9, 1.0)]])
    else:
        monkeypatch.setattr(netgeom, "_CHUNK", SMALL_CHUNK)
        r = place_nodes(NetworkParams(m=10, beta=3.0, seed=4), derive_rng(4, 0))
        pos, g = r.dest_pos, r.grid_side
    r = realization_from_positions(pos, grid_side=g)
    assert case != "empty_cells" or np.count_nonzero(r.cell_counts == 0) > 0
    groups = r.groups_of(np.arange(r.n))
    _, rank = _scan_group_members(r)
    _, _, _, group_of = _per_cell_grouping(pos, g)
    assert np.array_equal(groups, group_of)
    for dest in range(r.n):
        assert r.group_members[groups[dest]][rank[dest]] == dest


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


@pytest.mark.parametrize(
    "pos",
    [[(0.2, -0.1)], [(1.7, 0.5)], [(0.3, 0.3), (float("nan"), 0.5)]],
    ids=["below", "right", "nan"],
)
def test_positions_outside_unit_square_rejected(pos):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        realization_from_positions(np.array(pos), grid_side=2)


@pytest.mark.parametrize(
    "source",
    [(float("nan"), 0.5), (float("inf"), 0.5), (0.5, float("-inf")), (1e200, 0.5)],
    ids=["nan", "inf", "minus_inf", "distances_overflow"],
)
def test_non_finite_source_rejected(source):
    with pytest.raises(ValueError, match="source position must be finite"):
        realization_from_positions(np.array([(0.3, 0.3)]), grid_side=2, source_pos=source)


def _scan_group_members(r):
    """Every destination's group and rank, read off group_members."""
    group = np.empty(r.n, dtype=int)
    rank = np.empty(r.n, dtype=int)
    for k, members in enumerate(r.group_members):
        group[members] = k
        rank[members] = np.arange(members.size)
    return group, rank


def _assert_lexsort_grouping(r):
    """Groups follow the (group, distance, index) order, and the group
    lookup agrees with group_members."""
    groups = r.groups_of(np.arange(r.n))
    order = np.lexsort((np.arange(r.n), r.source_dist, groups))
    assert np.array_equal(np.concatenate(r.group_members), order)
    assert np.array_equal(_scan_group_members(r)[0], groups)


def _lattice(side):
    """One point at the center of each cell of a side x side grid."""
    centers = (np.arange(side) + 0.5) / side
    return np.stack(np.meshgrid(centers, centers), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("side", [8, 257])
def test_sub_ulp_distances_in_a_high_group_stay_ordered(side):
    # Points on the source's row at x - 0.5 = d have source distance d
    # exactly, so consecutive x give distances one ulp of x apart.  That is
    # finer than the distance prefix of the packed sort key resolves here,
    # so the points tie in group and prefix; listing them farthest first
    # means only the repair of tied prefixes can put them in distance order.
    xs = 0.95 + np.arange(16)[::-1] * np.spacing(0.95)
    ray = np.stack([xs, np.full(16, 0.5)], axis=-1)
    r = realization_from_positions(np.concatenate([_lattice(side), ray]), grid_side=side)
    assert r.n1 == side * side
    ray_dist = r.source_dist[side * side:]
    assert np.array_equal(ray_dist, xs - 0.5)
    assert np.unique(ray_dist).size == 16
    _assert_lexsort_grouping(r)


def test_destination_at_the_source_keeps_sub_ulp_ray_ordered():
    # A destination at the source has distance 0, so the distance prefix
    # must hold the whole bit pattern of the largest distance and drops low
    # bits even at n = 18.  The ray points lie one ulp of x apart, listed
    # farthest first: they tie in the prefix, and only the repair orders them.
    xs = 0.8 + np.arange(8)[::-1] * np.spacing(0.8)
    ray = np.stack([xs, np.full(8, 0.5)], axis=-1)
    r = realization_from_positions(np.concatenate([_lattice(3), [(0.5, 0.5)], ray]), grid_side=3)
    assert r.source_dist[9] == 0.0
    assert np.array_equal(r.source_dist[10:], xs - 0.5)
    assert np.unique(r.source_dist[10:]).size == 8
    _assert_lexsort_grouping(r)


def test_distances_straddling_one_half_stay_ordered():
    # From a source on the left edge, (d, 0.5) is exactly d away.  The bit
    # patterns of 0.5 - ulp, 0.5 and 0.5 + ulp are adjacent across the
    # exponent step at 0.5; they are listed in reverse index order, and a
    # destination at the source makes their prefixes tie.
    ds = np.array([np.nextafter(0.5, 1.0), 0.5, np.nextafter(0.5, 0.0)])
    pos = np.concatenate([_lattice(4), np.stack([ds, np.full(3, 0.5)], axis=-1), [(0.0, 0.5)]])
    r = realization_from_positions(pos, grid_side=2, source_pos=(0.0, 0.5))
    assert np.array_equal(r.source_dist[16:19], ds)
    assert r.source_dist[19] == 0.0
    _assert_lexsort_grouping(r)


def test_tied_runs_meeting_at_a_group_boundary_keep_group_order():
    # Group 1 (cell (1, 0)) ends with two distances one ulp apart, listed
    # farthest first, and group 2 (cell (1, 1)) starts with two points at
    # the source.  Both pairs tie in their prefix and sit side by side in
    # key order, so the repair must keep them apart by group.
    pos = [(2.0**-54, 0.5), (2.0**-53, 0.5), (0.5, 0.5), (0.5, 0.5), (0.25, 0.25)]
    r = realization_from_positions(np.array(pos), grid_side=2)
    assert r.group_cells == [(0, 0), (1, 0), (1, 1)]
    assert [m.tolist() for m in r.group_members] == [[4], [1, 0], [2, 3]]
    _assert_lexsort_grouping(r)


@pytest.mark.parametrize("source", [(0.0, 0.0), (-1.0, 2.0), (40.0, -30.0)])
def test_grouping_with_distances_beyond_one(source):
    # From the corner, distances reach sqrt(2).  From (-1, 2), (0.99, 0.01)
    # in group 1 of the 2 x 2 grid is 1.39 farther than (0.01, 0.99) in
    # group 2, so the group bits of the sort key must outrank the distance
    # prefix.  From (40, -30) every distance is near 50.
    rng = np.random.default_rng(11)
    pos = np.concatenate([
        rng.random((3000, 2)),
        rng.integers(0, 9, size=(1000, 2)) / 8,
        [(0.99, 0.01), (0.01, 0.99)],
    ])
    r = realization_from_positions(pos, grid_side=2, source_pos=source)
    assert r.source_dist.max() > 1.0
    _assert_lexsort_grouping(r)


def _full_recheck_placement(params, rng):
    """Reference rejection loop: recheck every destination on each pass."""
    pos = rng.random((params.n, 2))
    r = params.exclusion_radius
    if r > 0.0:
        src = np.array([0.5, 0.5])
        inside = np.linalg.norm(pos - src, axis=1) <= r
        while inside.any():
            pos[inside] = rng.random((int(inside.sum()), 2))
            inside = np.linalg.norm(pos - src, axis=1) <= r
    return pos


@pytest.mark.parametrize("radius", [0.0, 0.1, 0.6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rejection_loop_matches_full_recheck(seed, radius):
    # r = 0.6 covers most of the square, so the loop runs many passes.
    p = NetworkParams(m=10, beta=3.0, exclusion_radius=radius, seed=seed)
    rng_ref, rng = derive_rng(seed, 0), derive_rng(seed, 0)
    ref = _full_recheck_placement(p, rng_ref)
    r = place_nodes(p, rng)
    assert np.array_equal(r.dest_pos, ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # Distances kept through the redraws equal a fresh computation.
    assert np.array_equal(r.source_dist, np.linalg.norm(ref - r.source_pos, axis=1))


@pytest.mark.parametrize("side", [20, 300])
def test_group_ids_wide_enough_and_exact_distances(side):
    # One point per cell: 400 groups overflow uint8, 90,000 overflow uint16.
    pos = _lattice(side)
    r = realization_from_positions(pos, grid_side=side)
    n = side * side
    assert r.n1 == n
    # The lattice lists its cells in row-major order, one point each.
    assert np.array_equal(r.groups_of(np.arange(n)), np.arange(n))
    assert all(members.tolist() == [k] for k, members in enumerate(r.group_members))
    assert np.array_equal(np.sort(np.concatenate(r.group_members)), np.arange(n))
    assert np.array_equal(r.source_dist, np.linalg.norm(pos - r.source_pos, axis=1))


@pytest.mark.parametrize("size", [256, 257])
def test_ranks_restart_where_a_group_of_256_or_257_members_ends(size):
    # The first group's largest rank just fits (or just misses) a byte, and
    # the next group's members must start exactly where it ends.
    rng = np.random.default_rng(9)
    pos = np.concatenate([
        rng.random((size, 2)) * 0.4,
        rng.random((5, 2)) * 0.4 + 0.55,
        rng.random((2, 2)) * 0.4 + [0.55, 0.0],
    ])
    r = realization_from_positions(pos, grid_side=2)
    assert r.n1 == 3
    assert [members.size for members in r.group_members] == [size, 2, 5]
    for k, members in enumerate(r.group_members):
        assert np.all(r.groups_of(members) == k)


def test_distance_ties_keep_index_order_at_scale():
    # Lattice points give long runs of equal distances, which tie in the
    # sort key's distance prefix; the repair must leave them in index order.
    rng = np.random.default_rng(5)
    pos = rng.integers(0, 13, size=(40_000, 2)) / 12
    r = realization_from_positions(pos, grid_side=3)
    _assert_lexsort_grouping(r)


@pytest.mark.parametrize("grid_side", [2.9, 2.0, True, "2"])
def test_non_integer_grid_side_rejected(grid_side):
    # int() would truncate 2.9 to a 2x2 grid and True to a 1x1 grid.
    with pytest.raises(ValueError):
        realization_from_positions(np.array([(0.3, 0.3)]), grid_side=grid_side)
    assert realization_from_positions(np.array([(0.3, 0.3)]), grid_side=np.int64(2)).grid_side == 2


# Small and odd, so that no chunk edge lines up with a group or a grid row.
SMALL_CHUNK = 101


def _assert_same_realization(a, b):
    """Every array (values and dtypes) and every group list agree."""
    for name in ("source_pos", "dest_pos", "source_dist", "cell_counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.grid_side == b.grid_side
    assert a.group_cells == b.group_cells
    assert len(a.group_members) == len(b.group_members)
    for x, y in zip(a.group_members, b.group_members):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [50, SMALL_CHUNK, SMALL_CHUNK + 1, 1000])
def test_chunked_placement_matches_one_pass(monkeypatch, n):
    # n below, at, one past and not a multiple of the chunk.  The wide
    # exclusion disk makes the redraw loop run several passes, and at
    # n = 1000 the 22 x 22 grid has more cells than a chunk has points.
    p = NetworkParams(m=n, beta=1.0, q=0.9, exclusion_radius=0.3, seed=n)
    rng_one = derive_rng(p.seed, 0)
    one_pass = place_nodes(p, rng_one)
    monkeypatch.setattr(netgeom, "_CHUNK", SMALL_CHUNK)
    rng = derive_rng(p.seed, 0)
    chunked = place_nodes(p, rng)
    _assert_same_realization(chunked, one_pass)
    assert rng.bit_generator.state == rng_one.bit_generator.state
    _assert_lexsort_grouping(chunked)


def test_chunked_grouping_repairs_ties_across_a_chunk_edge(monkeypatch):
    # Lattice points give runs of equal distances in one group; with a small
    # chunk some run crosses a chunk edge of the sorted keys, where the tie
    # flags of two passes meet.
    rng = np.random.default_rng(17)
    pos = rng.integers(0, 13, size=(1000, 2)) / 12
    one_pass = realization_from_positions(pos, grid_side=3)
    monkeypatch.setattr(netgeom, "_CHUNK", SMALL_CHUNK)
    chunked = realization_from_positions(pos, grid_side=3)
    _assert_same_realization(chunked, one_pass)
    _assert_lexsort_grouping(chunked)
    order = np.concatenate(chunked.group_members)
    group, dist = chunked.groups_of(order), chunked.source_dist[order]
    ties = np.flatnonzero((group[1:] == group[:-1]) & (dist[1:] == dist[:-1]))
    assert np.any((ties + 1) % SMALL_CHUNK == 0)


def test_chunked_grouping_repairs_sub_ulp_pairs_at_chunk_edges(monkeypatch):
    # A destination at the source makes the distance prefix drop low bits,
    # so each pair on the source's row, one ulp of x apart and listed
    # farthest first, ties in its prefix and only the repair orders it.  In
    # one group pair k sits at sorted positions 2k + 1 and 2k + 2, so with a
    # chunk of 7 some pairs end at a chunk's first key, and the last pair
    # ends at the last key.
    xs = 0.6 + 0.007 * np.arange(40)
    pairs = np.stack([np.nextafter(xs, 1.0), xs], axis=-1).ravel()
    ray = np.stack([pairs, np.full(80, 0.5)], axis=-1)
    pos = np.concatenate([[(0.5, 0.5)], ray])
    one_pass = realization_from_positions(pos, grid_side=1)
    _assert_lexsort_grouping(one_pass)
    monkeypatch.setattr(netgeom, "_CHUNK", 7)
    chunked = realization_from_positions(pos, grid_side=1)
    _assert_same_realization(chunked, one_pass)
    assert np.array_equal(chunked.group_members[0][1:7], [2, 1, 4, 3, 6, 5])


def test_place_nodes_allocates_no_n_sized_temporary():
    # Beyond what the realization keeps, placement may hold n bytes of tie
    # flags and scratch of two chunks, never an n-sized array of ids.
    p = NetworkParams(m=64, beta=3.0, seed=2)
    tracemalloc.start()
    try:
        r = place_nodes(p, derive_rng(p.seed, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.n == 2**18
    kept = (
        r.dest_pos.nbytes
        + r.source_dist.nbytes
        + r.n * np.dtype(np.intp).itemsize  # the index array behind group_members
        + r.cell_counts.nbytes
    )
    assert peak <= kept + r.n + 2 * 8 * netgeom._CHUNK  # r.n bytes of tie flags


def _reference_placement(n, radius, rng):
    """Positions and source distances drawn in one pass, then redrawn by mask."""
    src = np.asarray(netgeom.SOURCE_POS)
    pos = rng.random((n, 2))
    dist = np.linalg.norm(pos - src, axis=1)
    inside = dist <= radius if radius > 0.0 else np.zeros(n, dtype=bool)
    while inside.any():
        pos[inside] = rng.random((np.count_nonzero(inside), 2))
        dist[inside] = np.linalg.norm(pos[inside] - src, axis=1)
        inside &= dist <= radius
    return pos, dist


@pytest.mark.parametrize("chunk", [None, SMALL_CHUNK], ids=["one_chunk", "many_chunks"])
@pytest.mark.parametrize("radius", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exclusion_redraw_matches_reference_loop(monkeypatch, chunk, radius, seed):
    # n = 1728 spans 18 chunks of 101; a radius of 0.5 redraws over half the
    # points, several times over.
    if chunk is not None:
        monkeypatch.setattr(netgeom, "_CHUNK", chunk)
    p = NetworkParams(m=12, beta=3.0, exclusion_radius=radius, seed=seed)
    rng_ref = derive_rng(p.seed, 0)
    pos, dist = _reference_placement(p.n, radius, rng_ref)
    rng = derive_rng(p.seed, 0)
    r = place_nodes(p, rng)
    assert np.array_equal(r.dest_pos, pos)
    assert np.array_equal(r.source_dist, dist)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert radius == 0.0 or dist.min() > radius


@pytest.mark.parametrize("q", [0.05, 0.5], ids=["one_group", "many_groups"])
def test_place_nodes_ranks_need_only_chunk_scratch(monkeypatch, q):
    # With a small chunk and no exclusion disk, placement holds the arrays
    # the realization keeps, n bytes of tie flags and a few chunks of
    # scratch, so any n-sized array of group ids or ranks (two bytes each
    # with 529 groups) would exceed the bound.  A warm-up call keeps numpy's
    # first-use allocations out of the trace.
    monkeypatch.setattr(netgeom, "_CHUNK", 2**12)
    place_nodes(NetworkParams(m=8, beta=3.0, q=q, exclusion_radius=0.0), derive_rng(0, 0))
    p = NetworkParams(m=64, beta=3.0, q=q, exclusion_radius=0.0, seed=2)
    tracemalloc.start()
    try:
        r = place_nodes(p, derive_rng(p.seed, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = (
        r.dest_pos.nbytes
        + r.source_dist.nbytes
        + r.n * np.dtype(np.intp).itemsize  # the index array behind group_members
        + r.cell_counts.nbytes
    )
    assert peak <= kept + r.n + 8 * 8 * netgeom._CHUNK  # r.n bytes of tie flags
