import math
from dataclasses import replace

import numpy as np
import pytest

from qfmimo import (
    NetworkParams,
    exact_sinr_capacity,
    hier_capacity,
    link_capacity,
    place_nodes,
    derive_rng,
    realization_from_positions,
    riemann_zeta,
    tdma_worst_case_capacity,
)

# Apery's constant, frozen from the literature; the in-test oracle for any
# expression involving zeta(3).
ZETA_3 = 1.2020569031595943


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_matches_closed_forms():
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) < 1e-9
    assert abs(riemann_zeta(3.0) - ZETA_3) < 1e-9


def test_zeta_near_divergence_still_converges():
    # Partial sum alone would need ~1e9 terms at s=1.1; the tail estimate
    # carries the slack.  Reference from a 2e6-term brute sum + its own tail.
    k = 2_000_000
    i = np.arange(1, k + 1, dtype=float)
    brute = float(np.sum(i**-1.1)) + k ** (-0.1) / 0.1 - 0.5 * k**-1.1
    assert riemann_zeta(1.1) == pytest.approx(brute, abs=1e-9)


def test_zeta_rejects_divergent_arguments():
    for s in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(ValueError):
            riemann_zeta(s)


# ---------------------------------------------------------------------------
# worst-case closed form (diagnostic)
# ---------------------------------------------------------------------------


def test_worst_case_example_value():
    expected = 0.25 * math.log2(
        10.0 / ((math.sqrt(2.0) * 0.25) ** 4 + 2.0**5 * 10.0 * ZETA_3)
    )
    value = tdma_worst_case_capacity(0.25, 4, 10.0, 4.0)
    assert value == pytest.approx(expected, rel=1e-9)
    assert value == pytest.approx(-1.316, abs=5e-4)


def test_worst_case_monotone_in_p1():
    values = [tdma_worst_case_capacity(0.1, 4, p1, 4.0) for p1 in (10, 1, 0.1, 1e-4)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert tdma_worst_case_capacity(0.1, 4, 0.0, 4.0) == -math.inf


def test_worst_case_scales_inversely_with_n2():
    v4 = tdma_worst_case_capacity(0.2, 4, 5.0, 3.0)
    v8 = tdma_worst_case_capacity(0.2, 8, 5.0, 3.0)
    assert v8 == v4 / 2.0


def test_worst_case_always_negative_on_grid():
    # The ring-interference term 2**(alpha/2+3) * zeta(alpha-1) exceeds 1 for
    # every alpha in (2, 8], so the literal bound never goes positive.
    for alpha in np.linspace(2.1, 8.0, 25):
        assert 2.0 ** (alpha / 2.0 + 3.0) * riemann_zeta(alpha - 1.0) > 1.0
        for p1 in (0.1, 1.0, 10.0, 100.0):
            assert tdma_worst_case_capacity(0.1, 5, p1, float(alpha)) < 0.0


def test_worst_case_rejects_bad_input():
    with pytest.raises(ValueError):
        tdma_worst_case_capacity(0.0, 4, 1.0, 4.0)
    with pytest.raises(ValueError):
        tdma_worst_case_capacity(0.1, 4, 1.0, 2.0)
    with pytest.raises(ValueError):
        tdma_worst_case_capacity(0.1, 0, 1.0, 4.0)
    # Each parameter's check is written to fail on NaN too.
    for args in (
        (math.nan, 4, 1.0, 4.0),
        (0.1, math.nan, 1.0, 4.0),
        (0.1, 4, math.nan, 4.0),
        (0.1, 4, 1.0, math.nan),
    ):
        with pytest.raises(ValueError):
            tdma_worst_case_capacity(*args)


# ---------------------------------------------------------------------------
# hierarchical guarantee
# ---------------------------------------------------------------------------


def test_hier_capacity_values():
    assert hier_capacity(1, 0.1, 2.5) == 2.5
    assert hier_capacity(1024, 0.1, 1.0) == pytest.approx(0.5)  # 2**-1
    assert hier_capacity(500, 1e-12, 3.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        hier_capacity(0, 0.1, 1.0)


# ---------------------------------------------------------------------------
# exact-geometry SINR
# ---------------------------------------------------------------------------

# Four members in the lower-left cell of a 2x2 grid, already ordered by
# source distance; ranks 0 and 1 sit 0.1 apart.
LONE_GROUP = realization_from_positions(
    np.array([[0.45, 0.45], [0.45, 0.35], [0.30, 0.30], [0.10, 0.10]]),
    grid_side=2,
)

EXACT_PARAMS = NetworkParams(m=4, alpha=4.0, p1=1.0, exclusion_radius=0.0)


def test_interference_free_capacity():
    d = math.dist((0.45, 0.45), (0.45, 0.35))
    expected = 0.25 * math.log2(1.0 + d**-4.0)
    value = exact_sinr_capacity(LONE_GROUP, 0, (0, 1), EXACT_PARAMS)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(3.322, abs=5e-3)


def test_zero_power_gives_zero_capacity():
    p = NetworkParams(m=4, alpha=4.0, p1=0.0)
    assert exact_sinr_capacity(LONE_GROUP, 0, (0, 1), p) == 0.0


def test_invalid_pairs_rejected():
    for pair in ((0, 0), (0, 4), (-1, 2), (4, 0)):
        with pytest.raises(ValueError):
            exact_sinr_capacity(LONE_GROUP, 0, pair, EXACT_PARAMS)


def _co_active(realization, k):
    """Groups sharing group k's activation slot (k included).

    The 4-cell reuse pattern colors cell (row, col) by (row mod 2, col mod 2)
    and a slot activates one color class.
    """
    row, col = realization.group_cells[k]
    return [
        g
        for g, (r, c) in enumerate(realization.group_cells)
        if (r - row) % 2 == 0 and (c - col) % 2 == 0
    ]


def _two_group_realization(co_active: bool):
    # Group A in cell (0,0) of a 4x4 grid; group B lands in cell (0,2)
    # (same activation color as A) or cell (0,1) (different color).
    b_x = 0.55 if co_active else 0.30
    pos = [[0.20, 0.05], [0.05, 0.05], [b_x, 0.05]]
    return realization_from_positions(np.array(pos), grid_side=4)


def test_co_active_interferer_reduces_capacity():
    with_interf = _two_group_realization(co_active=True)
    without = _two_group_realization(co_active=False)
    assert _co_active(with_interf, 0) == [0, 1]
    assert _co_active(without, 0) == [0]

    cap_clean = exact_sinr_capacity(without, 0, (0, 1), EXACT_PARAMS)
    cap_noisy = exact_sinr_capacity(with_interf, 0, (0, 1), EXACT_PARAMS)
    assert cap_noisy < cap_clean

    d_sig = math.dist((0.20, 0.05), (0.05, 0.05))
    expected_clean = 0.5 * math.log2(1.0 + d_sig**-4.0)
    assert cap_clean == pytest.approx(expected_clean, rel=1e-12)


def test_interferer_rank_clamps_to_smaller_group():
    r = _two_group_realization(co_active=True)
    # Pair (1, 0) in group A: the co-active group has a single member, so the
    # rank-1 interferer clamps to its only (rank-0) node at (0.55, 0.05).
    d_sig = math.dist((0.05, 0.05), (0.20, 0.05))
    d_int = math.dist((0.55, 0.05), (0.20, 0.05))
    expected = 0.5 * math.log2(1.0 + d_sig**-4.0 / (1.0 + d_int**-4.0))
    value = exact_sinr_capacity(r, 0, (1, 0), EXACT_PARAMS)
    assert value == pytest.approx(expected, rel=1e-12)


def _clash_in_group():
    # Ranks 0 and 1 of the only group sit on the same point.
    return realization_from_positions(
        np.array([[0.20, 0.05], [0.20, 0.05], [0.05, 0.05]]), grid_side=4
    )


def _clash_with_co_active_group():
    # Equal points always share a cell, so the co-active group's only member
    # is moved onto group A's rank-0 receiver after grouping.
    r = _two_group_realization(co_active=True)
    pos = r.dest_pos.copy()
    pos[r.group_members[1][0]] = pos[r.group_members[0][0]]
    return replace(r, dest_pos=pos)


@pytest.mark.parametrize(
    "build", [_clash_in_group, _clash_with_co_active_group], ids=["in_group", "co_active"]
)
def test_transmitter_at_receiver_position_rejected(build):
    r = build()
    with pytest.raises(ValueError, match="share a position"):
        link_capacity(r, 0, np.array([0]), EXACT_PARAMS)


def test_capacity_nonnegative_on_random_networks():
    p = NetworkParams(m=4, beta=3.0, seed=2)
    r = place_nodes(p, derive_rng(2, 0))
    for k in (0, r.n1 // 2):
        n2 = r.n2_of(k)
        if n2 < 2:
            continue
        assert exact_sinr_capacity(r, k, (0, n2 - 1), p) >= 0.0


def test_tdma4_no_two_active_groups_share_a_block():
    p = NetworkParams(m=8, beta=3.0, seed=5)
    r = place_nodes(p, derive_rng(5, 0))
    assert r.grid_side >= 4
    for k in range(r.n1):
        active = _co_active(r, k)
        assert k in active
        blocks = [(row // 2, col // 2) for row, col in (r.group_cells[g] for g in active)]
        assert len(blocks) == len(set(blocks))
        cells = [r.group_cells[g] for g in active]
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                dr = abs(cells[a][0] - cells[b][0])
                dc = abs(cells[a][1] - cells[b][1])
                assert max(dr, dc) >= 2  # never edge- or corner-adjacent


# ---------------------------------------------------------------------------
# model dispatch
# ---------------------------------------------------------------------------


def test_link_capacity_dispatch():
    hier = NetworkParams(mode="hier", p1=1.0, alpha=4.0, epsilon=0.1, c2=2.0)
    caps = link_capacity(LONE_GROUP, 0, np.array([1]), hier)[0]
    np.testing.assert_allclose(np.delete(caps, 1), 2.0 * 4**-0.1, rtol=1e-12)
    assert caps[1] == math.inf

    caps = link_capacity(LONE_GROUP, 0, np.array([1]), EXACT_PARAMS)[0]
    assert caps.shape == (4,)
    assert caps[1] == math.inf
    assert caps[0] == pytest.approx(
        exact_sinr_capacity(LONE_GROUP, 0, (0, 1), EXACT_PARAMS)
    )
    with pytest.raises(ValueError):
        link_capacity(LONE_GROUP, 0, np.array([4]), hier)


# ---------------------------------------------------------------------------
# per-receiver kernel against the per-pair reference loop
# ---------------------------------------------------------------------------


def _reference_pair_capacity(realization, k, pair, params):
    """Per-pair, per-interferer loop the per-receiver kernel replaced."""
    members = realization.group_members[k]
    i, j = pair
    pos = realization.dest_pos
    rx = pos[members[j]]
    sig_dist = float(np.linalg.norm(pos[members[i]] - rx))
    interference = 0.0
    for l in _co_active(realization, k):
        if l == k:
            continue
        other = realization.group_members[l]
        tx = pos[other[min(i, other.size - 1)]]
        interference += params.p1 * float(np.linalg.norm(tx - rx)) ** -params.alpha
    sinr = params.p1 * sig_dist**-params.alpha / (1.0 + interference)
    return math.log2(1.0 + sinr) / members.size


def _assert_kernel_matches_reference(realization, params):
    checked = 0
    for k in range(realization.n1):
        n2 = realization.n2_of(k)
        for j in range(n2):
            caps = link_capacity(realization, k, np.array([j]), params)[0]
            assert caps[j] == math.inf
            for i in range(n2):
                if i == j:
                    continue
                want = _reference_pair_capacity(realization, k, (i, j), params)
                assert caps[i] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert exact_sinr_capacity(realization, k, (i, j), params) == caps[i]
                checked += 1
    return checked


def test_receiver_kernel_matches_pair_loop_on_random_network():
    p = NetworkParams(m=8, beta=2.5, alpha=3.0, p1=2.0, seed=4)
    r = place_nodes(p, derive_rng(p.seed, 0))
    assert max(len(_co_active(r, k)) for k in range(r.n1)) > 2
    assert _assert_kernel_matches_reference(r, p) > 1000


def test_receiver_kernel_matches_pair_loop_with_clamped_rank():
    r = _two_group_realization(co_active=True)
    assert _assert_kernel_matches_reference(r, EXACT_PARAMS) == 2
