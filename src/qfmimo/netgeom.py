"""Random network geometry on the unit square.

A run places one multi-antenna source at the center and n = round(m**beta)
single-antenna destinations uniformly at random, partitions the square into
a grid of equal cells, and groups destinations by cell with one stable sort
on (cell, distance to the source).  Group members are therefore kept sorted
by source distance; the farthest member of a group sets the reference path
loss used by the rate modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SOURCE_POS = (0.5, 0.5)

# An exclusion disk of radius >= 0.7 centered on the source (nearly) covers
# the unit square, so rejection sampling cannot terminate.
MAX_EXCLUSION_RADIUS = 0.7

MODES = ("tdma", "hier")


@dataclass(frozen=True)
class NetworkParams:
    """Scalar knobs of one simulation run.

    m                 source antenna count
    beta              destination-count exponent, n = round(m**beta)
    alpha             path-loss exponent (> 2)
    p0, p1            source / per-destination transmit powers (noise = 1)
    q                 cell-area exponent: cells have area ~ n**(-q)
    delta             fraction of time spent on the source-to-group phase
    mode              relay discipline inside a group: "tdma" or "hier"
    epsilon, c2       per-node rate guarantee c2 * n2**(-epsilon) in hier mode
    exclusion_radius  destinations are resampled out of this disk around the
                      source so all simulated distances stay order one
    trials            Monte Carlo phase draws per rate estimate
    sample_size       destinations evaluated per sum-rate estimate
    """

    m: int = 4
    beta: float = 3.0
    alpha: float = 4.0
    p0: float = 1.0
    p1: float = 1.0
    q: float = 0.5
    delta: float = 0.5
    mode: str = "tdma"
    epsilon: float = 0.05
    c2: float = 1.0
    exclusion_radius: float = 0.1
    seed: int = 0
    trials: int = 200
    sample_size: int = 50

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        for name in ("beta", "alpha", "p0", "p1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.alpha <= 2:
            raise ValueError(f"alpha must be > 2, got {self.alpha}")
        # The power knobs admit 0 so degenerate no-signal cases stay evaluable.
        if self.p0 < 0 or self.p1 < 0:
            raise ValueError("p0 and p1 must be >= 0")
        for name in ("q", "delta", "epsilon"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.c2 <= 0:
            raise ValueError(f"c2 must be > 0, got {self.c2}")
        if not 0.0 <= self.exclusion_radius < MAX_EXCLUSION_RADIUS:
            raise ValueError(
                f"exclusion_radius must lie in [0, {MAX_EXCLUSION_RADIUS}) so the "
                f"exclusion disk leaves room to place nodes, got {self.exclusion_radius}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")

    @property
    def n(self) -> int:
        """Destination count, n = round(m**beta) >= 1."""
        return max(1, round(self.m**self.beta))


@dataclass
class NetworkRealization:
    """One drawn network: positions, cell grid, and distance-sorted groups.

    Treated as immutable after construction; safe to share across workers.
    dest_pos is (n, 2); group_members[k] lists destination indices of group k
    in ascending distance to the source; group_cells[k] is the (row, col) of
    the cell hosting group k; cell_counts covers every cell, empty ones too.
    """

    source_pos: np.ndarray
    dest_pos: np.ndarray
    grid_side: int
    group_members: list[np.ndarray]
    group_cells: list[tuple[int, int]]
    cell_counts: np.ndarray
    source_dist: np.ndarray = field(repr=False)
    group_of: np.ndarray = field(repr=False)
    rank_of: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return int(self.dest_pos.shape[0])

    @property
    def n1(self) -> int:
        """Number of nonempty groups (empty cells host no group)."""
        return len(self.group_members)

    def n2_of(self, k: int) -> int:
        return int(self.group_members[k].shape[0])

    @property
    def n2_mean(self) -> float:
        return self.n / self.n1

    def group_distances(self, k: int) -> np.ndarray:
        """Source distances of group k's members, ascending."""
        return self.source_dist[self.group_members[k]]


def partition_cells(n: int, q: float) -> int:
    """Grid side for n destinations and cell-area exponent q.

    Targets n**q cells; the side is rounded so the g x g grid tiles the unit
    square exactly (cells of side 1/g), which keeps group assignment
    unambiguous even when n**q is not a perfect square.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly in (0, 1), got {q}")
    return max(1, round(n ** (q / 2.0)))


def realization_from_positions(
    dest_pos: np.ndarray,
    grid_side: int,
    source_pos: tuple[float, float] = SOURCE_POS,
) -> NetworkRealization:
    """Build the grid/group bookkeeping for explicitly given positions."""
    dest_pos = np.asarray(dest_pos, dtype=float).reshape(-1, 2)
    src = np.asarray(source_pos, dtype=float)
    n = dest_pos.shape[0]
    g = int(grid_side)
    if n < 1 or g < 1:
        raise ValueError("need at least one destination and one cell")

    source_dist = np.linalg.norm(dest_pos - src, axis=1)
    # Points exactly on the upper/right boundary fold into the last cell.
    cell_id = np.minimum((dest_pos[:, 1] * g).astype(int), g - 1)
    cell_id *= g
    cell_id += np.minimum((dest_pos[:, 0] * g).astype(int), g - 1)
    counts = np.bincount(cell_id, minlength=g * g)
    group_of = (np.cumsum(counts > 0) - 1)[cell_id]
    del cell_id  # keeps peak memory down at large n

    # One stable sort orders destinations by group, then by source distance;
    # distance ties keep index order.
    order = np.lexsort((source_dist, group_of))
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    starts = np.cumsum(sizes) - sizes
    rank_of = np.empty(n, dtype=int)
    rank_of[order] = np.arange(n)
    rank_of -= starts[group_of]

    return NetworkRealization(
        source_pos=src,
        dest_pos=dest_pos,
        grid_side=g,
        group_members=np.split(order, starts[1:]),
        group_cells=[(int(c) // g, int(c) % g) for c in occupied],
        cell_counts=counts.reshape(g, g),
        source_dist=source_dist,
        group_of=group_of,
        rank_of=rank_of,
    )


def place_nodes(params: NetworkParams, rng: np.random.Generator) -> NetworkRealization:
    """Draw a network realization: uniform destinations, source at center.

    Destinations falling inside the exclusion disk around the source are
    resampled until they land outside, so every simulated source distance
    exceeds exclusion_radius.
    """
    n = params.n
    pos = rng.random((n, 2))
    r = params.exclusion_radius
    if r > 0.0:
        src = np.asarray(SOURCE_POS)
        inside = np.linalg.norm(pos - src, axis=1) <= r
        while inside.any():
            pos[inside] = rng.random((int(inside.sum()), 2))
            inside = np.linalg.norm(pos - src, axis=1) <= r
    return realization_from_positions(pos, partition_cells(n, params.q))


def cell_occupancy_stats(realization: NetworkRealization) -> tuple[int, int, float]:
    """(min, max, mean) destination count over all grid cells, empty included."""
    counts = realization.cell_counts
    return int(counts.min()), int(counts.max()), float(counts.mean())


def min_source_distance(realization: NetworkRealization) -> float:
    """Smallest source-to-destination distance in the realization."""
    return float(realization.source_dist.min())
