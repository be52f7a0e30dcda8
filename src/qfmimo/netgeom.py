"""Random network geometry on the unit square.

A run places one multi-antenna source at the center and n = round(m**beta)
single-antenna destinations uniformly at random, partitions the square into
a grid of equal cells, and groups destinations by cell with one in-place
sort of packed uint64 keys: group id, a prefix of the source distance's bit
pattern and the destination index, from the high bits down.  Keys whose
group and prefix tie are then put in (distance, index) order.  Group
members are therefore kept sorted by source distance, ties in index order;
the farthest member of a group sets the reference path loss used by the
rate modules.

Every pass over the n destinations (drawing, distances, cell ids, group
ids, key fields, tie flags) runs in chunks of _CHUNK points that write
straight into the arrays the realization keeps, so temporaries stay
chunk-sized and a network of n <= _CHUNK takes one pass.  What a
realization keeps is, at m = 128 and beta = 3 (n = 2**21): dest_pos
32 MiB, source_dist 16 MiB, the sorted index array behind group_members
16 MiB, and group_of and rank_of 4 MiB each.  Besides these, grouping
holds an n-sized cell-id array (before the keys exist) and one n-sized
array of ranks.
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

# Points per pass of every n-sized loop of placement, grouping and the
# cut-set bound.  Each pass writes into the arrays a realization keeps, so a
# temporary holds at most one chunk; 2**15 points keep a pass's operands in
# cache.
_CHUNK = 2**15


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
        for name in ("m", "seed", "trials", "sample_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.m < 1:
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
        if not 0 <= self.seed < 2**64:
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
    in ascending distance to the source, equal distances in index order, as
    views into one sorted index array; group_cells[k] is the (row, col) of
    the cell hosting group k, groups numbered in row-major cell order;
    cell_counts covers every cell, empty ones too.  group_of and rank_of give
    each destination's group and its position in that group, in the
    narrowest unsigned dtypes that hold them.
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
    """Build the grid/group bookkeeping for explicitly given positions.

    Destinations must be finite and lie in the unit square, grid_side must be
    a positive integer, and the source may lie anywhere its distances stay
    finite; anything else raises ValueError.
    """
    dest_pos = np.asarray(dest_pos, dtype=float).reshape(-1, 2)
    src = np.asarray(source_pos, dtype=float)
    n = dest_pos.shape[0]
    if not isinstance(grid_side, (int, np.integer)) or isinstance(grid_side, bool):
        raise ValueError(f"grid_side must be an integer, got {grid_side!r}")
    g = int(grid_side)
    if n < 1 or g < 1:
        raise ValueError("need at least one destination and one cell")
    # min/max propagate NaN, so this also rejects non-finite coordinates.
    if not (dest_pos.min() >= 0.0 and dest_pos.max() <= 1.0):
        raise ValueError("destination coordinates must be finite and lie in [0, 1]")
    with np.errstate(over="ignore"):
        source_dist = _source_dist(dest_pos, src)
    # NaN and inf propagate through max; a finite source so far away that
    # its distances overflow (beyond about 1e154) is rejected as well.
    if not np.isfinite(source_dist.max()):
        raise ValueError(
            f"source position must be finite with finite distances, got {tuple(src.tolist())}"
        )
    return _group(dest_pos, g, src, source_dist)


def _group(
    dest_pos: np.ndarray, g: int, src: np.ndarray, source_dist: np.ndarray
) -> NetworkRealization:
    """Grid/group bookkeeping for checked positions and their source distances."""
    n = dest_pos.shape[0]
    # Points exactly on the upper/right boundary fold into the last cell:
    # floor(min(x * g, g - 1)) is min(floor(x * g), g - 1).  Assigning the
    # floats truncates them as astype does.
    cell_dtype = np.min_scalar_type(g * g - 1)
    cell_id = np.empty(n, dtype=cell_dtype)
    for s in _chunks(n):
        scaled = dest_pos[s, 1] * g
        cell_id[s] = np.minimum(scaled, g - 1, out=scaled)
        cell_id[s] *= g
        np.multiply(dest_pos[s, 0], g, out=scaled)
        cell_id[s] += np.minimum(scaled, g - 1, out=scaled).astype(cell_dtype)
    del scaled
    # bincount casts its input to intp and returns g * g counts, so it takes
    # slices of at least g * g ids: the cast then never outgrows the counts.
    stride = max(_CHUNK, g * g)
    counts = np.zeros(g * g, dtype=np.intp)
    for lo in range(0, n, stride):
        counts += np.bincount(cell_id[lo:lo + stride], minlength=g * g)
    occupied = np.flatnonzero(counts)
    # The narrowest unsigned group id keeps group_of small at large n.
    group_id = np.zeros(g * g, dtype=np.min_scalar_type(occupied.size - 1))
    group_id[occupied] = np.arange(occupied.size)
    group_of = np.empty(n, dtype=group_id.dtype)
    for s in _chunks(n):
        # Cell ids are in range, so clipping never acts; unlike the default
        # mode it lets take write into out without a buffer.
        np.take(group_id, cell_id[s], out=group_of[s], mode="clip")
    del cell_id  # keeps peak memory down at large n

    # One in-place sort of uint64 keys (group | distance prefix | index,
    # from the high bits down) gives the (group, distance, index) order.
    # Non-negative doubles order like their bit patterns, and the prefix
    # (bits - min) >> shift is non-decreasing in distance, so it can tie two
    # distances but never invert them.  Runs of equal group and prefix are
    # then put in (distance, index) order.  The fields fit for n < 2**32.
    index_bits = max(1, (n - 1).bit_length())
    group_bits = max(1, (occupied.size - 1).bit_length())
    dist_bits = 64 - index_bits - group_bits
    bits = source_dist.view(np.uint64)
    low = bits.min()
    shift = max(0, (int(bits.max()) - int(low)).bit_length() - dist_bits)
    key = np.empty(n, dtype=np.uint64)
    for s in _chunks(n):
        part = np.subtract(bits[s], low, out=key[s])
        part >>= shift
        part |= np.left_shift(group_of[s], dist_bits, dtype=np.uint64)
        part <<= index_bits
        part |= np.arange(s.start, s.stop, dtype=np.uint64)
    key.sort()
    mask = 2**index_bits - 1
    # Flag both keys of every neighbouring pair that ties in its high bits.
    tied = np.zeros(n, dtype=bool)
    for s in _chunks(n - 1):
        same = (key[s.start + 1:s.stop + 1] ^ key[s]) <= mask
        tied[s] |= same
        tied[s.start + 1:s.stop + 1] |= same
    if tied.any():
        tied = np.flatnonzero(tied)
        # Tied positions can hold runs of two groups side by side, so the
        # group and prefix bits stay the primary sort key of the repair.
        runs = key[tied]
        dist = source_dist[(runs & mask).view(np.intp)]
        key[tied] = runs[np.lexsort((runs, dist, runs >> index_bits))]
    del tied
    # The low bits of the sorted keys are the permutation.
    key &= mask
    order = key.view(np.intp)
    sizes = counts[occupied]
    starts = np.cumsum(sizes) - sizes
    # Ranks in group order are a running count that restarts at each group
    # start, kept in the narrowest unsigned type.  The restart steps wrap
    # around, which is exact since every partial sum is a rank.
    rank_dtype = np.min_scalar_type(sizes.max() - 1)
    step = np.ones(n, dtype=rank_dtype)
    step[0] = 0
    step[starts[1:]] = (1 - sizes[:-1]).astype(rank_dtype)
    rank_of = np.empty(n, dtype=rank_dtype)
    rank_of[order] = np.cumsum(step, dtype=rank_dtype, out=step)

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
    pos = np.empty((n, 2))
    src = np.asarray(SOURCE_POS, dtype=float)
    dist = np.empty(n)
    # Chunks of rows draw the same stream as one (n, 2) draw.
    for s in _chunks(n):
        rng.random(out=pos[s])
        _source_dist(pos[s], src, out=dist[s])
    r = params.exclusion_radius
    if r > 0.0:
        # Only redrawn points can land inside again, so each pass rechecks
        # just those; ascending indices draw in the same order as a mask.
        redo = np.flatnonzero(dist <= r)
        while redo.size:
            pos[redo] = rng.random((redo.size, 2))
            redo_dist = _source_dist(pos[redo], src)
            dist[redo] = redo_dist
            redo = redo[redo_dist <= r]
    # Uniform draws lie in [0, 1), so the coordinate check is not needed.
    return _group(pos, partition_cells(n, params.q), src, dist)


def _chunks(n: int) -> list[slice]:
    """Consecutive slices of at most _CHUNK points that cover range(n)."""
    return [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _source_dist(
    pos: np.ndarray, src: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Row distances to src, bitwise equal to norm(pos - src, axis=1).

    Works chunk by chunk and one column at a time in place in out (a new
    array by default), so the only temporary is a chunk of squares.
    """
    dist = np.empty(pos.shape[0]) if out is None else out
    for s in _chunks(dist.size):
        d = np.subtract(pos[s, 0], src[0], out=dist[s])
        d *= d
        dy = pos[s, 1] - src[1]
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
    return dist


def cell_occupancy_stats(realization: NetworkRealization) -> tuple[int, int, float]:
    """(min, max, mean) destination count over all grid cells, empty included."""
    counts = realization.cell_counts
    return int(counts.min()), int(counts.max()), float(counts.mean())


def min_source_distance(realization: NetworkRealization) -> float:
    """Smallest source-to-destination distance in the realization."""
    return float(realization.source_dist.min())
