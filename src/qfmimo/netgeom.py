"""Random network geometry on the unit square.

A run places one multi-antenna source at the center and n = round(m**beta)
single-antenna destinations uniformly at random, partitions the square into
a grid of equal cells, and groups destinations by cell with one in-place
sort of packed uint64 keys: cell id, a prefix of the source distance's bit
pattern and the destination index, from the high bits down.  Keys whose
cell and prefix tie are then put in (distance, index) order.  Groups are
the occupied cells in row-major order, and their members are kept sorted by
source distance, ties in index order; the farthest member of a group sets
the reference path loss used by the rate modules.

Every pass over the n destinations (drawing, distances, the exclusion-disk
check, sort keys, the search for tied keys) runs in chunks of _CHUNK
points that write straight into the arrays the realization keeps, so
temporaries stay chunk-sized and a network of n <= _CHUNK takes one pass.
Each source distance is computed once, in the chunk that draws its point,
for the disk check and the sort key; the key's distance prefix is laid out
from the farthest corner of the square, known before any draw, so no
n-sized distance array exists.  Readers recompute distances from positions,
bitwise equal to the first computation: a group at a time
(NetworkRealization.group_distances) or all of them in blocks
(NetworkRealization.source_distances).  What a realization keeps is, at
m = 128 and beta = 3 (n = 2**21): dest_pos 32 MiB and the sorted index
array behind group_members 16 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

SOURCE_POS = (0.5, 0.5)

# An exclusion disk of radius >= 0.7 centered on the source (nearly) covers
# the unit square, so rejection sampling cannot terminate.
MAX_EXCLUSION_RADIUS = 0.7

MODES = ("tdma", "hier")

# Points per pass of every n-sized loop of placement and grouping, and twice
# the rows of a source_distances block.  Each pass writes into the arrays a
# realization keeps, so a temporary holds at most one chunk; 2**15 points
# keep a pass's operands in cache.
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
    cell_counts covers every cell, empty ones too.  groups_of maps
    destinations to their groups.  Positions and the group order are all a
    realization keeps: group_distances recomputes a group's source
    distances from its members' positions, and source_distances recomputes
    every destination's, block by block into one reused buffer.
    """

    dest_pos: np.ndarray
    grid_side: int
    group_members: list[np.ndarray]
    group_cells: list[tuple[int, int]]
    cell_counts: np.ndarray

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
        """Source distances of group k's members, ascending, recomputed from
        their positions."""
        return _source_dist(self.dest_pos[self.group_members[k]])

    def source_distances(self) -> Iterator[np.ndarray]:
        """Every destination's source distance, in index order, as blocks of
        at most _CHUNK // 2 rows.

        Each block is a view of one (2, min(n, _CHUNK // 2)) buffer, which
        holds a block and its squares, and the next block overwrites it: a
        caller may change a block in place but must not keep it.
        """
        rows = _CHUNK // 2
        buf = np.empty((2, min(self.n, rows)))
        for lo in range(0, self.n, rows):
            hi = min(lo + rows, self.n)
            dist, squares = buf[:, :hi - lo]
            yield _source_dist(self.dest_pos[lo:hi], out=dist, squares=squares)

    def groups_of(self, dests: np.ndarray) -> np.ndarray:
        """Group ids of destination indices dests: each one's cell counted
        among the occupied cells in row-major order."""
        cells = _cell_ids(self.dest_pos[dests], self.grid_side, np.empty(len(dests), np.intp))
        return (np.cumsum(self.cell_counts.reshape(-1) > 0) - 1)[cells]


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


def realization_from_positions(dest_pos: np.ndarray, grid_side: int) -> NetworkRealization:
    """Build the grid/group bookkeeping for explicitly given positions.

    Destinations must be finite and lie in the unit square, and grid_side
    must be a positive integer; anything else raises ValueError.
    """
    dest_pos = np.asarray(dest_pos, dtype=float).reshape(-1, 2)
    n = dest_pos.shape[0]
    if not isinstance(grid_side, (int, np.integer)) or isinstance(grid_side, bool):
        raise ValueError(f"grid_side must be an integer, got {grid_side!r}")
    g = int(grid_side)
    if n < 1 or g < 1:
        raise ValueError("need at least one destination and one cell")
    # min/max propagate NaN, so this also rejects non-finite coordinates.
    if not (dest_pos.min() >= 0.0 and dest_pos.max() <= 1.0):
        raise ValueError("destination coordinates must be finite and lie in [0, 1]")
    fields = _key_fields(n, g)
    key = np.empty(n, dtype=np.uint64)
    dist = np.empty(min(n, _CHUNK))
    for s in _chunks(n):
        index = np.arange(s.start, s.stop, dtype=np.uint64)
        _pack_keys(dest_pos[s], index, fields, key[s], dist[: s.stop - s.start])
    del index, dist  # free the chunk scratch before grouping
    return _group(dest_pos, key, fields)


class _KeyFields(NamedTuple):
    """Layout of the packed uint64 sort keys: cell | distance prefix | index.

    The id of the point's cell in a g x g grid takes the high bits and the
    index index_bits low bits; the dist_bits in between hold the prefix
    bits(d) >> shift of the distance's bit pattern.  Non-negative doubles
    order like their bit patterns, so the prefix is non-decreasing in
    distance: it can tie two distances but never invert them.
    """

    g: int
    index_bits: int
    dist_bits: int
    shift: int


def _key_fields(n: int, g: int) -> _KeyFields:
    """Key layout for n points on a g x g grid at distances in [0, _FARTHEST].

    The bound is known before any point is drawn, so every chunk can write
    its keys as soon as it has its distances, and no distance's prefix
    overflows its field.  The fields fit for n < 2**32.
    """
    index_bits = max(1, (n - 1).bit_length())
    dist_bits = 64 - index_bits - max(1, (g * g - 1).bit_length())
    shift = max(0, int(np.float64(_FARTHEST).view(np.uint64)).bit_length() - dist_bits)
    return _KeyFields(g, index_bits, dist_bits, shift)


def _pack_keys(
    pos: np.ndarray,
    index: np.ndarray,
    fields: _KeyFields,
    out: np.ndarray,
    dist: np.ndarray,
) -> np.ndarray:
    """Write the sort keys of points pos, with uint64 indices index, into out.

    The points' source distances are computed into the scratch dist and
    returned, for the caller's disk check.
    """
    # The keys are not written yet, so out holds the squares.
    _source_dist(pos, out=dist, squares=out.view(np.float64))
    part = _cell_ids(pos, fields.g, out=out)
    part <<= fields.dist_bits
    part |= dist.view(np.uint64) >> fields.shift
    part <<= fields.index_bits
    part |= index
    return dist


def _group(dest_pos: np.ndarray, key: np.ndarray, fields: _KeyFields) -> NetworkRealization:
    """Grid/group bookkeeping for checked positions and their packed keys."""
    n, g = dest_pos.shape[0], fields.g
    # One in-place sort of the keys gives the (cell, distance, index) order,
    # and the groups are the occupied cells in row-major order.  Runs of
    # equal cell and prefix are then put in (distance, index) order.
    key.sort()
    index_bits = fields.index_bits
    mask = 2**index_bits - 1
    # Each chunk lists the positions p whose keys p and p + 1 tie in their
    # high bits; random positions give few such pairs.
    pairs = [
        s.start + np.flatnonzero((key[s.start + 1:s.stop + 1] ^ key[s]) <= mask)
        for s in _chunks(n - 1)
    ]
    if any(p.size for p in pairs):
        first = np.concatenate(pairs)
        # The positions p and p + 1 of every pair, sorted and without repeats.
        tied = np.concatenate((first, first + 1))
        tied.sort()
        tied = tied[np.concatenate(([True], tied[1:] != tied[:-1]))]
        # Tied positions can hold runs of two cells side by side, so the
        # cell and prefix bits stay the primary sort key of the repair.
        runs = key[tied]
        dist = _source_dist(dest_pos[(runs & mask).view(np.intp)])
        key[tied] = runs[np.lexsort((runs, dist, runs >> index_bits))]
    # Cell c's destinations start at the first key whose cell bits reach c;
    # the low bits of the sorted keys are then the permutation.
    cell_start = np.searchsorted(
        key, np.arange(g * g, dtype=np.uint64) << (fields.dist_bits + index_bits)
    )
    counts = np.diff(cell_start, append=n)
    occupied = np.flatnonzero(counts)
    key &= mask
    order = key.view(np.intp)

    return NetworkRealization(
        dest_pos=dest_pos,
        grid_side=g,
        group_members=np.split(order, cell_start[occupied[1:]]),
        group_cells=[(int(c) // g, int(c) % g) for c in occupied],
        cell_counts=counts.reshape(g, g),
    )


def _cell_ids(pos: np.ndarray, g: int, out: np.ndarray) -> np.ndarray:
    """Row-major ids of the cells of a g x g grid that hold points pos, in out.

    A coordinate x falls in cell min(floor(x * g), g - 1), so points on the
    upper or right boundary fold into the last cell.  That equals
    floor(min(x * g, g - 1)): assigning floats to integers truncates, as
    astype does.  The column goes through the narrowest type that holds
    g - 1, which keeps that temporary small.
    """
    scaled = pos[:, 1] * g
    out[...] = np.minimum(scaled, g - 1, out=scaled)
    out *= g
    np.multiply(pos[:, 0], g, out=scaled)
    out += np.minimum(scaled, g - 1, out=scaled).astype(np.min_scalar_type(g - 1))
    return out


def place_nodes(params: NetworkParams, rng: np.random.Generator) -> NetworkRealization:
    """Draw a network realization: uniform destinations, source at center.

    Destinations falling inside the exclusion disk around the source are
    resampled until they land outside, so every simulated source distance
    exceeds exclusion_radius.  Each distance is computed once, where its
    point is drawn, for the disk check and the point's sort key.
    """
    n = params.n
    g = partition_cells(n, params.q)
    r = params.exclusion_radius
    fields = _key_fields(n, g)
    pos = np.empty((n, 2))
    key = np.empty(n, dtype=np.uint64)
    dist = np.empty(min(n, _CHUNK))
    inside = []
    # Chunks of rows draw the same stream as one (n, 2) draw.
    for s in _chunks(n):
        rng.random(out=pos[s])
        index = np.arange(s.start, s.stop, dtype=np.uint64)
        d = _pack_keys(pos[s], index, fields, key[s], dist[: s.stop - s.start])
        if r > 0.0:
            inside.append(s.start + np.flatnonzero(d <= r))
    # Only redrawn points can land inside again, so each pass redraws,
    # rechecks and rekeys just those, a chunk at a time; ascending indices
    # draw in the same order as a mask.
    redo = np.concatenate(inside) if inside else np.empty(0, dtype=np.intp)
    while redo.size:
        inside = []
        for s in _chunks(redo.size):
            rows = redo[s]
            drawn = rng.random((rows.size, 2))
            pos[rows] = drawn
            keys = np.empty(rows.size, dtype=np.uint64)
            d = _pack_keys(drawn, rows.view(np.uint64), fields, keys, dist[: rows.size])
            key[rows] = keys
            inside.append(rows[d <= r])
        redo = np.concatenate(inside)
    del index, d, dist  # free the chunk scratch before grouping
    # Uniform draws lie in [0, 1), so the coordinate check is not needed.
    return _group(pos, key, fields)


def _chunks(n: int) -> list[slice]:
    """Consecutive slices of at most _CHUNK points that cover range(n)."""
    return [slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]


def _source_dist(
    pos: np.ndarray, out: np.ndarray | None = None, squares: np.ndarray | None = None
) -> np.ndarray:
    """Row distances to the source, bitwise equal to norm(pos - SOURCE_POS, axis=1).

    One pass computes them in out, with the squared y offsets in squares;
    either is a new array unless the caller lends scratch of pos's length.
    """
    d = np.subtract(pos[:, 0], SOURCE_POS[0], out=out)
    d *= d
    dy = np.subtract(pos[:, 1], SOURCE_POS[1], out=squares)
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


# Largest computed source distance of a point of the unit square: rounding
# is monotone and each coordinate offset is largest in magnitude at a
# corner, and the centered source is equally far from all four.
_FARTHEST = float(_source_dist(np.zeros((1, 2)))[0])


def cell_occupancy_stats(realization: NetworkRealization) -> tuple[int, int, float]:
    """(min, max, mean) destination count over all grid cells, empty included."""
    counts = realization.cell_counts
    return int(counts.min()), int(counts.max()), float(counts.mean())


def min_source_distance(realization: NetworkRealization) -> float:
    """Smallest source-to-destination distance in the realization."""
    return min(float(d.min()) for d in realization.source_distances())
