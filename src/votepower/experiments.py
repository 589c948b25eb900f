"""Monte Carlo estimation over random games, class discovery, extremum
counting, and spline fits of quota curves.

Estimators are deterministic by construction: samples are processed in
fixed-size chunks, chunk c draws from the substream (seed, chunk c), and
partial results are reduced in chunk order.  The worker count changes
only wall-clock time, never a single bit of output, and sample i depends
only on (seed, stream, i), so shorter runs are prefixes of longer ones.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import games
from .errors import BudgetExceededError, InvalidArgumentsError
from .simplex import (
    _simplex_rows,
    as_count,
    as_player_count,
    as_quota_grid,
    as_seed,
    default_quota_grid,
)

MC_CHUNK = 4096
MC_KERNEL_BUDGET = 18          # vectorized per-sample enumeration cap
# 2^n * block columns.  It fixes the reduction blocks, whose sums, squares
# and ranges give every output bit, so changing it changes the bits.  A
# block is counted and reduced one leaf of numpy's pairwise summation tree
# at a time (``_pairwise_tree``), so its size sets no memory.
_SUM_CELL_BUDGET = 1 << 22
# Cells a tile of counting holds: per sample its 2^n sums, which become its
# bin keys, and its histogram entries; or a slab of index values or
# Hoeffding bounds, some quota levels of a leaf; or a stack of spline
# designs.  A leaf holds as many samples as keep its integer counts within
# the bytes of one slab.  It sets only cache residency and memory.
_TILE_CELL_BUDGET = 1 << 18


@dataclass(frozen=True, eq=False)
class QuotaCurve:
    """Per-quota statistics of one scalar series."""

    quotas: np.ndarray
    name: str
    mean: np.ndarray
    stderr: np.ndarray
    samples: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        as_quota_grid(self.quotas)
        if np.any(np.asarray(self.stderr) < 0) or np.any(np.asarray(self.samples) <= 0):
            raise InvalidArgumentsError("standard errors must be >= 0, samples > 0")


def _chunk_games(n: int, seed, chunk_index: int, count: int):
    """Games [0, count) of chunk ``chunk_index``: weight rows sorted
    descending, and quotas uniform on (1/2, 1].

    The chunk's generator draws all ``MC_CHUNK`` weight rows, then
    ``MC_CHUNK`` quotas 1 - U/2, and only then are both cut to ``count``,
    so game i depends only on (seed, stream, i).
    """
    rng = as_seed(seed).substream(chunk_index).generator()
    weights = _simplex_rows(rng, n, MC_CHUNK)[:count]
    weights.sort(axis=1)
    quotas = 1.0 - 0.5 * rng.random(MC_CHUNK)[:count]
    return weights[:, ::-1], quotas


def _sorted_weight_chunk(n: int, seed, chunk_index: int, count: int) -> np.ndarray:
    """Rows [0, count) of chunk ``chunk_index``, each sorted descending."""
    return _chunk_games(n, seed, chunk_index, count)[0]


def _square_sum_chunk(n: int, seed, chunk_index: int, count: int) -> np.ndarray:
    """Each row's sum of squares for the rows of ``_sorted_weight_chunk``,
    drawn from the chunk's generator a block of rows at a time, so no
    chunk x n matrix is held."""
    rng = as_seed(seed).substream(chunk_index).generator()
    rows = max(1, _TILE_CELL_BUDGET // n)
    blocks = (_simplex_rows(rng, n, min(rows, count - i)) for i in range(0, count, rows))
    return np.concatenate([games._square_sums(np.sort(w)[:, ::-1]) for w in blocks])


class _Accumulator:
    """Sum, sum of squares, and range per series; the range lets constant
    series (for example every statistic at q = 1) finalize exactly.

    Each leaf of samples gets a fresh accumulator, which ``add`` fills one
    slab at a time.  Merging adds the sums and squares and takes the lower
    minimum and the higher maximum: it joins a block's leaves up the
    pairwise tree, then the blocks of a chunk in order, then the chunks in
    order.
    """

    def __init__(self, shape):
        self.total, self.total_sq = np.zeros((2, *shape))
        self.low = np.full(shape, np.inf)
        self.high = np.full(shape, -np.inf)

    def add(self, values, rows):
        """Take in one slab: ``values`` holds the rows ``rows`` (a slice of
        the first axis) with the samples on its last axis, and is squared
        in place."""
        self.total[rows] += values.sum(axis=-1)
        # fmin and fmax, which skip numpy's NaN checks, since no value is NaN
        np.minimum(self.low[rows], np.fmin.reduce(values, axis=-1), out=self.low[rows])
        np.maximum(self.high[rows], np.fmax.reduce(values, axis=-1), out=self.high[rows])
        self.total_sq[rows] += np.square(values, out=values).sum(axis=-1)

    def merge(self, other):
        """Take in ``other``'s statistics; returns self."""
        self.total += other.total
        self.total_sq += other.total_sq
        np.minimum(self.low, other.low, out=self.low)
        np.maximum(self.high, other.high, out=self.high)
        return self

    def finalize(self, samples):
        mean = self.total / samples
        if samples > 1:
            variance = np.maximum(self.total_sq / samples - mean * mean, 0.0)
            stderr = np.sqrt(variance * (samples / (samples - 1.0)) / samples)
        else:
            stderr = np.zeros_like(mean)
        constant = self.low == self.high
        mean[constant] = self.low[constant]
        stderr[constant] = 0.0
        return mean, stderr


def _pairwise_tree(lo, hi, cap, leaf, merge):
    """``leaf(a, b)`` for each leaf of numpy's pairwise summation tree over
    the samples [lo, hi), merged up the tree by ``merge(left, right)``.

    numpy sums a contiguous float64 run of L values as pw(h) + pw(L - h),
    h = L // 2 rounded down to a multiple of 8, down to runs of at most 128
    that it sums in one loop.  A node of at most max(cap, 128) samples is
    one leaf here, so sums taken per leaf and added up the tree have the
    bits of one sum over [lo, hi).
    """
    if hi - lo <= max(cap, 128):
        return leaf(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    left = _pairwise_tree(lo, lo + half, cap, leaf, merge)
    return merge(left, _pairwise_tree(lo + half, hi, cap, leaf, merge))


def _count_dtype(n: int):
    """The smallest unsigned dtype that holds 2^n - 1 winning coalitions
    (the empty coalition never wins)."""
    return np.min_scalar_type((1 << n) - 1)


def _power_values(weights, grid, statistic, scratch=None):
    """Per-sample index values over the grid, as (rows, values) slabs: rows
    is a slice of the grid, and values is (levels, n, samples) profiles,
    largest first, or (levels, 1, samples) for coleman, for the samples of
    ``weights``.  The Monte Carlo run gives it one leaf of a reduction block
    at a time (see ``_mc_curves``).

    The samples are counted in tiles, each as many samples as keep its
    coalition sums, bin keys and histogram within ``_TILE_CELL_BUDGET``
    cells; every sample's counts are computed on its own, so the tiling
    changes no bit.  Each tile's per-level histograms
    (``games._level_histograms``) go into its columns of the samples'
    integer counts, of ``_count_dtype(n)``, and once all are filled
    ``games._suffix_sums``, the suffix pass of the fixed-game quota curve
    too, turns them into winning counts.  The counts are then turned into
    values a slab of levels at a time, as many as keep the slab's values
    within ``_TILE_CELL_BUDGET`` cells, so the slab is reduced while in
    cache: a slab's counts are copied to float64, which holds them exactly,
    and ``games._index_values`` writes the values over the member counts
    (over omega for coleman).  The weights come sorted descending and
    swings are monotone in weight, so profiles normally are already in rank
    order; one comparison of each rank with the next finds a slab with any
    profile out of order, and that slab is sorted, negated so that an
    ascending sort in place gives descending order.  Sorting the values
    gives the bits that sorting the swings would, since each profile is
    divided by one positive constant.

    With a ``scratch`` (see ``games._scratch_array``) the tile table, the
    counts, the slabs and the binning arrays are its arrays, reused call
    after call; a slab is then overwritten by the next, so it must be
    consumed first.  The beta totals and the rank-order check take fresh
    arrays, a slab's size at most.
    """
    n = weights.shape[1]
    members = statistic != "coleman"
    series = n if members else 1
    per_column = (1 << n) + (grid.size + 1) * series
    width = min(len(weights), max(1, _TILE_CELL_BUDGET // per_column))
    # each tile's sums, then its bin keys
    table = games._scratch_array(scratch, "table", width << n)
    # per level: omega, then each player's member count
    shape = (grid.size, 1 + n if members else 1, len(weights))
    counts = games._scratch_array(scratch, "counts", math.prod(shape), _count_dtype(n))
    counts = counts.reshape(shape)
    for start in range(0, len(weights), width):
        tile = weights[start:start + width]
        sums = games._full_sums(tile.T, out=table[:len(tile) << n])
        games._level_histograms(sums, grid, counts[:, :, start:start + len(tile)], scratch)
    games._suffix_sums(counts)
    levels = max(1, _TILE_CELL_BUDGET // (series * len(weights)))
    for low in range(0, grid.size, levels):
        rows = slice(low, low + levels)
        # series first, so that each series' levels are one contiguous run
        part = counts[rows].transpose(1, 0, 2)
        slab = games._scratch_array(scratch, "slab", part.size).reshape(part.shape)
        np.copyto(slab, part)
        omega = slab[0]
        if members:
            values = slab[1:]
            # (levels, n, samples), as _index_values takes member counts
            swings = values.transpose(1, 0, 2)
            games._index_values(n, statistic, omega, swings, out=swings)
            if not (values[:-1] >= values[1:]).all():
                np.negative(values, out=values)
                values.sort(axis=0)
                np.negative(values, out=values)
        else:
            values = slab
            games._index_values(n, statistic, omega, out=omega)
        yield rows, values.transpose(1, 0, 2)


def _mc_counts(n, samples, workers) -> tuple[int, int, int]:
    """The Monte Carlo estimators' counts, each checked to be an integer >= 1."""
    return (
        as_player_count(n),
        as_count(samples, "sample count"),
        as_count(workers, "worker count"),
    )


def _check_kernel_budget(n: int) -> None:
    """The per-sample enumeration of ``_power_values`` holds 2^n sums."""
    if n > MC_KERNEL_BUDGET:
        raise BudgetExceededError(
            f"vectorized Monte Carlo supports n <= {MC_KERNEL_BUDGET}"
        )


def _hoeffding_slabs(ssq, grid, scratch=None):
    """The Hoeffding bounds from each sample's sum of squared weights, as
    one (rows, values) slab holding every row: values is (grid, 1,
    samples), an array of ``scratch`` if one is given."""
    values = games._scratch_array(scratch, "values", grid.size * ssq.size).reshape(grid.size, -1)
    yield slice(None), games._hoeffding_values(ssq, grid, out=values)[:, None]


def _run_chunks(worker, samples: int, workers: int):
    """Evaluate ``worker(index, count)`` on each ``MC_CHUNK``-sample chunk
    and reduce the partials with their ``merge`` method in chunk order,
    each as it arrives.  One worker runs the chunks in the calling thread;
    more share a thread pool."""
    counts = [min(MC_CHUNK, samples - start) for start in range(0, samples, MC_CHUNK)]
    if workers <= 1:
        return _reduce(map(worker, range(len(counts)), counts))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _reduce(pool.map(worker, range(len(counts)), counts))


def _reduce(partials):
    """Merge each partial into the first, in order."""
    combined = next(partials)
    for part in partials:
        combined.merge(part)
    return combined


def _mc_curves(
    n, quotas, samples, seed, workers, values, names, method="mc",
    draw=_sorted_weight_chunk, block=None, level_bytes=8,
):
    """The Monte Carlo run shared by the ``mc_*`` estimators.

    ``draw(n, seed, index, count)`` gives a chunk's samples, by default its
    descending-sorted weight vectors, one row per sample, and
    ``values(samples, grid, scratch=scratch)`` maps them to (rows, values)
    slabs: rows is a slice of the grid, and values is (levels, names,
    samples), one curve per name.

    A chunk is reduced in blocks of ``block`` samples (None: the whole
    chunk): each (quota, name) series is summed pairwise over a block.  No
    block is held whole.  ``_pairwise_tree`` walks it in leaves of at most
    ``8 * _TILE_CELL_BUDGET // (levels * level_bytes)`` samples, or 128 if
    that is more, where ``level_bytes`` is what one sample holds per quota
    level while its leaf is reduced, so a leaf fits in the bytes of one
    slab.  ``values`` maps each leaf into a fresh accumulator of the full
    (grid, names) shape; the leaves are merged up the tree with
    ``_Accumulator.merge``, which gives the bits of one pairwise sum over
    the block, and the blocks are merged in order.  ``scratch`` is a
    ``threading.local``, so each worker thread holds its own working arrays
    from chunk to chunk, and they are freed when the call returns.
    The callers have checked n, samples and workers with ``_mc_counts``.
    """
    grid = as_quota_grid(default_quota_grid() if quotas is None else quotas)
    base = as_seed(seed)
    scratch = threading.local()
    shape = (grid.size, len(names))
    cap = 8 * _TILE_CELL_BUDGET // (grid.size * level_bytes)

    def worker(index, count):
        chunk = draw(n, base, index, count)

        def leaf(lo, hi):
            stats = _Accumulator(shape)
            for rows, slab in values(chunk[lo:hi], grid, scratch=scratch):
                stats.add(slab, rows)
            return stats

        acc = _Accumulator(shape)
        step = block or count
        for first in range(0, count, step):
            tree = _pairwise_tree(first, min(first + step, count), cap, leaf, _Accumulator.merge)
            acc.merge(tree)
        return acc

    mean, stderr = _run_chunks(worker, samples, workers).finalize(samples)
    meta = {"n": n, "seed": base.seed, "stream": base.stream, "method": method}
    counts = np.full(grid.size, samples, dtype=np.int64)
    return [
        QuotaCurve(grid, name, mean[:, k].copy(), stderr[:, k].copy(), counts, dict(meta))
        for k, name in enumerate(names)
    ]


def _counted_curves(n, quotas, samples, seed, workers, statistic, names):
    """``_mc_curves`` over ``_power_values``, in blocks of
    ``_SUM_CELL_BUDGET >> n`` samples; a leaf's samples hold their integer
    counts per quota level."""
    _check_kernel_budget(n)
    values = functools.partial(_power_values, statistic=statistic)
    rows = 1 if statistic == "coleman" else 1 + n
    return _mc_curves(
        n, quotas, samples, seed, workers, values, names,
        block=max(1, _SUM_CELL_BUDGET >> n), level_bytes=rows * _count_dtype(n).itemsize,
    )


def mc_power_curve(
    n: int,
    quotas=None,
    samples: int = 65536,
    seed=0,
    statistic: str = "beta",
    workers: int = 1,
) -> list[QuotaCurve]:
    """Monte Carlo estimate of the expected ordered index per rank.

    For each sampled weight vector the exact index profile is computed at
    every grid quota (common random numbers across the grid), sorted in
    descending order, and accumulated per rank.  Returns one curve per
    rank, largest player first.
    """
    if statistic not in ("beta", "psi"):
        raise InvalidArgumentsError(f"unknown statistic {statistic!r}")
    n, samples, workers = _mc_counts(n, samples, workers)
    names = [f"{statistic}_rank_{k + 1}" for k in range(n)]
    return _counted_curves(n, quotas, samples, seed, workers, statistic, names)


def mc_coleman_curve(
    n: int, quotas=None, samples: int = 65536, seed=0, workers: int = 1
) -> QuotaCurve:
    """Monte Carlo mean of the exact per-game Coleman index per quota."""
    n, samples, workers = _mc_counts(n, samples, workers)
    return _counted_curves(n, quotas, samples, seed, workers, "coleman", ["coleman"])[0]


def mc_hoeffding_curve(
    n: int, quotas=None, samples: int = 65536, seed=0, workers: int = 1
) -> QuotaCurve:
    """Monte Carlo mean of the per-game Hoeffding bound on the Coleman index.

    The bound needs only each sample's sum of squared weights, so unlike
    the enumerating estimators it enumerates nothing, and a chunk's weights
    are reduced to those sums a block of rows at a time, whatever n.  The
    chunk is one reduction block; its bounds are formed a leaf at a time.
    """
    n, samples, workers = _mc_counts(n, samples, workers)
    return _mc_curves(
        n, quotas, samples, seed, workers, _hoeffding_slabs, ["hoeffding_bound"],
        method="hoeffding-bound", draw=_square_sum_chunk,
    )[0]


# --------------------------------------------------------------------------
# class discovery

# Class counts for 2..7 players, taken as exactly known: discovered counts
# may fall short under a small budget.  The n = 7 value is contradicted:
# discover_classes(7, 300000, seed=11) finds 11993 families, and a linear
# program realizes every one of them as a weighted game whose winning and
# losing coalition weights are at least 0.0137 apart, so they are not float
# ties; discover_classes(7, 10**6, seed=11), at the default budget, finds
# 14084.  No verified count is at hand to replace it.
CLASS_COUNT_CEILINGS = {2: 2, 3: 5, 4: 14, 5: 62, 6: 566, 7: 11971}


@dataclass(frozen=True)
class GameClass:
    """A winning family over rank-ordered players, with representative data.

    ``winning_masks`` lists the winning coalitions as bit masks where bit
    k marks the (k+1)-th largest player.
    """

    winning_masks: tuple[int, ...]
    beta: tuple[float, ...]
    hits: int


@dataclass(frozen=True)
class GameClassCatalog:
    n: int
    budget: int
    classes: tuple[GameClass, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def beta_vectors(self) -> set[tuple[float, ...]]:
        return {c.beta for c in self.classes}


def _run_starts(keys):
    """Where each run of equal rows of a sorted key array starts."""
    return np.flatnonzero(np.append(True, (keys[1:] != keys[:-1]).any(axis=1)))


def _family_runs(win):
    """(keys, hits) for the distinct columns of a (2^n, games) win table:
    one row of uint64 words per column, sorted, and the games that have it.

    A key is the column packed like ``np.packbits``: coalition m is bit
    7 - m % 8 of byte m >> 3, and the bytes are zero-padded to whole
    little-endian uint64 words, so a key's bytes are the packed column
    followed by zeros.  Each byte is the OR of its 8 table rows shifted
    into place, all bytes at once.
    """
    masks, count = win.shape
    size = -(-masks // 8)
    bits = np.zeros((size * 8, count), dtype=np.uint8)
    bits[:masks] = win
    bits = bits.reshape(size, 8, count)
    bits <<= np.arange(7, -1, -1, dtype=np.uint8)[:, None]
    packed = np.zeros((-(-size // 8) * 8, count), dtype=np.uint8)
    np.bitwise_or.reduce(bits, axis=1, out=packed[:size])
    keys = np.ascontiguousarray(packed.T).view("<u8")
    # One-word keys (n <= 6) sort as plain integers, far faster than lexsort.
    keys = np.sort(keys, axis=0) if keys.shape[1] == 1 else keys[np.lexsort(keys.T)]
    starts = _run_starts(keys)
    return keys[starts], np.diff(starts, append=count)


class _FamilyHits:
    """Games per winning family: keys and hits as ``_family_runs`` gives
    them.  Merged chunks wait until they hold as many keys as the merged
    set, which bounds the waiting memory, and then join it in one sort, so
    a large set is not sorted again for every chunk."""

    def __init__(self, runs):
        self.keys, self.hits = runs
        self.waiting = []
        self.waiting_keys = 0

    def merge(self, other):
        self.waiting.append(other)
        self.waiting_keys += other.hits.size
        if self.waiting_keys >= self.hits.size:
            self.settle()

    def settle(self):
        """Join the waiting chunks to the merged set; returns self."""
        parts = [self] + self.waiting
        keys = np.concatenate([p.keys for p in parts])
        order = np.lexsort(keys.T)
        keys = keys[order]
        starts = _run_starts(keys)
        hits = np.concatenate([p.hits for p in parts])[order]
        self.keys, self.hits = keys[starts], np.add.reduceat(hits, starts)
        self.waiting, self.waiting_keys = [], 0
        return self


def discover_classes(n: int, budget: int = 10 ** 6, seed=0) -> GameClassCatalog:
    """Sample random (weights, quota) games and catalog the distinct winning
    families over rank-ordered players.

    Weights are uniform on the simplex and sorted descending, so equal
    games up to the order isomorphism collapse to one family; the quota is
    uniform on (1/2, 1].  Games are drawn and reduced in the Monte Carlo
    estimators' 4096-game chunks, so game i depends only on
    (seed, stream, i) and shorter runs are prefixes of longer ones: the
    catalog at a smaller budget counts the first games of a larger one.
    Discovery is best effort: a class whose region has small volume may
    need a large budget to appear, so the budget is recorded alongside the
    result.  The n = 7 entry of ``CLASS_COUNT_CEILINGS`` is in doubt: a
    large budget finds more families than its 11971 (at seed 11, 11993 at
    budget 300000 and 14084 at the default 10^6), each one a strictly
    weighted game.
    """
    n, budget = as_player_count(n), as_count(budget, "budget")
    if not (2 <= n <= 7):
        raise InvalidArgumentsError("class discovery supports 2 <= n <= 7")
    base = as_seed(seed)

    def worker(index, count):
        # A chunk's 2^n x 4096 table is at most 2^19 cells for n <= 7.
        weights, quotas = _chunk_games(n, base, index, count)
        return _FamilyHits(_family_runs(games._full_sums(weights.T) >= quotas))

    found = _run_chunks(worker, budget, 1).settle()
    wins = np.unpackbits(found.keys.view(np.uint8), axis=1)[:, : 1 << n]
    # Each family's winning coalitions, and those holding each player.
    omega = wins.sum(axis=1, dtype=np.int64)
    member = games._member_sums(wins)
    beta = games._index_values(n, "beta", omega[None], member[None])[0].T
    classes = [
        GameClass(tuple(np.flatnonzero(w).tolist()), tuple(b), h)
        for w, b, h in zip(wins, beta.tolist(), found.hits.tolist())
    ]
    classes.sort(key=lambda c: (-c.hits, c.winning_masks))
    return GameClassCatalog(n=n, budget=budget, classes=tuple(classes))


# --------------------------------------------------------------------------
# extremum counting

def _check_finite(quotas, values):
    if not (np.isfinite(quotas).all() and np.isfinite(values).all()):
        raise InvalidArgumentsError("quotas and values must be finite")


def count_extrema(curve, smoothing_window: int = 5):
    """Count local extrema of a quota curve; returns (count, locations).

    Exact piecewise-polynomial curves report their stationary points with
    a derivative sign change.  Sampled curves are smoothed with a moving
    average first (Monte Carlo noise would otherwise create spurious
    extrema), then strict sign changes of the first difference are
    counted; this path is exploratory, not exact.  The window, an integer
    of at least 1, may not be wider than the curve has points.
    """
    from .analytic import PiecewisePolynomialCurve

    if isinstance(curve, PiecewisePolynomialCurve):
        points = curve.stationary_points()
        return len(points), [float(p) for p, _ in points]
    if isinstance(curve, QuotaCurve):
        quotas = np.asarray(curve.quotas, dtype=np.float64)
        values = np.asarray(curve.mean, dtype=np.float64)
    else:
        quotas, values = (np.asarray(a, dtype=np.float64) for a in curve)
    if values.size < 10:
        raise InvalidArgumentsError("need at least 10 grid points")
    _check_finite(quotas, values)
    window = as_count(smoothing_window, "smoothing window")
    if window > values.size:
        raise InvalidArgumentsError(
            f"smoothing window {window} is wider than the {values.size} grid points"
        )
    if window > 1:
        kernel = np.full(window, 1.0 / window)
        smooth = np.convolve(values, kernel, mode="valid")
        centers = quotas[window // 2: window // 2 + smooth.size]
    else:
        smooth, centers = values, quotas
    diffs = np.diff(smooth)
    nonzero = np.flatnonzero(diffs)
    signs = np.sign(diffs[nonzero])
    turns = np.flatnonzero(np.diff(signs) != 0)
    locations = [float(centers[nonzero[p] + 1]) for p in turns]
    return len(locations), locations


# --------------------------------------------------------------------------
# spline fitting

def _hinge_design(q, center, degree, knots):
    """The fit's basis at the grid ``q``, one row per function: (q -
    center)^p for p = 0..degree, then (q - knot)_+^d for d = 1..degree per
    knot.  Powers are repeated products, which IEEE rounds alike on every
    CPU, as numpy's SIMD ``**`` does not."""

    def powers(x, first):
        out = [np.ones_like(x)]
        for _ in range(degree):
            out.append(out[-1] * x)
        return out[first:]

    rows = powers(q - center, 0)
    for bp in knots:
        rows += powers(np.maximum(q - bp, 0.0), 1)
    return np.stack(rows)


def _least_squares(designs, v):
    """Householder QR of [design | v] for each design of a stack.

    ``designs`` is (fits, cols, rows), each design transposed, so that every
    sum runs along a contiguous last axis and a fit's bits do not depend on
    the other fits in its stack.  Returns the triangles, (fits, cols + 1,
    rows) with R[i, j] at [j, i] and the rotated v in the last row, and
    each fit's RMS residual: the norm of the rotated v below the triangle
    over sqrt(rows), or inf where a zero pivot leaves R singular.  Only
    elementwise arithmetic, sums along an axis, ``sqrt`` and ``copysign``
    are used, which no BLAS, LAPACK or SIMD kernel changes.
    """
    fits, cols, rows = designs.shape
    a = np.empty((fits, cols + 1, rows))
    a[:, :cols] = designs
    a[:, cols] = v
    for k in range(cols):
        x = a[:, k, k:]
        alpha = -np.copysign(np.sqrt(np.sum(x * x, axis=-1)), x[:, 0])
        # x becomes the reflector u = x - alpha e1, and H y = y + u (u.y) /
        # (alpha u_0); a column that is already zero is left alone.
        x[:, 0] -= alpha
        denom = alpha * x[:, 0]
        scale = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom != 0)
        rest = a[:, k + 1:, k:]
        dots = np.sum(rest * x[:, None, :], axis=-1) * scale[:, None]
        rest += dots[:, :, None] * x[:, None, :]
        x[:, 0] = alpha
        x[:, 1:] = 0.0
    tail = a[:, cols, cols:]
    rms = np.sqrt(np.sum(tail * tail, axis=-1) / rows)
    pivots = np.diagonal(a[:, :cols, :cols], axis1=1, axis2=2)
    return a, np.where(np.all(pivots != 0, axis=-1), rms, np.inf)


def _back_substitute(triangle):
    """The coefficients c of R c = y for one fit's nonsingular triangle."""
    cols = triangle.shape[0] - 1
    coef = np.zeros(cols)
    for i in reversed(range(cols)):
        known = np.sum(triangle[i + 1:cols, i] * coef[i + 1:])
        coef[i] = (triangle[cols, i] - known) / triangle[i, i]
    return coef


def _pieces(coef, center, degree, knots):
    """Each interval's ascending-power coefficients of the truncated-power
    fit ``coef``, expanded exactly and rounded once."""
    coef = [Fraction(float(c)) for c in coef]
    terms = [(Fraction(float(center)), coef[: degree + 1])]
    for j, bp in enumerate(knots):
        start = degree + 1 + j * degree
        terms.append((Fraction(bp), [0] + coef[start: start + degree]))
    running = [Fraction(0)] * (degree + 1)
    pieces = []
    for shift, coeffs in terms:
        # sum_d coeffs[d] (q - shift)^d holds on this piece and every later one
        for d, c in enumerate(coeffs):
            for i in range(d + 1):
                running[i] += c * math.comb(d, i) * (-shift) ** (d - i)
        pieces.append(tuple(float(c) for c in running))
    return tuple(pieces)


def _piece_values(knots, pieces, q):
    """The pieces at each float of ``q``, exactly, as Fractions: piece i
    holds on (knot i-1, knot i]."""
    from .analytic import _poly_eval

    exact = [tuple(map(Fraction, p)) for p in pieces]
    return [_poly_eval(exact[bisect.bisect_left(knots, x)], Fraction(x)) for x in q]


@dataclass(frozen=True)
class SplineFit:
    """A continuous piecewise-polynomial least-squares fit, as its pieces.

    ``piece_coefficients[i]`` are plain ascending-power coefficients in q on
    the i-th interval, (knot i-1, knot i], the outer two unbounded.  They
    are the solved truncated-power fit expanded exactly and rounded once,
    so adjacent pieces agree at the knots up to that rounding.
    ``max_residual`` is the largest |piece(q) - value| over the samples,
    exact and rounded once, as is every value of ``predict``.
    """

    interior_breakpoints: tuple[float, ...]
    degree: int
    piece_coefficients: tuple[tuple[float, ...], ...]
    max_residual: float

    def predict(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        knots, pieces = self.interior_breakpoints, self.piece_coefficients
        exact = _piece_values(knots, pieces, q.ravel().tolist())
        return np.array(exact, dtype=np.float64).reshape(q.shape)


def fit_spline(
    quotas,
    values,
    max_degree: int,
    breakpoints="auto",
    penalty: float = 1e-8,
    max_breakpoints: int = 3,
) -> SplineFit:
    """Least-squares continuous piecewise polynomial of degree <= max_degree.

    ``breakpoints`` is either an explicit list of interior knots or
    "auto", which scans knot candidates on the sample grid and keeps
    adding knots while the penalized RMS residual (rms + penalty per
    knot) improves; in each round the first candidate of minimal RMS is
    tried.  ``penalty`` must be finite and >= 0.  Every candidate piece
    must contain at least max_degree + 2 sample points.

    Every least-squares problem is one ``_least_squares`` call, a
    Householder QR in elementwise float arithmetic, so the fit's bits do
    not depend on the CPU or on which BLAS or SIMD kernel numpy picks.
    The search reads each candidate's RMS off its QR, a round's candidates
    stacked within ``_TILE_CELL_BUDGET`` cells, and coefficients are
    solved only for the chosen knots.
    """
    q = np.asarray(quotas, dtype=np.float64).reshape(-1)
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if q.size != v.size or q.size == 0:
        raise InvalidArgumentsError("quotas and values must be equal-length, non-empty")
    _check_finite(q, v)
    if np.any(np.diff(q) <= 0):
        raise InvalidArgumentsError("sample grid must be strictly increasing")
    max_degree = as_count(max_degree, "max_degree", minimum=0)
    max_breakpoints = as_count(max_breakpoints, "max_breakpoints", minimum=0)
    penalty = float(penalty)
    # A negated comparison, so that a NaN penalty fails it.
    if not (0.0 <= penalty < math.inf):
        raise InvalidArgumentsError(f"penalty must be finite and >= 0, got {penalty!r}")
    min_pts = max_degree + 2
    if q.size < min_pts:
        raise InvalidArgumentsError(
            f"need at least {min_pts} sample points for degree {max_degree}"
        )
    center = 0.5 * (q[0] + q[-1])

    def design(knots):
        return _hinge_design(q, center, max_degree, knots)

    def piece_sizes(knots):
        edges = [q[0] - 1.0] + list(knots) + [q[-1] + 1.0]
        return [
            int(np.count_nonzero((q > lo) & (q <= hi)))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    if breakpoints == "auto":
        knots: list[float] = []
        rms = _least_squares(design(knots)[None], v)[1][0]
        candidates = [float(x) for x in q[min_pts - 1: q.size - min_pts]]
        for _ in range(max_breakpoints):
            trials = [sorted(knots + [cand]) for cand in candidates if cand not in knots]
            trials = [t for t in trials if min(piece_sizes(t)) >= min_pts]
            if not trials:
                break
            cells = (max_degree + 2 + max_degree * len(trials[0])) * q.size
            batch = max(1, _TILE_CELL_BUDGET // cells)
            trial_rms = np.concatenate([
                _least_squares(np.stack([design(t) for t in trials[i:i + batch]]), v)[1]
                for i in range(0, len(trials), batch)
            ])
            best = int(np.argmin(trial_rms))
            # A new knot must pay for itself under the penalty.
            if not trial_rms[best] + penalty * len(trials[best]) < rms + penalty * len(knots):
                break
            knots, rms = trials[best], trial_rms[best]
    else:
        knots = sorted(float(b) for b in breakpoints)
        if any(b <= q[0] or b >= q[-1] for b in knots):
            raise InvalidArgumentsError("breakpoints must lie inside the sample range")
        if min(piece_sizes(knots)) < min_pts:
            raise InvalidArgumentsError(
                "each piece needs at least max_degree + 2 sample points"
            )

    triangles, rms = _least_squares(design(knots)[None], v)
    if rms[0] == math.inf:
        # Only a power that underflows to 0 on the whole grid leaves a zero pivot.
        raise InvalidArgumentsError("the spline basis is singular on this sample grid")
    pieces = _pieces(_back_substitute(triangles[0]), center, max_degree, knots)
    exact = _piece_values(knots, pieces, q.tolist())
    residual = max(abs(p - Fraction(x)) for p, x in zip(exact, v.tolist()))
    return SplineFit(
        interior_breakpoints=tuple(knots),
        degree=max_degree,
        piece_coefficients=pieces,
        max_residual=float(residual),
    )
