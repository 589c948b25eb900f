"""Monte Carlo estimation over random games, class discovery, extremum
counting, and spline fits of quota curves.

Estimators are deterministic by construction: samples are processed in
fixed-size chunks, chunk c draws from the substream (seed, chunk c), and
partial results are reduced in chunk order.  The worker count changes
only wall-clock time, never a single bit of output, and sample i depends
only on (seed, stream, i), so shorter runs are prefixes of longer ones.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

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
# and ranges give every output bit, so changing it changes the bits.
_SUM_CELL_BUDGET = 1 << 22
# Cells a tile of counting holds: per sample its 2^n sums, which become its
# bin keys, and its histogram entries.  It sets only cache residency.
_TILE_CELL_BUDGET = 1 << 18
# The Hoeffding curve holds, per worker, one MC_CHUNK x n weight chunk, and
# drawing it takes three float64 arrays of that shape: 96 KiB per player.
# Peak RSS of ``coleman-curve --method hoeffding-bound`` was 132 MB
# at n = 1000 and 413 MB at n = 4000 on one worker, and 221 MB at n = 1000
# on two.  n times the workers holding chunks is capped so that the chunks
# stay within HOEFFDING_RSS_BUDGET bytes.
HOEFFDING_RSS_BUDGET = 256 << 20
HOEFFDING_BUDGET = HOEFFDING_RSS_BUDGET // (3 * 8 * MC_CHUNK)  # 2730 players


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


class _Accumulator:
    """Sum, sum of squares, and range per series; the range lets constant
    series (for example every statistic at q = 1) finalize exactly."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self.total_sq = np.zeros(shape)
        self.low = np.full(shape, np.inf)
        self.high = np.full(shape, -np.inf)

    def add(self, values, axis):
        """Take in ``values``, which is squared in place."""
        self.total += values.sum(axis=axis)
        self.low = np.minimum(self.low, values.min(axis=axis))
        self.high = np.maximum(self.high, values.max(axis=axis))
        self.total_sq += np.square(values, out=values).sum(axis=axis)

    def merge(self, other):
        self.total += other.total
        self.total_sq += other.total_sq
        self.low = np.minimum(self.low, other.low)
        self.high = np.maximum(self.high, other.high)

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


def _power_values(weights, grid, statistic, scratch=None):
    """Per-sample index values over the grid, one array per accumulation
    block of ``_SUM_CELL_BUDGET >> n`` samples: (grid, n, block) profiles,
    largest first, or (grid, block) for coleman.

    A block is counted in tiles, each as many samples as keep its
    coalition sums, bin keys and histogram within ``_TILE_CELL_BUDGET``
    cells; every sample's counts are computed on its own, so the tiling
    changes no bit.  The weights come sorted descending and swings are
    monotone in weight, so profiles normally are already in rank order; a
    tile with any profile out of order is sorted.  Sorting the values gives
    the bits that sorting the swings would, since each profile is divided
    by one positive constant.

    With a ``scratch`` (see ``games._scratch_array``) the tile table, the
    value blocks and the counting arrays are its arrays, reused call after
    call; a block is then overwritten by the next, so it must be consumed
    first.
    """
    n = weights.shape[1]
    members = statistic != "coleman"
    per_column = (1 << n) + (grid.size + 1) * (n if members else 1)
    block = max(1, _SUM_CELL_BUDGET >> n)
    width = min(block, len(weights), max(1, _TILE_CELL_BUDGET // per_column))
    # each tile's sums, then its bin keys
    table = games._scratch_array(scratch, "table", width << n)
    rows = (grid.size, n) if members else (grid.size,)
    for first in range(0, len(weights), block):
        samples = weights[first:first + block]
        shape = rows + (len(samples),)
        values = games._scratch_array(scratch, "values", math.prod(shape)).reshape(shape)
        for start in range(0, len(samples), width):
            tile = samples[start:start + width]
            sums = games._full_sums(tile.T, out=table[:len(tile) << n])
            omega, member = games._winning_counts(sums, grid, members, scratch)
            out = values[..., start:start + len(tile)]
            games._index_values(n, statistic, omega, member, out=out)
            if members and not (out[:, :-1] >= out[:, 1:]).all():
                out[:] = np.sort(out, axis=1)[:, ::-1]
        yield values


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


def _hoeffding_values(weights, grid, scratch=None):
    """The (grid, samples) Hoeffding bounds of a chunk, in one block, which
    is an array of ``scratch`` if one is given."""
    ssq = (weights * weights).sum(axis=1)
    values = games._scratch_array(scratch, "values", grid.size * len(weights))
    values = values.reshape(grid.size, len(weights))
    np.divide(-2.0 * (grid[:, None] - 0.5) ** 2, ssq[None, :], out=values)
    yield np.exp(values, out=values)


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


def _mc_curves(n, quotas, samples, seed, workers, values, names, method="mc"):
    """The Monte Carlo run shared by the ``mc_*`` estimators.

    ``values(weights, grid, scratch=scratch)`` maps a chunk of
    descending-sorted weight vectors, one row per sample, to blocks of
    values with the samples on the last axis; the axes after the grid give
    one curve per name.  ``scratch`` is a ``threading.local``, so each
    worker thread holds its own working arrays from chunk to chunk, and
    they are freed when the call returns.  The callers have checked n,
    samples and workers with ``_mc_counts``.
    """
    grid = as_quota_grid(default_quota_grid() if quotas is None else quotas)
    base = as_seed(seed)
    scratch = threading.local()

    def worker(index, count):
        acc = None
        weights = _sorted_weight_chunk(n, base, index, count)
        for block in values(weights, grid, scratch=scratch):
            if acc is None:
                acc = _Accumulator(block.shape[:-1])
            acc.add(block, axis=-1)
        return acc

    mean, stderr = _run_chunks(worker, samples, workers).finalize(samples)
    mean = mean.reshape(grid.size, -1)
    stderr = stderr.reshape(grid.size, -1)
    meta = {"n": n, "seed": base.seed, "stream": base.stream, "method": method}
    counts = np.full(grid.size, samples, dtype=np.int64)
    return [
        QuotaCurve(grid, name, mean[:, k].copy(), stderr[:, k].copy(), counts, dict(meta))
        for k, name in enumerate(names)
    ]


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
    _check_kernel_budget(n)
    values = functools.partial(_power_values, statistic=statistic)
    names = [f"{statistic}_rank_{k + 1}" for k in range(n)]
    return _mc_curves(n, quotas, samples, seed, workers, values, names)


def mc_coleman_curve(
    n: int, quotas=None, samples: int = 65536, seed=0, workers: int = 1
) -> QuotaCurve:
    """Monte Carlo mean of the exact per-game Coleman index per quota."""
    n, samples, workers = _mc_counts(n, samples, workers)
    _check_kernel_budget(n)
    values = functools.partial(_power_values, statistic="coleman")
    return _mc_curves(n, quotas, samples, seed, workers, values, ["coleman"])[0]


def mc_hoeffding_curve(
    n: int, quotas=None, samples: int = 65536, seed=0, workers: int = 1
) -> QuotaCurve:
    """Monte Carlo mean of the per-game Hoeffding bound on the Coleman index.

    The bound needs only each sample's sum of squared weights, so unlike
    the enumerating estimators it enumerates nothing.  Its weight chunks
    bound n instead: n times the workers that hold a chunk at once may be
    at most ``HOEFFDING_BUDGET``.
    """
    n, samples, workers = _mc_counts(n, samples, workers)
    held = min(workers, -(-samples // MC_CHUNK))  # chunks in memory at once
    if n * held > HOEFFDING_BUDGET:
        raise BudgetExceededError(
            f"the Hoeffding curve supports n * workers <= {HOEFFDING_BUDGET}"
        )
    return _mc_curves(
        n, quotas, samples, seed, workers, _hoeffding_values, ["hoeffding_bound"],
        method="hoeffding-bound",
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
    columns = [(q - center) ** p for p in range(degree + 1)]
    for bp in knots:
        hinge = np.maximum(q - bp, 0.0)
        columns.extend(hinge ** d for d in range(1, degree + 1))
    return np.column_stack(columns)


def _spline_predict(q, center, degree, base, knots, hinges):
    q = np.asarray(q, dtype=np.float64)
    t = q - center
    out = np.zeros_like(t)
    for power, c in enumerate(base):
        out += c * t ** power
    for bp, coeffs in zip(knots, hinges):
        hinge = np.maximum(q - bp, 0.0)
        for d, c in enumerate(coeffs, start=1):
            out += c * hinge ** d
    return out


def _lstsq_fit(q, v, center, degree, knots):
    design = _hinge_design(q, center, degree, knots)
    coef, _, _, _ = np.linalg.lstsq(design, v, rcond=None)
    residual = design @ coef - v
    return coef, float(np.sqrt(np.mean(residual * residual)))


def _shifted_poly(coeffs, shift, degree):
    """Ascending-power coefficients of sum_d coeffs[d] (q - shift)^d."""
    out = [0.0] * (degree + 1)
    for d, c in enumerate(coeffs):
        for i in range(d + 1):
            out[i] += c * math.comb(d, i) * (-shift) ** (d - i)
    return out


@dataclass(frozen=True)
class SplineFit:
    """A continuous piecewise-polynomial least-squares fit.

    The fit basis is a truncated power basis, so adjacent pieces agree at
    breakpoints by construction.  ``piece_coefficients[i]`` are plain
    ascending-power coefficients on the i-th interval between breakpoints.
    """

    interior_breakpoints: tuple[float, ...]
    degree: int
    piece_coefficients: tuple[tuple[float, ...], ...]
    max_residual: float
    center: float
    base_coefficients: tuple[float, ...]
    hinge_coefficients: tuple[tuple[float, ...], ...]

    def predict(self, q) -> np.ndarray:
        return _spline_predict(
            q,
            self.center,
            self.degree,
            self.base_coefficients,
            self.interior_breakpoints,
            self.hinge_coefficients,
        )


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
    knot) improves.  Every candidate piece must contain at least
    max_degree + 2 sample points.
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
    min_pts = max_degree + 2
    if q.size < min_pts:
        raise InvalidArgumentsError(
            f"need at least {min_pts} sample points for degree {max_degree}"
        )
    center = 0.5 * (q[0] + q[-1])

    def piece_sizes(knots):
        edges = [q[0] - 1.0] + list(knots) + [q[-1] + 1.0]
        return [
            int(np.count_nonzero((q > lo) & (q <= hi)))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    if breakpoints == "auto":
        chosen: list[float] = []
        coef, rms = _lstsq_fit(q, v, center, max_degree, chosen)
        best = (rms, chosen, coef)
        candidates = [float(x) for x in q[min_pts - 1: q.size - min_pts]]
        for _ in range(max_breakpoints):
            trial = None
            for cand in candidates:
                if cand in best[1]:
                    continue
                knots = sorted(best[1] + [cand])
                if min(piece_sizes(knots)) < min_pts:
                    continue
                coef, rms = _lstsq_fit(q, v, center, max_degree, knots)
                if trial is None or rms < trial[0]:
                    trial = (rms, knots, coef)
            if trial is None:
                break
            # A new knot must pay for itself under the penalty.
            if trial[0] + penalty * len(trial[1]) < best[0] + penalty * len(best[1]):
                best = trial
            else:
                break
        _, knots, coef = best
    else:
        knots = sorted(float(b) for b in breakpoints)
        if any(b <= q[0] or b >= q[-1] for b in knots):
            raise InvalidArgumentsError("breakpoints must lie inside the sample range")
        if min(piece_sizes(knots)) < min_pts:
            raise InvalidArgumentsError(
                "each piece needs at least max_degree + 2 sample points"
            )
        coef, _ = _lstsq_fit(q, v, center, max_degree, knots)

    base = tuple(float(c) for c in coef[: max_degree + 1])
    hinges = tuple(
        tuple(
            float(c)
            for c in coef[
                max_degree + 1 + j * max_degree: max_degree + 1 + (j + 1) * max_degree
            ]
        )
        for j in range(len(knots))
    )
    pieces = []
    running = _shifted_poly(base, center, max_degree)
    pieces.append(tuple(running))
    for bp, hcoef in zip(knots, hinges):
        extra = _shifted_poly([0.0] + list(hcoef), bp, max_degree)
        running = [a + b for a, b in zip(running, extra)]
        pieces.append(tuple(running))
    residual = float(
        np.max(np.abs(_spline_predict(q, center, max_degree, base, knots, hinges) - v))
    )
    return SplineFit(
        interior_breakpoints=tuple(knots),
        degree=max_degree,
        piece_coefficients=tuple(pieces),
        max_residual=residual,
        center=center,
        base_coefficients=base,
        hinge_coefficients=hinges,
    )
