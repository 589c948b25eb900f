"""Exact computations on a single weighted voting game.

A game is a weight vector on the simplex plus a quota q in (1/2, 1].  A
coalition wins when its weight reaches the quota; the comparison is a
plain non-strict >= on the computed sums, with no epsilon.

Coalition weights are computed with one fixed arithmetic: the players are
split into a low half A (the first ceil(n/2) indices) and a high half B,
each half's subset sums are accumulated in increasing index order, and a
coalition's weight is its A-part plus its B-part.  The grand coalition's
weight is pinned to exactly 1.0, which the weight-vector invariant
licenses (entries sum to 1 up to 1e-12) and which makes q = 1 behave like
the real game: the grand coalition always wins.  Every kernel takes its
coalition weights from here, the Monte Carlo estimators and class
discovery included, so a sampled game's Monte Carlo profile equals its
exact one, ties included.  A fixed game's counts come from the
meet-in-the-middle counter at every n; the quota curve and the Monte Carlo
estimators bin the full table of 2^n sums against a grid of levels.  The
test suite's enumeration oracle compares every coalition on the same
arithmetic, so the counters must match it bit for bit.  Likewise the
quota curve and the Monte Carlo estimators turn their per-level histograms
into winning counts with one suffix pass, ``_suffix_sums``, and every
kernel turns winning counts into psi, beta and Coleman values with one
helper, ``_index_values``.

For inputs where float ties at the quota are a real concern, build the
game from integer weights and a rational quota num/den
(``VotingGame.from_integers``).  The predicate stays sum >= threshold, on
the integer weights scaled by den against the threshold num * total, so
every comparison happens in exact int64 arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, InvalidArgumentsError
from .simplex import as_quota, as_weight_vector

MITM_BUDGET = 48       # meet in the middle, 2^(n/2) memory
CURVE_BUDGET = 20      # quota curves keep n counts per breakpoint, up to 2^(n-1)

# Float comparisons against the quota go through "count b >= q - a" searches;
# candidates within this absolute window of the boundary are re-checked with
# the defining predicate fl(a + b) >= q so the search is exact.
_TIE_WINDOW = 32 * np.finfo(np.float64).eps

_BIN_CELL_BITS = 16    # finest binning cell, 2^-16 wide
_BIN_BLOCK = 1 << 15   # sums binned per pass


def _exact_floats(ints: tuple[int, ...], num: int, den: int):
    """The float weights and quota of an exact-mode game, ints / total and
    num / den, once the exact fields are checked: integer weights
    non-negative and not all zero, num / den in (1/2, 1], and den * total
    below 2^62, so every scaled coalition sum fits in int64."""
    total = sum(ints)
    if any(v < 0 for v in ints) or total <= 0:
        raise InvalidArgumentsError("integer weights must be non-negative, not all zero")
    if den <= 0 or not (2 * num > den and num <= den):
        raise InvalidArgumentsError("quota fraction must lie in (1/2, 1]")
    if den * total >= (1 << 62):
        raise InvalidArgumentsError("integer weights too large for exact 64-bit kernels")
    return np.array(ints, dtype=np.float64) / total, num / den


@dataclass(frozen=True, eq=False)
class VotingGame:
    """Weight vector plus qualified-majority quota in (1/2, 1].

    In exact mode ``int_weights`` and ``quota_fraction`` (num, den) are the
    game, and ``weights`` and ``quota`` must equal ints / total and
    num / den.
    """

    weights: np.ndarray
    quota: float
    int_weights: tuple[int, ...] | None = field(default=None)
    quota_fraction: tuple[int, int] | None = field(default=None)

    def __post_init__(self):
        w = as_weight_vector(self.weights)
        object.__setattr__(self, "weights", w)
        q = as_quota(self.quota)
        object.__setattr__(self, "quota", q)
        if (self.int_weights is None) != (self.quota_fraction is None):
            raise InvalidArgumentsError(
                "exact mode needs both integer weights and a quota fraction"
            )
        if self.int_weights is None:
            return
        ints = tuple(int(v) for v in self.int_weights)
        num, den = (int(v) for v in self.quota_fraction)
        floats, quota = _exact_floats(ints, num, den)
        if not (np.array_equal(w, floats) and q == quota):
            raise InvalidArgumentsError(
                "exact mode needs weights == int_weights / total and quota == num / den"
            )
        object.__setattr__(self, "int_weights", ints)
        object.__setattr__(self, "quota_fraction", (num, den))

    @classmethod
    def from_integers(cls, weights, quota_num: int, quota_den: int) -> "VotingGame":
        """Exact-mode game: integer weights, quota given as num/den of the total."""
        ints = tuple(int(v) for v in weights)
        num, den = int(quota_num), int(quota_den)
        floats, quota = _exact_floats(ints, num, den)
        return cls(floats, quota, int_weights=ints, quota_fraction=(num, den))

    @property
    def n(self) -> int:
        return int(self.weights.size)

    @property
    def exact(self) -> bool:
        return self.int_weights is not None


@dataclass(frozen=True, eq=False)
class PowerProfile:
    """Per-player power data for one game.

    psi is the absolute Penrose-Banzhaf index (2 w_i - w) / 2^{n-1} built
    from the winning-coalition counts; beta is psi normalized to sum 1;
    coleman is the fraction of all coalitions that win.
    """

    psi: np.ndarray
    beta: np.ndarray
    coleman: float
    winning_count: int
    member_counts: np.ndarray


def _accumulated_sums(values: np.ndarray) -> np.ndarray:
    """Subset sums of one half, index bit i <-> element i, added in index
    order.  Axes after the first carry independent games."""
    out = np.zeros((1 << len(values),) + values.shape[1:], dtype=values.dtype)
    filled = 1
    for v in values:
        out[filled:2 * filled] = out[:filled] + v
        filled *= 2
    return out


def _kernel_inputs(game: VotingGame):
    """(weights, threshold) of the one win predicate sum >= threshold:
    (weights, q) in float mode; in exact mode the int64 integer weights
    scaled by den, against num * total."""
    if not game.exact:
        return game.weights, game.quota
    num, den = game.quota_fraction
    return den * np.array(game.int_weights, dtype=np.int64), num * sum(game.int_weights)


def _split_sums(weights: np.ndarray):
    """(A sums, B sums) in the canonical split of the first (player) axis."""
    h = (len(weights) + 1) // 2
    return _accumulated_sums(weights[:h]), _accumulated_sums(weights[h:])


def _full_sums(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All 2^n coalition weights; mask = (b_mask << h) | a_mask.  An (n, block)
    matrix of games gives a (2^n, block) table, written into the contiguous
    ``out`` if one is given.  Float sums have the grand coalition pinned to
    1.0."""
    sa, sb = _split_sums(weights)
    if out is not None:
        out = out.reshape(sb.shape[:1] + sa.shape)
    sums = np.add(sb[:, None], sa[None, :], out=out).reshape((-1,) + sa.shape[1:])
    if sums.dtype.kind == "f":
        sums[-1] = 1.0
    return sums


def _member_sums(per_mask: np.ndarray) -> np.ndarray:
    """For each bit i of the mask index (the last axis), the sum of the
    per-mask counts over the masks with bit i set; shape (bits, *games)
    for leading game axes, summed in int64."""
    *lead, size = per_mask.shape
    bits = size.bit_length() - 1
    return np.array([
        per_mask.reshape(*lead, -1, 2, 1 << i)[..., 1, :].sum(axis=(-2, -1), dtype=np.int64)
        for i in range(bits)
    ], dtype=np.int64).reshape(bits, *lead)


def count_winning_mitm(game: VotingGame) -> tuple[int, np.ndarray]:
    """Meet-in-the-middle winning counts, O(2^(n/2) n) time.  n <= 48.

    Both halves' sums are sorted.  The A sums are visited in descending
    order, so the search keys threshold - a ascend and each search starts
    from the previous one's result.  One search per A sum finds the first
    sorted B position that wins against it; in exact mode that search is
    exact.  Float searches go against q - a, and where a candidate lies
    within a small window of that boundary the window is re-checked with
    the defining predicate fl(a + b) >= q, which is monotone in b, so the
    re-checked boundary is exact.  Wins per A mask are the B positions
    from there on; wins per B mask are the A sums whose boundary lies at
    or below it, so one histogram of the boundaries credits both halves.
    The order among equal sums cannot change a count: no boundary falls
    between equal B sums (a search never splits equal values, and the
    predicate gives equal b the same answer), and the histogram does not
    depend on the A order.  Output is identical to full enumeration on the
    same coalition-weight arithmetic, which the test suite's oracle
    (``count_winning_naive`` in ``tests/reference.py``) carries out.
    """
    n = game.n
    if n > MITM_BUDGET:
        raise BudgetExceededError(f"meet-in-the-middle supports n <= {MITM_BUDGET}")
    weights, threshold = _kernel_inputs(game)
    sa, sb = _split_sums(weights)
    # The grand coalition always wins; the raw float pair sum may not.
    raw_grand = sa[-1] + sb[-1] >= threshold
    # Each half-size array is dropped after its last use: peak memory is
    # a handful of 2^(n/2)-entry arrays.
    b_order = np.argsort(sb)
    sorted_b = sb[b_order]
    del sb
    a_order = np.argsort(sa)[::-1]
    sa = sa[a_order]
    size = sorted_b.size
    if game.exact:
        first = np.searchsorted(sorted_b, np.subtract(threshold, sa, out=sa), side="left")
    else:
        edges = threshold - sa
        edges -= _TIE_WINDOW
        first = np.searchsorted(sorted_b, edges, side="left")
        # An A sum's window needs bisecting only where its first candidate
        # sorted_b[first] is at most (q - a) + window.  first is
        # non-decreasing, so the A sums with no candidate (first == size)
        # are a suffix.
        np.subtract(threshold, sa, out=edges)
        edges += _TIE_WINDOW
        stop = int(np.searchsorted(first, size))
        open_ = np.flatnonzero(sorted_b[first[:stop]] <= edges[:stop])
        lo = first[open_]
        hi = np.searchsorted(sorted_b, edges[open_], side="right")
        del edges
        # Bisect each window for its first winner, all windows at once.
        while open_.size:
            mid = (lo + hi) // 2
            wins = sa[open_] + sorted_b[mid] >= threshold
            hi = np.where(wins, mid, hi)
            lo = np.where(wins, lo, mid + 1)
            done = lo == hi
            first[open_[done]] = lo[done]
            open_, lo, hi = open_[~done], lo[~done], hi[~done]
    del sa, sorted_b

    per_b = np.empty(size, dtype=np.int64)
    wins_below = np.bincount(first, minlength=size + 1)
    per_b[b_order] = np.cumsum(wins_below, out=wins_below)[:-1]
    del b_order, wins_below
    per_a = np.empty(a_order.size, dtype=np.int64)
    per_a[a_order] = np.subtract(size, first, out=first)
    omega = int(per_a.sum())
    member = np.concatenate([_member_sums(per_a), _member_sums(per_b)])
    if not raw_grand:
        omega += 1
        member += 1
    return omega, member


def _index_values(n: int, statistic: str, omega: np.ndarray, member=None, out=None):
    """The one map from winning counts to index values, into ``out`` if given.

    ``omega``, shape (levels, *games), counts the winning coalitions and
    ``member``, shape (levels, n, *games), those holding each player; it is
    overwritten by the swings 2 member - omega.  coleman is omega 2^-n,
    which is exact, so it has the bits of omega / 2^n; psi is swing / 2^(n-1);
    beta is swing over its total.  That total is at least 1, so beta needs
    no guard: the grand coalition wins, the empty one loses, and per-half
    accumulation of non-negative weights is monotone, so no swing count is
    negative and some player swings on every chain between the two.
    """
    if statistic == "coleman":
        return np.multiply(omega, 2.0 ** -n, out=out)
    swing = member
    swing *= 2
    swing -= omega[:, None]
    if statistic == "psi":
        return np.divide(swing, float(2 ** (n - 1)), out=out)
    return np.divide(swing, np.sum(swing, axis=1, keepdims=True), out=out)


def _profile_from_counts(n: int, omega: int, member: np.ndarray) -> PowerProfile:
    level = np.array([omega], dtype=np.int64)
    psi, beta = (_index_values(n, s, level, member[None].copy())[0] for s in ("psi", "beta"))
    counts = member.copy()
    for array in (psi, beta, counts):
        array.setflags(write=False)
    return PowerProfile(
        psi=psi,
        beta=beta,
        coleman=float(_index_values(n, "coleman", level)[0]),
        winning_count=omega,
        member_counts=counts,
    )


def banzhaf(game: VotingGame) -> PowerProfile:
    """Exact Penrose-Banzhaf profile, n <= 48, from the meet-in-the-middle
    counts at every n; the enumeration oracle in ``tests/reference.py``
    checks them."""
    omega, member = count_winning_mitm(game)
    return _profile_from_counts(game.n, omega, member)


def dummies(game: VotingGame) -> frozenset[int]:
    """Players whose absolute index is exactly zero (0-based indices)."""
    return frozenset(np.flatnonzero(banzhaf(game).psi == 0).tolist())


def _square_sums(rows):
    """Each row's sum w^2 over the last axis: numpy's pairwise sum in the
    row's own order, no BLAS, so a row alone and the same row in a block
    give the same bits on any CPU."""
    return np.square(rows).sum(axis=-1)


def _hoeffding_values(ssq, quotas, out=None):
    """The Hoeffding bounds exp(-2 (q - 1/2)^2 / s), one row per quota q
    and one column per square sum s, written into ``out`` if it is given."""
    values = np.divide(-2.0 * (quotas[:, None] - 0.5) ** 2, ssq[None, :], out=out)
    return np.exp(values, out=values)


def hoeffding_bound(game: VotingGame) -> float:
    """Upper bound exp(-2 (q - 1/2)^2 / sum w^2) on the Coleman index, in
    ``mc_hoeffding_curve``'s arithmetic, so a sample's bound there is this
    bound of the game it drew; the last bit follows numpy's SIMD ``exp``."""
    ssq = _square_sums(game.weights[None, :])
    return float(_hoeffding_values(ssq, np.array([game.quota]))[0, 0])


def optimal_quota_diagnostic(weights, variant: str = "sqrt") -> float:
    """Quota heuristics built from the squared-weight sum s = sum w^2.

    variant="sqrt" returns (1 + sqrt(s)) / 2, which always lies in (1/2, 1].
    variant="printed" returns (1 + 1/s) / 2, reproduced as sometimes quoted;
    since s <= 1 this is >= 1 and cannot be a quota except for a dictator,
    so callers should treat it as a diagnostic, not a usable quota.
    s is ``_square_sums`` of the weights, so neither variant depends on
    the CPU or on a BLAS library.
    """
    w = as_weight_vector(weights)
    ssq = float(_square_sums(w))
    if variant == "sqrt":
        return 0.5 * (1.0 + math.sqrt(ssq))
    if variant == "printed":
        return 0.5 * (1.0 + 1.0 / ssq)
    raise InvalidArgumentsError(f"unknown variant {variant!r}")


@dataclass(frozen=True, eq=False)
class StepCurve:
    """A piecewise-constant function of the quota on (1/2, 1].

    Piece i covers (breakpoints[i-1], breakpoints[i]] (with implicit left
    edge 1/2); the value at a breakpoint belongs to the piece ending there,
    matching the >= winning convention.  The final breakpoint is always 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    statistic: str

    def value_at(self, q: float):
        piece = int(np.searchsorted(self.breakpoints, as_quota(q), side="left"))
        return self.values[piece]


def _scratch_array(scratch, name: str, size: int, dtype=np.float64) -> np.ndarray:
    """The first ``size`` entries of the array ``name`` that ``scratch``
    holds, grown when too small, so that repeated calls reuse one array.
    ``scratch`` is any object that takes attributes, such as a
    ``threading.local``; None gives a fresh array."""
    if scratch is None:
        return np.empty(size, dtype)
    held = getattr(scratch, name, None)
    if held is None or held.size < size:
        held = np.empty(size, dtype)
        setattr(scratch, name, held)
    return held[:size]


def _level_table(levels: np.ndarray, scratch=None):
    """The lookup ``_bin_keys`` makes for a strictly increasing grid.

    Cells have width 2^-k, the smallest k with 2^-k below the grid's
    minimum gap, at most 16, and cover [0, max(levels[-1], 1)].  Returns
    the scale 2^k, the count of levels at or below each cell's left edge,
    the levels followed by +inf, and the most levels lying strictly inside
    one cell.  ``scratch`` keeps the lookup for the next call on the same
    ``levels`` object.
    """
    held = getattr(scratch, "level_table", None)
    if held is not None and held[0] is levels:
        return held[1]
    gap = np.diff(levels).min() if levels.size > 1 else np.inf
    k = 0
    while k < _BIN_CELL_BITS and 2.0 ** -k >= gap:
        k += 1
    scale = 2.0 ** k
    top = max(float(levels[-1]), 1.0) if levels.size else 1.0
    edges = np.arange(int(top * scale) + 2) / scale
    at_or_below = np.searchsorted(levels, edges, side="right")
    below = np.searchsorted(levels, edges, side="left")
    steps = int((below[1:] - at_or_below[:-1]).max())
    level_after = np.append(levels, np.inf)
    lookup = scale, at_or_below[:-1].astype(np.int64), level_after, steps
    if scratch is not None:
        scratch.level_table = levels, lookup
    return lookup


def _bin_keys(sums: np.ndarray, levels: np.ndarray, out: np.ndarray | None = None,
              scratch=None):
    """bin * cols + column for every entry of a (rows, cols) table of sums
    >= 0, where bin = searchsorted(levels, sum, side="right"), found exactly
    by table lookup.  A contiguous ``out``, which may be the table itself
    viewed as int64, receives the keys.  The block arrays come from
    ``scratch`` (see ``_scratch_array``) when one is given.

    s * 2^k is exact, so its integer part is the cell holding s, and the
    table gives the levels at or below that cell's left edge.  Each step
    ``bin += s >= level_after[bin]`` then counts one more level inside the
    cell; as many steps as the fullest cell holds finish every sum.  Whole
    rows go through in flat blocks of about ``_BIN_BLOCK`` sums with fixed
    scratch, which stays in cache; a block's keys are written only once its
    sums are read.
    """
    rows, cols = sums.shape
    scale, table, level_after, steps = _level_table(levels, scratch)
    flat = sums.reshape(-1)
    keys = np.empty(flat.size, dtype=np.int64) if out is None else out.reshape(-1)
    block = max(cols, min(_BIN_BLOCK // cols * cols, flat.size))  # whole rows
    cell = _scratch_array(scratch, "cell", block, np.int64)
    bins = _scratch_array(scratch, "bins", block, np.int64)
    bound = _scratch_array(scratch, "bound", block)
    above = _scratch_array(scratch, "above", block, bool)
    column = _scratch_array(scratch, "column", block, np.int64)
    column.reshape(-1, cols)[:] = np.arange(cols)
    for start in range(0, flat.size, block):
        s = flat[start:start + block]
        m = len(s)
        b = bins[:m]
        np.multiply(s, scale, out=cell[:m], casting="unsafe")
        np.take(table, cell[:m], out=b, mode="clip")
        for _ in range(steps):
            # b <= levels.size, so "clip" clips nothing; it only spares the
            # copy of ``out`` that the default "raise" makes.
            np.take(level_after, b, out=bound[:m], mode="clip")
            np.greater_equal(s, bound[:m], out=above[:m])
            b += above[:m]
        k = keys[start:start + m]
        np.multiply(b, cols, out=k)
        k += column[:m]
    return keys.reshape(rows, cols)


def _level_histograms(sums: np.ndarray, levels: np.ndarray, out: np.ndarray, scratch=None):
    """Per-level coalition histograms of each game (column) of a
    ``_full_sums`` table against a strictly increasing grid, written into
    ``out`` of shape (levels, series, games).

    A coalition wins at level g exactly when g is below its bin, the count
    of levels at or below its sum, which ``_bin_keys`` finds by an exact
    table lookup on cells of width 2^-k.  Row g of ``out`` counts the
    coalitions whose highest winning level is g: series 0 all of them and
    series 1 + i those holding player i, one bincount per series over
    every game at once.  ``_suffix_sums`` over the rows, from the top level
    down, then turns them into winning counts.
    ``out`` is written through views, so it may be a column slice of a
    larger array, of any integer dtype that holds 2^n - 1.  The table is
    overwritten by its bin keys.  A ``scratch`` (see ``_scratch_array``)
    lends the working arrays.
    """
    rows = sums.shape[0]
    series, cols = out.shape[1:]
    # key = bin * cols + column: one bincount covers every game's bins
    table = sums.reshape(rows, cols)
    keys = _bin_keys(table, levels, out=table.view(np.int64), scratch=scratch)
    bins = levels.size + 1
    for s in range(series):
        selected = keys
        if s:  # player s - 1's masks, copied to be contiguous
            player = keys.reshape(-1, 2, cols << (s - 1))[:, 1]
            selected = _scratch_array(scratch, "member_keys", player.size, np.int64)
            np.copyto(selected.reshape(player.shape), player)
        hist = np.bincount(selected.ravel(), minlength=bins * cols).reshape(bins, cols)
        out[:, s] = hist[1:]  # bin 0: wins at no level


def _suffix_sums(counts: np.ndarray) -> None:
    """Turn per-level histograms (the first axis) in place into sums from
    each level to the top, in about 3 sqrt(levels) calls rather than one
    per level.  Above a head of fewer than s levels, the levels form groups
    of s: each group is summed from its top down, all groups at once; then
    each group, from the top one down, adds the first level of the group
    above it; then the head is summed level by level.  The counts are
    integers, so the order of the additions changes no bit.  ``counts``
    must be C-contiguous, so that the groups are a view of it."""
    size = math.isqrt(len(counts))
    head = len(counts) % size
    groups = counts[head:].reshape(-1, size, *counts.shape[1:])
    for j in range(size - 2, -1, -1):
        groups[:, j] += groups[:, j + 1]
    for b in range(len(groups) - 2, -1, -1):
        groups[b] += groups[b + 1, 0]
    for g in range(head - 1, -1, -1):
        counts[g] += counts[g + 1]


def fixed_weight_quota_curve(weights, statistic: str = "beta") -> StepCurve:
    """Exact step function of the quota for a fixed weight vector.

    Breakpoints are the distinct coalition weights inside (1/2, 1]; the
    requested functional (beta, psi, or coleman) is evaluated once per
    piece at its right endpoint, for all pieces at once.
    """
    if statistic not in ("beta", "psi", "coleman"):
        raise InvalidArgumentsError(f"unknown statistic {statistic!r}")
    w = as_weight_vector(weights)
    n = w.size
    if n > CURVE_BUDGET:
        raise BudgetExceededError(f"quota curves support n <= {CURVE_BUDGET}")
    sums = _full_sums(w)
    # np.unique's result, from a sort and the first entry of each run:
    # np.unique imports numpy.ma on numpy 2.
    breakpoints = np.sort(sums[(sums > 0.5) & (sums <= 1.0)])
    breakpoints = breakpoints[np.append(True, breakpoints[1:] != breakpoints[:-1])]
    counts = np.empty((breakpoints.size, 1 if statistic == "coleman" else 1 + n), np.int64)
    _level_histograms(sums, breakpoints, counts[:, :, None])
    _suffix_sums(counts)
    values = _index_values(n, statistic, counts[:, 0], counts[:, 1:])
    values.setflags(write=False)
    breakpoints.setflags(write=False)
    return StepCurve(breakpoints=breakpoints, values=values, statistic=statistic)
