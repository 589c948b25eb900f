"""Independent reference implementations used as test oracles.

The oracles are deliberately written against different primitives than
the library (itertools enumeration with exact fsum, beta-function
identities, quadrature) so that agreement is evidence, not tautology.
The one exception is the enumeration oracle (``count_winning_naive`` and
``is_winning``), which reuses the library's coalition-weight arithmetic on
purpose; its docstring says why.  The last helpers are test conveniences
on top of the public API: a one-row sampler, density breakpoints and the
CLI's table layout.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc

import votepower
from votepower import BudgetExceededError, InvalidArgumentsError, games

NAIVE_BUDGET = 30      # full 2^n enumeration


def brute_counts(weights, quota):
    """(omega, member counts) by direct subset enumeration with fsum."""
    n = len(weights)
    omega = 0
    member = [0] * n
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            total = 1.0 if size == n else math.fsum(weights[i] for i in combo)
            if total >= quota:
                omega += 1
                for i in combo:
                    member[i] += 1
    return omega, member


def is_winning(game, coalition: int) -> bool:
    """Does the coalition (an n-bit member mask) reach the quota?"""
    n = game.n
    if not (0 <= coalition < (1 << n)):
        raise InvalidArgumentsError("coalition mask has bits beyond the player count")
    if coalition == (1 << n) - 1:
        return True
    weights, threshold = games._kernel_inputs(game)
    h = (n + 1) // 2
    part_a = sum(weights[i] for i in range(h) if coalition >> i & 1)
    part_b = sum(weights[i] for i in range(h, n) if coalition >> i & 1)
    return bool(part_a + part_b >= threshold)


def count_winning_naive(game) -> tuple[int, np.ndarray]:
    """Count winning coalitions, and per player those containing them,
    by enumerating all 2^n coalitions.  n <= 30.

    Unlike the other oracles, this one takes its coalition weights from the
    library's private helpers (``games._kernel_inputs``, ``_split_sums``,
    ``_member_sums``): the same half split, the same summation order and the
    same pinned grand coalition.  That is deliberate.  It checks the counting
    kernels' search, binning and tie handling, so it must reproduce their
    float arithmetic tie for tie, and a sum that rounds onto the quota wins
    here exactly when it wins there; ``brute_counts`` is the independent
    check of the arithmetic itself.

    Each block of B masks is added to every A sum and compared with the
    threshold; the wins are counted per A mask and per B mask, and each
    player's count is the sum over the masks of its half with its bit set.
    Blocks keep the n = 26 and 28 comparisons within a few MiB.
    """
    n = game.n
    if n > NAIVE_BUDGET:
        raise BudgetExceededError(
            f"naive enumeration supports n <= {NAIVE_BUDGET}; "
            "use count_winning_mitm for larger games"
        )
    weights, threshold = games._kernel_inputs(game)
    sa, sb = games._split_sums(weights)
    per_a = np.zeros(sa.size, dtype=np.int64)
    per_b = np.empty(sb.size, dtype=np.int64)
    span = max(1, games._BIN_BLOCK // sa.size)
    for start in range(0, sb.size, span):
        win = sb[start:start + span, None] + sa >= threshold
        if start + span >= sb.size:
            win[-1, -1] = True  # the grand coalition
        per_a += np.count_nonzero(win, axis=0)
        per_b[start:start + span] = np.count_nonzero(win, axis=1)
    member = np.concatenate([games._member_sums(per_a), games._member_sums(per_b)])
    return int(per_a.sum()), member


def brute_swings(weights, quota):
    """Per-player swing counts: losing subsets of the others that the
    player tips to winning."""
    n = len(weights)
    swings = [0] * n
    for player in range(n):
        others = [i for i in range(n) if i != player]
        for size in range(n):
            for combo in combinations(others, size):
                without = math.fsum(weights[i] for i in combo)
                with_size = size + 1
                if with_size == n:
                    with_player = 1.0
                else:
                    with_player = math.fsum(
                        weights[i] for i in sorted(combo + (player,))
                    )
                if without < quota <= with_player:
                    swings[player] += 1
    return swings


def coleman_beta_mixture(n, q):
    """Expected Coleman index from the coalition-size mixture: a coalition
    of m of n players has Beta(m, n-m) total weight under the uniform
    simplex law, so E(C) = 2^-n [1 + sum_m C(n,m) P(Beta(m,n-m) >= q)]."""
    total = 1.0  # the grand coalition always wins for q <= 1
    for m in range(1, n):
        total += math.comb(n, m) * (1.0 - betainc(m, n - m, q))
    return total / 2.0 ** n


def coleman_mixture_exact(n, q):
    """The same mixture in exact rational arithmetic, rounded once: with
    q = a/d, d^(n-1) P(Bin(n-1, q) = j) = C(n-1, j) a^j (d-a)^(n-1-j) is an
    integer, and P(Beta(m, n-m) >= q) = P(Bin(n-1, q) <= m-1) is summed per
    coalition size m."""
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    pmf = [math.comb(n - 1, j) * a ** j * (d - a) ** (n - 1 - j) for j in range(n)]
    total = d ** (n - 1)  # the grand coalition
    cdf = 0
    for m in range(1, n):
        cdf += pmf[m - 1]
        total += math.comb(n, m) * cdf
    return total / (2 ** n * d ** (n - 1))  # one correctly rounded division


def coalition_cf_quadrature(n, t):
    """CF of the centered random-coalition weight by oscillatory quadrature.

    The atoms at weight 0 and 1 give 2^(1-n) cos(t/2); the continuous part
    is the coalition-size mixture, density
    f(w) = 2^-n sum_m C(n,m) (n-1) C(n-2,m-1) w^(m-1) (1-w)^(n-m-1), an
    all-positive sum, integrated against cos(t w) and sin(t w) by QUADPACK's
    weighted rule, so E cos(t (W - 1/2)) = 2^(1-n) cos(t/2)
    + cos(t/2) int f cos(t w) + sin(t/2) int f sin(t w).
    """
    terms = [
        (math.comb(n, m) * (n - 1) * math.comb(n - 2, m - 1), m - 1, n - m - 1)
        for m in range(1, n)
    ]

    def density(w):
        return math.fsum(c * w ** a * (1.0 - w) ** b for c, a, b in terms) / 2.0 ** n

    tolerances = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
    cos_part = quad(density, 0.0, 1.0, weight="cos", wvar=t, **tolerances)[0]
    sin_part = quad(density, 0.0, 1.0, weight="sin", wvar=t, **tolerances)[0]
    half = 0.5 * t
    return (
        2.0 ** (1 - n) * math.cos(half) + math.cos(half) * cos_part + math.sin(half) * sin_part
    )


def coalition_cf_exact(n, t):
    """CF of the centered random-coalition weight at a rational t as the
    even power series sum_j (-1)^j (t/2)^(2j) C(j+n-1, n-1) / (n)_(2j) (a
    1F2 hypergeometric), summed in exact rationals and rounded once.

    Once a term's ratio to the last falls below 1/2, which it keeps doing,
    the alternating tail is below the last term, so the sum stops when that
    term is below 2^-64."""
    x = Fraction(t) ** 2 / 4
    term = total = Fraction(1)
    j = 0
    while True:
        ratio = x * (j + n) / ((j + 1) * (n + 2 * j) * (n + 2 * j + 1))
        term *= -ratio
        total += term
        j += 1
        if ratio < Fraction(1, 2) and abs(term) < Fraction(1, 1 << 64):
            return float(total)


def ordered_weight_density_exact(n, k, x):
    """Density of the k-th largest of n simplex-uniform weights at the float
    x as an exact Fraction: n (n-1) C(n-1, k-1) times the alternating sum
    of C(n-k, j-k) (1 - j x)^(n-2) over the positive bases, summed in
    rationals; zero outside the support."""
    lo, hi = (1.0 / n, 1.0) if k == 1 else (0.0, 1.0 / k)
    if x < lo or x > hi:
        return Fraction(0)
    xq = Fraction(x)
    total = Fraction(0)
    for j in range(k, n + 1):
        u = 1 - j * xq
        if u <= 0:
            break
        sign = -1 if (j - k) % 2 else 1
        total += sign * math.comb(n - k, j - k) * u ** (n - 2)
    return n * (n - 1) * math.comb(n - 1, k - 1) * total


def ordered_weight_cdf_exact(n, k, x):
    """CDF of the k-th largest weight at the float x as an exact Fraction:
    n C(n-1, k-1) times the alternating sum of
    C(n-k, j-k) (1 - (1 - j x)_+^(n-1)) / j, term by term in rationals."""
    lo, hi = (1.0 / n, 1.0) if k == 1 else (0.0, 1.0 / k)
    if x <= lo:
        return Fraction(0)
    if x >= hi:
        return Fraction(1)
    xq = Fraction(x)
    total = Fraction(0)
    for j in range(k, n + 1):
        u = 1 - j * xq
        body = Fraction(1) if u <= 0 else 1 - u ** (n - 1)
        sign = -1 if (j - k) % 2 else 1
        total += Fraction(sign * math.comb(n - k, j - k), j) * body
    return n * math.comb(n - 1, k - 1) * total


def packbits_family_runs(win):
    """(key, games) per distinct column of a (2^n, games) win table, by
    np.packbits down the columns and np.unique over void keys of the packed
    bytes, the column's whole bit string."""
    packed = np.ascontiguousarray(np.packbits(win, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    uniques, counts = np.unique(keys, return_counts=True)
    return [(key.tobytes(), int(hits)) for key, hits in zip(uniques, counts)]


def product_moment_quadrature(exponents, points=4001):
    """E(prod W^m) for n = 2 by direct 1-D integration over the simplex edge."""
    a, b = exponents
    w = np.linspace(0.0, 1.0, points)
    # numpy < 2 names the trapezoid rule trapz
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(w ** a * (1.0 - w) ** b, w))


def sample_uniform_simplex(n: int, seed) -> np.ndarray:
    """Draw one weight vector uniform on the n-simplex: the first row of
    the library's batch sampler."""
    return votepower.sample_uniform_simplex_batch(n, 1, seed)[0]


def ordered_weight_breakpoints(n: int, k: int) -> np.ndarray:
    """Interior breakpoints 1/j of the k-th largest weight's piecewise
    polynomial density, for quadrature."""
    lo, hi = votepower.ordered_weight_support(n, k)
    pts = [1.0 / j for j in range(k, n + 1)]
    return np.array(sorted(p for p in pts if lo < p < hi))


def table_cell(value):
    """One CSV cell, formatted row by row: floats to 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def table_text(header, rows, fmt="csv"):
    """A whole CLI table from its rows, one row at a time."""
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return "".join(",".join(map(table_cell, row)) + "\n" for row in [header, *rows])


def step_curve_rows(curve):
    """Rows (quota, series, value, stderr, samples) of a fixed-weight quota
    curve: one per breakpoint, or per breakpoint and player."""
    rows = []
    for i, bp in enumerate(curve.breakpoints):
        value = curve.values[i]
        if np.ndim(value) == 0:
            rows.append((float(bp), curve.statistic, float(value), 0.0, 0))
        else:
            for p, v in enumerate(value):
                rows.append((float(bp), f"{curve.statistic}_player_{p + 1}", float(v), 0.0, 0))
    return rows


def quota_curve_rows(curve):
    """Rows (quota, series, mean, stderr, samples) of a Monte Carlo curve."""
    return [
        (float(q), curve.name, float(m), float(s), int(c))
        for q, m, s, c in zip(curve.quotas, curve.mean, curve.stderr, curve.samples)
    ]
