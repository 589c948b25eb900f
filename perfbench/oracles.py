"""Reference results the output checks compare against.

These are written against other primitives than the library wherever the
mathematics allows: exact rational arithmetic for the closed forms,
binomial tails for the Beta mixture, order-statistic inclusion-exclusion
for the ordered-weight density and the three-player curves, and a
two-sided integer meet-in-the-middle count.  Only the coalition-weight
arithmetic of fixed float games is shared, because README fixes it as
part of the output contract (per-half accumulation in index order, grand
coalition pinned to 1), and quota ties are decided by those exact bits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


def default_quota_grid() -> np.ndarray:
    """The CLI's default grid: 99 quotas from 0.505 to 0.995, then 1."""
    return np.append(np.linspace(0.505, 0.995, 99), 1.0)


def normalized(weights) -> np.ndarray:
    """Weights divided by their exact total, as ``--weights`` documents."""
    w = np.array(weights, dtype=np.float64)
    return w / math.fsum(w.tolist())


# --------------------------------------------------------------------------
# random weights: closed forms

def expected_ordered_weight(n: int, k: int) -> Fraction:
    """E[k-th largest weight] = (1/n) sum_{j=k}^{n} 1/j."""
    return sum((Fraction(1, j) for j in range(k, n + 1)), Fraction(0)) / n


def ordered_weight_density(n: int, k: int, x: float) -> Fraction:
    """Density of the k-th largest of n simplex-uniform weights at x.

    P(W_(k) > x) = sum_{j>=k} (-1)^(j-k) C(j-1, k-1) C(n, j) (1 - j x)_+^(n-1)
    by inclusion-exclusion over which j weights exceed x; this is minus
    its derivative.
    """
    x = Fraction(x)
    total = Fraction(0)
    for j in range(k, n + 1):
        base = 1 - j * x
        if base <= 0:
            continue
        sign = -1 if (j - k) % 2 else 1
        total += sign * math.comb(j - 1, k - 1) * math.comb(n, j) * (n - 1) * j * base ** (n - 2)
    return total


def dirichlet_moment(n: int, exponents) -> Fraction:
    """E[prod w_i^m_i] = (n-1)! prod m_i! / (n-1+sum m)! for uniform weights."""
    m = list(exponents) + [0] * (n - len(exponents))
    num = math.factorial(n - 1) * math.prod(math.factorial(e) for e in m)
    return Fraction(num, math.factorial(n - 1 + sum(m)))


def sum_sq_stats(n: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of sum_i w_i^2 from the Dirichlet moments."""
    mean = n * dirichlet_moment(n, [2])
    second = n * dirichlet_moment(n, [4])
    if n > 1:
        second += n * (n - 1) * dirichlet_moment(n, [2, 2])
    return mean, second - mean * mean


def coleman_mixture(n: int, q: float) -> float:
    """Expected Coleman index 2^-n (1 + sum_m C(n,m) P[Beta(m, n-m) >= q]).

    For integer parameters P[Beta(m, n-m) >= q] = P[Bin(n-1, q) <= m-1],
    evaluated here exactly in rationals and rounded once at the end.
    """
    q = Fraction(q)
    pmf = [math.comb(n - 1, j) * q ** j * (1 - q) ** (n - 1 - j) for j in range(n)]
    total = Fraction(1)
    cdf = Fraction(0)
    for m in range(1, n):
        cdf += pmf[m - 1]
        total += math.comb(n, m) * cdf
    return float(total / 2 ** n)


def _n3_expected_beta(rank: int, q: Fraction) -> Fraction:
    """E[beta of the rank-th largest player] for three uniform weights.

    With t = 1 - q, the pair without player k wins iff w_k <= t, so the
    number N of weights above t fixes the game: N=3 only the grand
    coalition, N=2 the top pair, N=1 the top player with either partner
    (or a dictator when w_1 >= q), N=0 every pair.
    """
    t = 1 - q
    s = [Fraction(1)] + [math.comb(3, j) * max(1 - j * t, Fraction(0)) ** 2 for j in (1, 2, 3)]

    def exactly(k):
        return sum(
            (-1) ** (j - k) * math.comb(j, k) * s[j] for j in range(k, 4)
        )

    dictator = 3 * t * t
    betas = {
        "all": (Fraction(1, 3),) * 3,
        "top-pair": (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        "top-player": (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)),
        "dictator": (Fraction(1), Fraction(0), Fraction(0)),
    }
    r = rank - 1
    return (
        (exactly(3) + exactly(0)) * betas["all"][r]
        + exactly(2) * betas["top-pair"][r]
        + (exactly(1) - dictator) * betas["top-player"][r]
        + dictator * betas["dictator"][r]
    )


def n3_extrema() -> set[tuple[int, Fraction, str]]:
    """Interior extrema (rank, quota, kind) of the three expected-beta curves.

    Each curve is quadratic in q on (1/2, 2/3] and on (2/3, 1]; the
    quadratic is recovered exactly from three rational points per piece.
    """
    found = set()
    for rank in (1, 2, 3):
        for lo, hi in ((Fraction(1, 2), Fraction(2, 3)), (Fraction(2, 3), Fraction(1))):
            xs = [lo + (hi - lo) * Fraction(i, 4) for i in (1, 2, 3)]
            ys = [_n3_expected_beta(rank, x) for x in xs]
            # Second divided difference is the leading coefficient a.
            d1 = (ys[1] - ys[0]) / (xs[1] - xs[0])
            d2 = (ys[2] - ys[1]) / (xs[2] - xs[1])
            a = (d2 - d1) / (xs[2] - xs[0])
            if a == 0:
                continue
            b = d1 - a * (xs[0] + xs[1])
            vertex = -b / (2 * a)
            if lo < vertex < hi:
                found.add((rank, vertex, "maximum" if a < 0 else "minimum"))
    return found


# --------------------------------------------------------------------------
# fixed games

def brute_counts_exact(weights, wins) -> tuple[int, list[int]]:
    """(omega, member counts) over all coalitions; ``wins(members)`` decides."""
    n = len(weights)
    omega, member = 0, [0] * n
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if wins(combo):
                omega += 1
                for i in combo:
                    member[i] += 1
    return omega, member


def subset_sums(values, dtype=np.float64) -> np.ndarray:
    """Sums of all subsets, mask bit i <-> values[i], added in index order."""
    out = np.zeros(1 << len(values), dtype=dtype)
    for i, v in enumerate(values):
        out[1 << i:2 << i] = out[:1 << i] + v
    return out


def contract_sums(weights: np.ndarray) -> np.ndarray:
    """All 2^n coalition weights in README's arithmetic, indexed by mask.

    The first ceil(n/2) players form half A; each half's subset sums are
    accumulated in index order, a coalition adds its A part and its B
    part, and the grand coalition weighs exactly 1.0.
    """
    h = (weights.size + 1) // 2
    sums = (subset_sums(weights[h:])[:, None] + subset_sums(weights[:h])[None, :]).reshape(-1)
    sums[-1] = 1.0
    return sums


def member_counts(win: np.ndarray, n: int) -> tuple[int, list[int]]:
    """(omega, member counts) from a winning indicator over masks."""
    winners = np.flatnonzero(win)
    return int(winners.size), [int(np.count_nonzero(winners >> i & 1)) for i in range(n)]


def beta_from_counts(omega: int, member) -> list[float]:
    swing = [2 * m - omega for m in member]
    total = sum(swing)
    return [s / total for s in swing]


def integer_counts(weights, num: int, den: int) -> tuple[int, list[int]]:
    """Exact (omega, member counts) of an integer game, quota num/den of the total.

    Two-sided meet in the middle: with halves A and B, per_a[a] counts the
    B parts that complete A part a, per_b[b] the A parts that complete b,
    so a player's member count sums one of them over the masks holding it.
    """
    w = [int(v) for v in weights]
    n = len(w)
    target = -(-num * sum(w) // den)  # den * s >= num * total  <=>  s >= target
    half = n // 2
    sa, sb = subset_sums(w[:half], np.int64), subset_sums(w[half:], np.int64)
    sa_sorted, sb_sorted = np.sort(sa), np.sort(sb)
    per_a = sb.size - np.searchsorted(sb_sorted, target - sa, side="left")
    per_b = sa.size - np.searchsorted(sa_sorted, target - sb, side="left")
    omega = int(per_a.sum())
    if omega != int(per_b.sum()):
        raise AssertionError("meet-in-the-middle halves disagree")
    masks_a = np.arange(sa.size)
    masks_b = np.arange(sb.size)
    member = [int(per_a[(masks_a >> i & 1).astype(bool)].sum()) for i in range(half)]
    member += [int(per_b[(masks_b >> j & 1).astype(bool)].sum()) for j in range(n - half)]
    return omega, member
