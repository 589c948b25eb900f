"""Closed-form distributions of ordered weights under the uniform simplex law.

For W uniform on the n-simplex, the k-th largest coordinate has a piecewise
polynomial density

    f_{n,k}(x) = n (n-1) C(n-1, k-1)
                 * sum_{j=k}^{min(n, floor(1/x))} (-1)^{j-k} C(n-k, j-k) (1 - j x)^{n-2}

supported on [1/n, 1] for k = 1 and on [0, 1/k] for k > 1, with breakpoints
at the reciprocals 1/j.  The CDF follows by integrating each power term
analytically; no quadrature is used.

Numerics: a float x is exactly a / b with b a power of two, so each
alternating sum is an integer over a power of b (times lcm(k..n) for the
CDF).  Both are summed in exact integer arithmetic and rounded once, by
one correctly rounded integer division, so every value is the float
nearest the exact one and no density is negative.  Beyond n = 64
evaluation refuses rather than slowing to a crawl unvalidated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import (
    AccuracyUnsupportedError,
    DegenerateDistributionError,
    InvalidArgumentsError,
)
from .simplex import as_count, as_player_count, as_rank

DENSITY_N_MAX = 64


def _check_rank(n: int, k: int) -> int:
    """The player count n as an int, once n and the rank k are checked."""
    n = as_player_count(n)
    as_rank(k, n)
    return n


def _check_density_args(n: int, k: int) -> int:
    """The player count n as an int, once n, k and the validated range are
    checked."""
    if as_player_count(n) == 1:
        raise DegenerateDistributionError(
            "for a single player the largest weight is the constant 1; "
            "there is no density"
        )
    n = _check_rank(n, k)
    if n > DENSITY_N_MAX:
        raise AccuracyUnsupportedError(
            f"density evaluation is validated for n <= {DENSITY_N_MAX}"
        )
    return n


def expected_ordered_weight(n: int, k: int) -> float:
    """Expected weight of the k-th largest of n players: (H_n - H_{k-1}) / n."""
    return float(expected_ordered_weight_exact(n, k))


def expected_ordered_weight_exact(n: int, k: int) -> Fraction:
    """Exact rational value of the expected k-th largest weight."""
    n = _check_rank(n, k)
    return Fraction(sum(Fraction(1, j) for j in range(k, n + 1)), n)


def expected_ordered_weights(n: int) -> np.ndarray:
    """All n expected ordered weights, largest first, as an array of
    ``_expected_weight_floats(n)``."""
    import numpy as np

    return np.array(_expected_weight_floats(n))


def _expected_weight_floats(n: int) -> list[float]:
    """All n expected ordered weights, largest first: the harmonic tails
    H_n - H_{k-1} in one exact suffix pass, each divided by n and rounded
    once, so entry k-1 is expected_ordered_weight(n, k) bit for bit."""
    n = as_player_count(n)
    tails = accumulate(Fraction(1, k) for k in range(n, 0, -1))  # k = n down to 1
    return [float(tail / n) for tail in tails][::-1]


def ordered_weight_support(n: int, k: int) -> tuple[float, float]:
    """Support interval of the k-th largest weight's distribution."""
    n = _check_density_args(n, k)
    return (1.0 / n, 1.0) if k == 1 else (0.0, 1.0 / k)


def ordered_weight_density(n: int, k: int, x: float) -> float:
    """Density f_{n,k}(x) of the k-th largest of n weights.

    Returns exactly 0.0 outside the support and the correctly rounded
    exact value inside it.
    """
    n = _check_density_args(n, k)
    x = float(x)
    if math.isnan(x):
        raise InvalidArgumentsError("cannot evaluate at NaN")
    lo, hi = ordered_weight_support(n, k)
    if x < lo or x > hi:
        return 0.0
    a, b = x.as_integer_ratio()  # x = a / b, so 1 - j x = (b - j a) / b
    total = 0
    for j in range(k, n + 1):
        base = b - j * a
        if base <= 0:
            break  # skipped, not clamped: 0 ** 0 is 1 at n = 2
        term = math.comb(n - k, j - k) * base ** (n - 2)
        total += -term if (j - k) % 2 else term
    return n * (n - 1) * math.comb(n - 1, k - 1) * total / b ** (n - 2)


def ordered_weight_cdf(n: int, k: int, x: float) -> float:
    """CDF of the k-th largest of n weights, in closed form, correctly rounded."""
    n = _check_density_args(n, k)
    x = float(x)
    if math.isnan(x):
        raise InvalidArgumentsError("cannot evaluate at NaN")
    lo, hi = ordered_weight_support(n, k)
    if x <= lo:
        return 0.0
    if x >= hi:
        return 1.0
    # Antiderivative of (1 - j t)^{n-2} on [0, min(x, 1/j)] is
    # (1 - (1 - j x)_+^{n-1}) / (j (n-1)); the n (n-1) prefactor cancels
    # one factor of (n-1).  Every term goes over lcm(k..n) b^{n-1}.
    a, b = x.as_integer_ratio()
    full = b ** (n - 1)
    scale = math.lcm(*range(k, n + 1))
    total = 0
    for j in range(k, n + 1):
        base = b - j * a
        body = full - base ** (n - 1) if base > 0 else full
        term = math.comb(n - k, j - k) * (scale // j) * body
        total += -term if (j - k) % 2 else term
    return n * math.comb(n - 1, k - 1) * total / (scale * full)


def product_moment_exact(n: int, m) -> Fraction:
    """Exact E(prod_j W_j^{m_j}) = prod m_j! / (n)_{|m|} as a Fraction."""
    n = as_player_count(n)
    try:
        exps = [as_count(v, "exponent", minimum=0) for v in m]
    except TypeError as exc:
        raise InvalidArgumentsError("exponents must be a sequence of integers") from exc
    if len(exps) != n:
        raise InvalidArgumentsError(
            f"exponent vector has length {len(exps)}, expected n={n}"
        )
    total = sum(exps)
    numerator = math.prod(math.factorial(v) for v in exps)
    return Fraction(numerator, math.perm(n + total - 1, total))


def product_moment(n: int, m) -> float:
    """Expected product of weight powers under the uniform simplex law."""
    return float(product_moment_exact(n, m))


def power_sum_moment_exact(n: int, m: int) -> Fraction:
    """Exact E(sum_j W_j^m) = m! / (n+1)_{m-1}."""
    n, m = as_player_count(n), as_count(m, "moment order m")
    return Fraction(math.factorial(m), math.perm(n + m - 1, m - 1))


def power_sum_moment(n: int, m: int) -> float:
    """Expected m-th power sum of the weights; equals n * product_moment
    with a single exponent m."""
    return float(power_sum_moment_exact(n, m))


def sum_sq_stats(n: int) -> tuple[float, float]:
    """Mean and variance of the squared-weight sum.

    mean = 2 / (n+1), variance = 4 (n-1) / ((n+1)^2 (n+2) (n+3)).
    For n = 1 the sum is identically 1.
    """
    n = as_player_count(n)
    mean = Fraction(2, n + 1)
    var = Fraction(4 * (n - 1), (n + 1) ** 2 * (n + 2) * (n + 3))
    return float(mean), float(var)
