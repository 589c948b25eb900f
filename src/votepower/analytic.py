"""Closed-form expected-power results for two and three players, and the
machinery for the expected Coleman index of a random game.

Both small-n results come from a table of game classes: each class
carries its normalized index vector and, as an exact piecewise
polynomial in the quota q, the probability that a uniformly drawn weight
vector lands in it.  Two players have two classes, dictator (1, 0) with
probability 2 - 2q, since the larger weight is uniform on [1/2, 1], and
unanimity (1/2, 1/2) with probability 2q - 1.  Three players have five,
with quadratic probabilities split at q = 2/3.  An expected ordered index
is the class-probability-weighted sum of the class vectors, taken piece
by piece in exact rationals, so the coefficients are derived, not
transcribed, and satisfy sum-to-one and continuity at the edges
identically.  The three-player second-rank curve has a single interior
maximum at q = 34/39; the third-rank curve has a local maximum at
q = 5/9 and a local minimum at q = 13/18 (natures read off the second
derivative of these exact quadratics).

The Coleman side works with Z = (weight of a uniformly random coalition)
- 1/2 under the product of the simplex and fair-coin measures: atoms at
+-1/2 and a mixture over coalition sizes, both read off one exact integer
table.  The expected Coleman index P[Z >= q - 1/2] is the all-positive
binomial sum E[C] = 2^-n (1 + sum_m C(n, m) P[Beta(m, n-m) >= q]); the
characteristic function is Gauss-Legendre quadrature of the all-positive
mixture density for small |t| and a finite sum by parts for large |t|, to
~1e-13.  Both serve 1 <= n <= COLEMAN_N_MAX = 1000.  Only the CF
imports numpy; everything else here is exact rational or ``math``
arithmetic.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import AccuracyUnsupportedError, InvalidArgumentsError
from .simplex import as_player_count, as_quota, as_rank

# --------------------------------------------------------------------------
# small exact-polynomial helpers (coefficients ascending, Fraction-valued)

Poly = tuple[Fraction, ...]


def _poly_eval(p: Poly, q):
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * q + c
    return acc


def _poly_derivative(p: Poly) -> Poly:
    if len(p) <= 1:
        return (Fraction(0),)
    return tuple(Fraction(i) * c for i, c in enumerate(p) if i > 0)


@dataclass(frozen=True)
class PiecewisePolynomialCurve:
    """Exact piecewise polynomial on consecutive intervals.

    ``edges`` are the piece boundaries (increasing Fractions); piece i is
    taken on [edges[i], edges[i+1]].  Adjacent pieces agree at shared
    edges for every curve built here.
    """

    edges: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]

    def piece(self, q: Fraction) -> Poly:
        """The piece taken at q: the first whose interval holds it."""
        if not (self.edges[0] <= q <= self.edges[-1]):
            raise InvalidArgumentsError("argument outside the curve domain")
        for edge, piece in zip(self.edges[1:], self.pieces):
            if q <= edge:
                return piece
        raise AssertionError("unreachable")

    def value(self, q: float) -> float:
        qf = Fraction(float(q))
        return float(_poly_eval(self.piece(qf), qf))

    def stationary_points(self) -> list[tuple[Fraction, str]]:
        """Interior extrema with a derivative sign change, exactly.

        Covers polynomial pieces of degree at most 2 plus kinks at the
        interior edges (one-sided slope comparison).
        """
        points = []
        for i, piece in enumerate(self.pieces):
            deriv = _poly_derivative(piece)
            if len(deriv) > 2:
                raise InvalidArgumentsError(
                    "exact stationary points implemented for quadratic pieces"
                )
            if len(deriv) == 2 and deriv[1] != 0:
                root = -deriv[0] / deriv[1]
                if self.edges[i] < root < self.edges[i + 1]:
                    kind = "maximum" if deriv[1] < 0 else "minimum"
                    points.append((root, kind))
        for i in range(1, len(self.pieces)):
            edge = self.edges[i]
            left = _poly_eval(_poly_derivative(self.pieces[i - 1]), edge)
            right = _poly_eval(_poly_derivative(self.pieces[i]), edge)
            if left * right < 0:
                points.append((edge, "maximum" if left > 0 else "minimum"))
        return sorted(points)


# --------------------------------------------------------------------------
# class tables: the small-n closed forms

@dataclass(frozen=True)
class GameClassInfo:
    """One equivalence class of games: ordered index vector plus the
    probability, as an exact curve in the quota, that a uniformly drawn
    weight vector lands in it."""

    label: str
    beta: tuple[Fraction, ...]
    probability: PiecewisePolynomialCurve


@dataclass(frozen=True)
class ClassTable:
    """The game classes of n players, whose probabilities sum to 1 at
    every quota."""

    n: int
    classes: tuple[GameClassInfo, ...]

    def probabilities(self, q: float) -> dict[str, float]:
        q = as_quota(q)
        return {c.label: c.probability.value(q) for c in self.classes}

    def expected_beta_curve(self, rank: int) -> PiecewisePolynomialCurve:
        """E[beta_rank](q) as an exact piecewise polynomial."""
        return self._expected_beta_curves[as_rank(rank, self.n) - 1]

    @functools.cached_property
    def _expected_beta_curves(self) -> tuple[PiecewisePolynomialCurve, ...]:
        """Every rank's curve: the classes' index vectors weighted by their
        probabilities, summed piece by piece over all the classes' edges."""
        edges = tuple(sorted({e for c in self.classes for e in c.probability.edges}))
        ranks = [[] for _ in range(self.n)]
        for lo, hi in zip(edges, edges[1:]):
            terms = [(c.beta, c.probability.piece((lo + hi) / 2)) for c in self.classes]
            size = max(len(p) for _, p in terms)
            for rank, pieces in enumerate(ranks):
                pieces.append(tuple(
                    sum(beta[rank] * p[i] for beta, p in terms if i < len(p))
                    for i in range(size)
                ))
        return tuple(PiecewisePolynomialCurve(edges, tuple(p)) for p in ranks)

    def expected_betas(self, q: float) -> tuple[float, ...]:
        """The expected ordered indices, largest first, at quota q."""
        q = as_quota(q)
        return tuple(curve.value(q) for curve in self._expected_beta_curves)


def _game_class(label: str, beta, edges, *pieces) -> GameClassInfo:
    """A class from exact data: numbers or strings such as "1/3" for the
    index vector, the probability curve's edges and each piece's ascending
    coefficients."""
    def exact(values):
        return tuple(map(Fraction, values))

    curve = PiecewisePolynomialCurve(exact(edges), tuple(map(exact, pieces)))
    return GameClassInfo(label, exact(beta), curve)


_TABLE_N2 = ClassTable(2, (
    # dictator: the larger weight, uniform on [1/2, 1], reaches q
    _game_class("A", (1, 0), ("1/2", 1), (2, -2)),
    # unanimity: only the grand coalition wins
    _game_class("B", ("1/2", "1/2"), ("1/2", 1), (-1, 2)),
))

_N3_EDGES = ("1/2", "2/3", 1)
_TABLE_N3 = ClassTable(3, (
    # only the grand coalition wins
    _game_class("A", ("1/3", "1/3", "1/3"), _N3_EDGES, (0,), (4, -12, 9)),
    # the two heaviest pairs win, the smallest player is a dummy
    _game_class("B", ("1/2", "1/2", 0), _N3_EDGES, (3, -12, 12), (-9, 24, -15)),
    # largest player belongs to every winning pair
    _game_class("C", ("3/5", "1/5", "1/5"), _N3_EDGES, (-9, 30, -24), (3, -6, 3)),
    # every pair wins
    _game_class("D", ("1/3", "1/3", "1/3"), _N3_EDGES, (4, -12, 9), (0,)),
    # dictator
    _game_class("E", (1, 0, 0), _N3_EDGES, (3, -6, 3), (3, -6, 3)),
))


def expected_beta_n2(q: float) -> tuple[float, float]:
    """Expected ordered normalized indices for two players: (3/2 - q, q - 1/2)."""
    return _TABLE_N2.expected_betas(q)


def expected_beta_n2_curve(rank: int) -> PiecewisePolynomialCurve:
    """The rank-1 or rank-2 two-player curve as an exact linear piece."""
    return _TABLE_N2.expected_beta_curve(rank)


def class_table_n3() -> ClassTable:
    """The five three-player game classes with their quota-dependent
    probabilities (quadratics, split at 2/3)."""
    return _TABLE_N3


def expected_beta_n3_curve(rank: int) -> PiecewisePolynomialCurve:
    """One rank's expected-index curve as two exact quadratic pieces."""
    return _TABLE_N3.expected_beta_curve(rank)


def expected_beta_n3(q: float) -> tuple[float, float, float]:
    """Expected ordered normalized indices for three players."""
    return _TABLE_N3.expected_betas(q)


@dataclass(frozen=True)
class Extremum:
    rank: int
    location: Fraction
    kind: str  # "maximum" or "minimum"


def extrema_n3() -> tuple[Extremum, ...]:
    """Interior extrema of the three expected ordered index curves on (1/2, 1).

    Rank 1 is monotone; rank 2 peaks once at 34/39; rank 3 has a maximum
    at 5/9 and a minimum at 13/18.  Natures come from the exact second
    derivatives of the derived quadratics.
    """
    found = []
    for rank in (1, 2, 3):
        for location, kind in expected_beta_n3_curve(rank).stationary_points():
            found.append(Extremum(rank, location, kind))
    return tuple(found)


# --------------------------------------------------------------------------
# the random-coalition weight X: atoms 2^-n at 0 and 1 plus the mixture
# sum_{0<m<n} 2^-n C(n, m) Beta(m, n-m), whose survival function S is, as
# P[Beta(m, n-m) >= x] = P[Bin(n-1, x) <= m-1], the Bernstein polynomial of
# degree n-1 with coefficients T_j / 2^n, T_j = sum_{j<m<n} C(n, m).

def _mixture_tails(n: int) -> list[int]:
    """T_j for j = 0 .. n-2, as exact integers."""
    sizes = list(accumulate(range(1, n), lambda c, m: c * (n - m + 1) // m, initial=1))  # C(n, m)
    return list(accumulate(reversed(sizes[1:])))[::-1]  # suffix sums over 0 < m < n


COLEMAN_N_MAX = 1000  # the CF's and E[C]'s validated range


def _cf_switch(n: int) -> int:
    # Up to here the quadrature, whose panels follow the oscillation; above,
    # the sum by parts, whose terms fall off as (switch / |t|)^k.
    return max(30, n)


@functools.cache
def _cf_quadrature_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-nodes (x - 1/2) / 2 and weights for 1 - CF = E 2 sin^2(t (X - 1/2) / 2).

    The density f = -S', f(x) = f(1 - x), is the Bernstein polynomial with
    coefficients (n-1) C(n-2, j) (T_j - T_(j+1)) / 2^n, all positive; at x
    it is a sum of exp(log of the exact coefficient + j log x + (n-2-j)
    log(1-x)).  The nodes are 2 + n // 16 Gauss-Legendre panels of 20 on
    [0, 1/2], weighted 4 w f(x), and x = 0 for the atoms, weighted 2^(2-n).
    """
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    panels = 2 + n // 16
    half = 0.25 / panels
    x = ((np.arange(panels)[:, None] * 2 + 1 + nodes) * half).ravel()
    tails = [*_mixture_tails(n), 0]
    binomials = accumulate(range(1, n - 1), lambda c, j: c * (n - 1 - j) // j, initial=1)
    logs = [  # (n-1) C(n-2, j) (T_j - T_(j+1)) / 2^n
        math.log((n - 1) * c * (a - b) / (1 << n)) for c, a, b in zip(binomials, tails, tails[1:])
    ]
    j = np.arange(n - 1)
    terms = np.exp(np.array(logs) + j * np.log(x)[:, None] + (n - 2 - j) * np.log1p(-x)[:, None])
    weights = 4 * half * np.tile(weights, panels) * terms.sum(axis=1)
    rule = np.append(x, 0.0) / 2 - 0.25, np.append(weights, 2.0 ** (2 - n))
    for array in rule:
        array.setflags(write=False)  # cached: shared by every call
    return rule


def _cf_small(n: int, t: np.ndarray) -> np.ndarray:
    """The CF for |t| up to the switch, 1 minus the rule's positive sum (so
    exactly 1 at t = 0), over blocks of t."""
    import numpy as np

    half_nodes, weights = _cf_quadrature_rule(n)
    out = np.empty_like(t)
    step = max(1, (1 << 18) // half_nodes.size)
    for first in range(0, t.size, step):
        sines = np.sin(np.multiply.outer(t[first:first + step], half_nodes))
        out[first:first + step] = 1.0 - np.square(sines, out=sines) @ weights
    return out


@functools.cache
def _cf_large_coefficients(n: int) -> tuple[tuple[float, ...], ...]:
    """The large-|t| sum's coefficients for even and for odd k: each signed
    2 d_k / s^(k+1), with s the switch, rounded once from its exact value."""
    s = Fraction(_cf_switch(n))
    diffs = [*_mixture_tails(n), 0]  # T_{n-1} = 0
    falling, scale = 1, Fraction(1 << n)  # (n-1)!/(n-2-k)! and 2^n s^(k+1)
    coefficients = ([], [])
    for k in range(n - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]  # now Delta^(k+1) T
        falling, scale = falling * (n - 1 - k), scale * s
        sign = 1 if (k + 1) // 2 % 2 else -1  # -(-1)^ceil(k/2): d_k's minus folded in
        coefficients[k % 2].append(float(2 * sign * falling * diffs[0] / scale))
    return tuple(map(tuple, coefficients))  # cached: shared by every call


def _cf_continuous_large(n: int, t: np.ndarray) -> np.ndarray:
    """Continuous part of the CF for large |t|, by parts from the exact table.

    The mixture's density f = -S' has degree n-2, f(x) = f(1-x) and
    d_k = f^(k)(0) = -(n-1)!/(n-2-k)! Delta^(k+1) T_0 / 2^n (Delta: forward
    difference over j), so integration by parts ends after n-1 steps and
    its endpoint terms pair into
    2 sin(t/2) sum_{k even} (-1)^(k/2) d_k / t^(k+1)
    + 2 cos(t/2) sum_{k odd} (-1)^((k+1)/2) d_k / t^(k+1): two Horner
    sums in (s/t)^2, on coefficients scaled by s^(k+1) to keep them finite.
    """
    import numpy as np

    ratio = _cf_switch(n) / t
    u = ratio * ratio
    even, odd = (np.polyval(coefficients[::-1], u) for coefficients in _cf_large_coefficients(n))
    return np.sin(0.5 * t) * ratio * even + np.cos(0.5 * t) * u * odd


def coalition_weight_cf(n: int, t) -> float | np.ndarray:
    """Characteristic function of the centered weight of a random coalition.

    Real and even in t, equal to 1 at t = 0, bounded by 1 in absolute
    value; for a single player it is cos(t/2).  Up to |t| = max(30, n) a
    composite Gauss-Legendre rule integrates the all-positive mixture
    density; above, a finite sum by parts of exact coefficients, so the
    whole real line is covered; a non-finite t is an error.  Within 1e-13
    absolute of the power series summed in exact rationals, n <= COLEMAN_N_MAX.
    """
    import numpy as np

    n = as_player_count(n)
    if n > COLEMAN_N_MAX:
        raise AccuracyUnsupportedError(
            f"the coalition-weight CF is validated for n <= {COLEMAN_N_MAX}"
        )
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.isfinite(arr).all():
        raise InvalidArgumentsError("CF arguments must be finite")
    out = np.empty_like(arr)
    mag = np.abs(arr)
    small = mag <= _cf_switch(n)
    if np.any(small):
        out[small] = _cf_small(n, mag[small])
    if np.any(~small):
        big = mag[~small]
        out[~small] = 2.0 ** (1 - n) * np.cos(0.5 * big) + _cf_continuous_large(n, big)
    return float(out[0]) if np.ndim(t) == 0 else out


def _cf_continuous(n: int, t: np.ndarray) -> np.ndarray:
    """CF of the continuous part only (atoms at +-1/2 removed)."""
    import numpy as np

    return coalition_weight_cf(n, t) - 2.0 ** (1 - n) * np.cos(0.5 * t)


# --------------------------------------------------------------------------
# expected Coleman index: the coalition-size Beta mixture

@functools.cache
def _mixture_log_weights(n: int) -> tuple[float, ...]:
    """log(C(n-1, j) T_j / 2^n) for j = 0 .. n-2: each weight is an exact
    integer ratio rounded once, then logged.  Cached per n."""
    pmf = accumulate(range(1, n - 1), lambda c, j: c * (n - j) // j, initial=1)  # C(n-1, j)
    return tuple(math.log(c * tail / (1 << n)) for c, tail in zip(pmf, _mixture_tails(n)))


def expected_coleman(n: int, q: float) -> float:
    """Expected Coleman index of an n-player game with uniform random weights.

    A coalition of m of the n players (0 < m < n) has Beta(m, n-m) total
    weight under the uniform simplex law, so
    E[C] = 2^-n (1 + sum_m C(n, m) P[Beta(m, n-m) >= q]), and for integer
    parameters P[Beta(m, n-m) >= q] = P[Bin(n-1, q) <= m-1].  Grouped by the
    binomial outcome j this is the all-positive sum
    2^-n + sum_{j<n-1} P[Bin(n-1, q) = j] 2^-n sum_{j<m<n} C(n, m).
    Each term is exp of its exact integer weight's log plus
    j log q + (n-1-j) log(1-q), so nothing cancels, but j log q carries
    log q's rounding error j-fold: against the exact rational mixture
    rounded once, on 100 quotas spaced evenly on [0.5005, 1], values were
    up to 395 ulp off at n = 1000, a relative error of 5.5e-14.  exp, log
    and log1p are the C library's, not numpy's SIMD kernels, but glibc
    picks FMA variants of exp and log by CPU: with them turned off, 5 of
    5000 values at n = 6 to 1000 moved by 1 ulp.  Validated for
    n <= COLEMAN_N_MAX (2^-n underflows past n = 1074); q = 1 leaves only
    the grand coalition, 2^-n.
    """
    n = as_player_count(n)
    if n > COLEMAN_N_MAX:
        raise AccuracyUnsupportedError(
            f"the expected Coleman index is validated for n <= {COLEMAN_N_MAX}"
        )
    q = as_quota(q)
    if q == 1.0:
        return 2.0 ** (-n)
    log_q, log_p = math.log(q), math.log1p(-q)
    terms = (
        math.exp(w + j * log_q + (n - 1 - j) * log_p)
        for j, w in enumerate(_mixture_log_weights(n))
    )
    return math.fsum([2.0 ** (-n), *terms])


def expected_coleman_normal(n: int, q: float) -> float:
    """Central-limit approximation 1 - Phi(sqrt(2 (n+1)) (q - 1/2)).

    Unlike the exact curve and every quota grid, which take q in (1/2, 1],
    this accepts the closed interval [1/2, 1]: at q = 1/2 it is exactly 1/2.
    """
    n = as_player_count(n)
    q = float(q)
    if not (0.5 <= q <= 1.0):
        raise InvalidArgumentsError("quota must lie in [1/2, 1]")
    z = math.sqrt(2.0 * (n + 1)) * (q - 0.5)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def coleman_error_ratio(n: int, y: float) -> float:
    """Ratio of the normal-approximation quota to the exact-curve quota at
    a target expected Coleman value y.

    The numerator solves the normal approximation in closed form,
    1/2 - Phi^-1(y) / sqrt(2 (n+1)), from y itself, so a small target
    keeps its digits.  The denominator inverts the exact mixture curve,
    which is strictly decreasing in q, by bisection on
    [nextafter(1/2, 1), 1 - 1e-9] down to adjacent floats, the root
    between them.  y = 1/2 gives 1; any other target must lie strictly
    between the curve's values at the two ends, f(1 - 1e-9), just above
    its floor 2^-n, and f(nextafter(1/2, 1)), 1/2 up to rounding (about
    1e-16 at n = 30, 1e-14 at n = 1000), or InvalidArgumentsError names
    that interval.  At n = 1 the curve is 1/2 everywhere, so only 1/2 is
    accepted.
    """
    n = as_player_count(n)
    y = float(y)
    if y == 0.5:
        return 1.0
    lo, hi = math.nextafter(0.5, 1.0), 1.0 - 1e-9
    f_lo, f_hi = expected_coleman(n, lo), expected_coleman(n, hi)
    if not (f_hi < y < f_lo):  # a NaN target fails too
        raise InvalidArgumentsError(
            f"target {y!r} outside the exact curve's reach ({f_hi!r}, {f_lo!r}) at n = {n}"
        )
    q_normal = 0.5 - statistics.NormalDist().inv_cdf(y) / math.sqrt(2.0 * (n + 1))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: f(lo) > y >= f(hi)
            return q_normal / lo
        if expected_coleman(n, mid) > y:
            lo = mid
        else:
            hi = mid
