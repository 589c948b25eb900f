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
- 1/2 under the product of the simplex and fair-coin measures.  Its
characteristic function is an even entire series (a 1F2 hypergeometric)
for small |t| and a finite sum by parts for large |t|, evaluated to ~1e-10
for 1 <= n <= CF_N_MAX = 200.  The expected Coleman index P[Z >= q - 1/2]
is the closed-form mixture over coalition sizes, E[C] = 2^-n (1 + sum_m
C(n, m) P[Beta(m, n-m) >= q]), an all-positive binomial sum, for n <= 1000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import (
    AccuracyUnsupportedError,
    ConvergenceFailureError,
    InvalidArgumentsError,
)
from .simplex import as_count, as_player_count, as_quota

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
        if as_count(rank, "rank") > self.n:
            raise InvalidArgumentsError(f"rank must lie in 1..{self.n}")
        return self._expected_beta_curves[rank - 1]

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


# Against 60-digit mpmath sums of the series at 280 points in (0, 3 switch +
# 60], the worst absolute errors are 1.4e-11 at n = 2, 4.0e-15 at 30, 3.6e-15
# at 100 and 1.7e-12 at 200, all at or below the switch, where the series
# loses more as n grows: the two branches differ there by 1.5e-11 at n = 229.
CF_N_MAX = 200


def _series_switch(n: int) -> float:
    # The series' terms peak near exp(t^2 / 4n); above this |t| the large-|t|
    # sum's terms fall off as (switch / |t|)^k.  Cross-validated in the tests.
    return max(30.0, n / 2)


def _cf_series(n: int, t: np.ndarray) -> np.ndarray:
    """Even power series sum_j (-1)^j (t/2)^{2j} C(j+n-1, n-1) / (n)_{2j},
    accumulated with Neumaier compensation."""
    term = np.ones_like(t)
    total = np.ones_like(t)
    comp = np.zeros_like(t)
    tsq = t * t
    j = 0
    while True:
        ratio = -(tsq * (j + n)) / (4.0 * (j + 1) * (n + 2 * j) * (n + 2 * j + 1))
        term = term * ratio
        fresh = total + term
        comp += np.where(
            np.abs(total) >= np.abs(term),
            (total - fresh) + term,
            (term - fresh) + total,
        )
        total = fresh
        j += 1
        if j >= 8 and np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-30)):
            break
        if j > 800:
            raise ConvergenceFailureError("characteristic-function series stalled")
    return total + comp


@functools.cache
def _cf_large_coefficients(n: int) -> tuple[tuple[float, ...], ...]:
    """The large-|t| sum's coefficients for even and for odd k: each signed
    2 d_k / s^(k+1), with s the switch, rounded once from its exact value."""
    s = Fraction(_series_switch(n))
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
    ratio = _series_switch(n) / t
    u = ratio * ratio
    even, odd = (
        functools.reduce(lambda acc, c: acc * u + c, reversed(coefficients), np.zeros_like(u))
        for coefficients in _cf_large_coefficients(n)
    )
    return np.sin(0.5 * t) * ratio * even + np.cos(0.5 * t) * u * odd


def coalition_weight_cf(n: int, t) -> float | np.ndarray:
    """Characteristic function of the centered weight of a random coalition.

    Real and even in t, equal to 1 at t = 0, bounded by 1 in absolute
    value; for a single player it is exactly cos(t/2).  Small |t| uses
    the hypergeometric power series, large |t| a finite sum by parts of
    exact coefficients, so the whole real line is covered; a non-finite t
    is an error.  Validated to ~1e-10 absolute for n <= CF_N_MAX.
    """
    n = as_player_count(n)
    if n > CF_N_MAX:
        raise AccuracyUnsupportedError(
            f"the coalition-weight CF is validated for n <= {CF_N_MAX}"
        )
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.isfinite(arr).all():
        raise InvalidArgumentsError("CF arguments must be finite")
    out = np.empty_like(arr)
    mag = np.abs(arr)
    if n == 1:
        out[:] = np.cos(0.5 * arr)
    else:
        small = mag <= _series_switch(n)
        if np.any(small):
            out[small] = _cf_series(n, mag[small])
        if np.any(~small):
            big = mag[~small]
            out[~small] = 2.0 ** (1 - n) * np.cos(0.5 * big) + _cf_continuous_large(n, big)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def _cf_continuous(n: int, t: np.ndarray) -> np.ndarray:
    """CF of the continuous part only (atoms at +-1/2 removed)."""
    out = np.empty_like(t)
    mag = np.abs(t)
    small = mag <= _series_switch(n)
    if np.any(small):
        sm = mag[small]
        out[small] = _cf_series(n, sm) - 2.0 ** (1 - n) * np.cos(0.5 * sm)
    if np.any(~small):
        out[~small] = _cf_continuous_large(n, mag[~small])
    return out


# --------------------------------------------------------------------------
# expected Coleman index: the coalition-size Beta mixture

COLEMAN_N_MAX = 1000


def _mixture_log_weights(n: int) -> np.ndarray:
    """log(C(n-1, j) T_j / 2^n) for j = 0 .. n-2: each weight is an exact
    integer ratio rounded once, then logged."""
    pmf = accumulate(range(1, n - 1), lambda c, j: c * (n - j) // j, initial=1)  # C(n-1, j)
    return np.array([math.log(c * tail / (1 << n)) for c, tail in zip(pmf, _mixture_tails(n))])


def expected_coleman(n: int, q: float) -> float:
    """Expected Coleman index of an n-player game with uniform random weights.

    A coalition of m of the n players (0 < m < n) has Beta(m, n-m) total
    weight under the uniform simplex law, so
    E[C] = 2^-n (1 + sum_m C(n, m) P[Beta(m, n-m) >= q]), and for integer
    parameters P[Beta(m, n-m) >= q] = P[Bin(n-1, q) <= m-1].  Grouped by the
    binomial outcome j this is the all-positive sum
    2^-n + sum_{j<n-1} P[Bin(n-1, q) = j] 2^-n sum_{j<m<n} C(n, m).
    Each term is exp of its exact integer weight's log plus
    j log q + (n-1-j) log(1-q), so nothing cancels: values down to 2^-n keep
    full relative accuracy.  Validated for n <= COLEMAN_N_MAX (2^-n
    underflows past n = 1074); q = 1 leaves only the grand coalition, 2^-n.
    """
    n = as_player_count(n)
    if n > COLEMAN_N_MAX:
        raise AccuracyUnsupportedError(
            f"the expected Coleman index is validated for n <= {COLEMAN_N_MAX}"
        )
    q = as_quota(q)
    if q == 1.0:
        return 2.0 ** (-n)
    j = np.arange(n - 1)
    exponents = _mixture_log_weights(n) + j * math.log(q) + (n - 1 - j) * math.log1p(-q)
    return math.fsum([2.0 ** (-n), *np.exp(exponents)])


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

    The numerator solves the normal approximation in closed form via the
    inverse normal CDF; the denominator inverts the exact mixture curve
    by bracketed root finding (the curve is strictly decreasing in q).
    """
    n = as_player_count(n)
    y = float(y)
    if not (2.0 ** (-2 * n) <= y <= 0.5):
        raise InvalidArgumentsError("target value outside [2^-2n, 1/2]")
    if y == 0.5:
        return 1.0
    # Imported here: scipy dominates the package's import time.
    from scipy.optimize import brentq
    from scipy.special import ndtri

    q_normal = 0.5 + float(ndtri(1.0 - y)) / math.sqrt(2.0 * (n + 1))

    def objective(q: float) -> float:
        return expected_coleman(n, q) - y

    lo, hi = 0.5 + 1e-9, 1.0 - 1e-9
    f_hi = objective(hi)
    if f_hi >= 0.0:
        raise ConvergenceFailureError(
            f"target {y!r} is below the exact curve's infimum near q = 1; "
            "no quota brackets it",
            estimates=(f_hi + y, y),
        )
    q_exact = brentq(objective, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return q_normal / q_exact
