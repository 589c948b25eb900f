"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 10's large five-player discovery run is marked
``extended`` (deselected by default; select with ``-m extended``).
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import chi2, ks_2samp

import votepower as vp
from votepower.experiments import CLASS_COUNT_CEILINGS

from reference import ordered_weight_breakpoints, sample_uniform_simplex


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    print(f"criterion {number:02d} PASS: {description}")


def test_c01_expected_ordered_weights():
    with criterion(1, "expected ordered weights reproduce the n=3 and n=6 vectors"):
        got3 = vp.expected_ordered_weights(3)
        got6 = vp.expected_ordered_weights(6)
        assert np.max(np.abs(got3 - np.array([11, 5, 2]) / 18)) < 1e-12
        assert np.max(np.abs(got6 - np.array([147, 87, 57, 37, 22, 10]) / 360)) < 1e-12


def test_c02_density_validity():
    with criterion(2, "densities integrate to 1 with the right mean and support, n <= 8"):
        for n in range(2, 9):
            for k in range(1, n + 1):
                lo, hi = vp.ordered_weight_support(n, k)
                assert (lo, hi) == ((1.0 / n, 1.0) if k == 1 else (0.0, 1.0 / k))
                pts = list(ordered_weight_breakpoints(n, k))
                mass, _ = quad(
                    lambda x: vp.ordered_weight_density(n, k, x),
                    lo, hi, points=pts, limit=200,
                )
                mean, _ = quad(
                    lambda x: x * vp.ordered_weight_density(n, k, x),
                    lo, hi, points=pts, limit=200,
                )
                assert abs(mass - 1.0) <= 1e-8, (n, k)
                assert abs(mean - vp.expected_ordered_weight(n, k)) <= 1e-8, (n, k)


def _equal_mass_edges(n, k, bins):
    lo, hi = vp.ordered_weight_support(n, k)
    edges = [lo]
    for i in range(1, bins):
        target = i / bins
        edges.append(
            brentq(lambda x: vp.ordered_weight_cdf(n, k, x) - target, lo, hi)
        )
    edges.append(hi)
    return np.array(edges)


def test_c03_sampling_consistency():
    with criterion(3, "sampler matches the closed-form densities and the partial-sum identity"):
        # chi-square goodness of fit against f_{4,k}, 1e5 seeded draws
        draws = vp.sample_uniform_simplex_batch(4, 10 ** 5, vp.RandomSeed(2718))
        ordered = np.sort(draws, axis=1)[:, ::-1]
        bins = 40
        for k in range(1, 5):
            edges = _equal_mass_edges(4, k, bins)
            observed, _ = np.histogram(ordered[:, k - 1], bins=edges)
            expected = ordered.shape[0] / bins
            statistic = float(((observed - expected) ** 2 / expected).sum())
            p_value = float(chi2.sf(statistic, bins - 1))
            assert p_value > 0.01, (k, p_value)
        # distributional identity: ordered coordinates vs scaled partial sums,
        # independent samples, two-sample KS at the 1% level for n = 5
        a = vp.sample_uniform_simplex_batch(5, 10 ** 5, vp.RandomSeed(31, 1))
        b = vp.sample_uniform_simplex_batch(5, 10 ** 5, vp.RandomSeed(31, 2))
        ordered = np.sort(a, axis=1)[:, ::-1]
        scaled = b / np.arange(1, 6)
        partial = np.cumsum(scaled[:, ::-1], axis=1)[:, ::-1]
        for k in range(5):
            result = ks_2samp(ordered[:, k], partial[:, k])
            assert result.pvalue > 0.01, (k + 1, result.pvalue)


def test_c04_moments():
    with criterion(4, "product moments match Monte Carlo; squared-sum stats are exact"):
        assert vp.sum_sq_stats(3) == (0.5, 1.0 / 60.0)
        rng = np.random.default_rng(55)
        cases = []
        while len(cases) < 20:
            n = int(rng.integers(2, 7))
            m = rng.multinomial(int(rng.integers(1, 7)), np.full(n, 1.0 / n))
            cases.append((n, tuple(int(v) for v in m)))
        for index, (n, m) in enumerate(cases):
            draws = vp.sample_uniform_simplex_batch(n, 10 ** 6, vp.RandomSeed(900, index))
            sample = np.prod(draws ** np.array(m), axis=1)
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            exact = vp.product_moment(n, m)
            assert abs(sample.mean() - exact) <= 3.0 * se, (n, m)


def test_c05_index_kernels():
    with criterion(5, "meet-in-the-middle equals enumeration on 1000 games x 99 quotas"):
        from votepower.games import _full_sums, _level_histograms

        profile = vp.banzhaf(vp.VotingGame(np.array([0.5, 0.3, 0.2]), 0.55))
        assert profile.beta.tolist() == [0.6, 0.2, 0.2]
        quotas = np.linspace(0.505, 0.995, 99)
        rng = np.random.default_rng(123)
        for trial in range(1000):
            n = int(rng.integers(1, 17))
            w = sample_uniform_simplex(n, vp.RandomSeed(7000, trial))
            game = vp.VotingGame(w, 1.0)
            counts = np.empty((quotas.size, 1 + n), dtype=np.int64)
            _level_histograms(_full_sums(game.weights), quotas, counts[:, :, None])
            np.cumsum(counts[::-1], axis=0, out=counts[::-1])
            omega_naive, member_naive = counts[:, 0], counts[:, 1:]
            for j, q in enumerate(quotas):
                omega_mitm, member_mitm = vp.count_winning_mitm(vp.VotingGame(w, q))
                assert omega_mitm == omega_naive[j]
                assert np.array_equal(member_mitm, member_naive[j])


def test_c06_small_n_closed_forms():
    with criterion(6, "two- and three-player curves match Monte Carlo; exact branch identities"):
        from votepower.analytic import _poly_eval

        quotas = [0.55, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0]
        curves2 = vp.mc_power_curve(2, quotas, samples=2 ** 16, seed=vp.RandomSeed(61))
        curves3 = vp.mc_power_curve(3, quotas, samples=2 ** 16, seed=vp.RandomSeed(62))
        for j, q in enumerate(quotas):
            exact2 = vp.expected_beta_n2(q)
            exact3 = vp.expected_beta_n3(q)
            for k in range(2):
                gap = abs(curves2[k].mean[j] - exact2[k])
                assert gap <= max(0.01, 3.0 * curves2[k].stderr[j]), (2, k + 1, q)
            for k in range(3):
                gap = abs(curves3[k].mean[j] - exact3[k])
                assert gap <= max(0.01, 3.0 * curves3[k].stderr[j]), (3, k + 1, q)
        low, high = zip(*(vp.expected_beta_n3_curve(r).pieces for r in (1, 2, 3)))
        for branch in (low, high):
            assert tuple(sum(p[i] for p in branch) for i in range(3)) == (
                Fraction(1), Fraction(0), Fraction(0),
            )
        for lo_poly, hi_poly in zip(low, high):
            assert _poly_eval(lo_poly, Fraction(2, 3)) == _poly_eval(hi_poly, Fraction(2, 3))
        assert [(e.rank, e.location) for e in vp.extrema_n3()] == [
            (2, Fraction(34, 39)),
            (3, Fraction(5, 9)),
            (3, Fraction(13, 18)),
        ]


def test_c07_coleman_machinery():
    with criterion(7, "CF identity, unanimity atom, exact mixture vs Monte Carlo, Hoeffding bound"):
        ts = np.linspace(0.0, 10.0, 201)
        assert np.max(np.abs(vp.coalition_weight_cf(1, ts) - np.cos(ts / 2))) < 1e-10
        for n in (2, 3, 6, 9, 12):
            assert vp.expected_coleman(n, 1.0) == 2.0 ** (-n)
        grid = np.linspace(0.52, 0.98, 25)
        for n in (3, 6, 9, 12):
            mc = vp.mc_coleman_curve(n, grid, samples=2 ** 16, seed=vp.RandomSeed(70 + n))
            exact = np.array([vp.expected_coleman(n, float(q)) for q in grid])
            gaps = np.abs(mc.mean - exact)
            assert np.all(gaps <= 1e-3 + 3.0 * mc.stderr), (n, float(gaps.max()))
        rng = np.random.default_rng(321)
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            q = float(rng.uniform(0.5 + 1e-9, 1.0))
            game = vp.VotingGame(
                sample_uniform_simplex(n, vp.RandomSeed(8000, trial)), q
            )
            assert vp.banzhaf(game).coleman <= vp.hoeffding_bound(game) + 1e-15


def test_c08_normal_approximation():
    with criterion(8, "normal approximation at q = 1/2 and error-ratio round trips"):
        assert vp.expected_coleman_normal(6, 0.5) == 0.5
        for y in (0.05, 0.1, 0.25):
            ratio = vp.coleman_error_ratio(6, y)
            q_normal = 0.5 + float(ndtri(1.0 - y)) / math.sqrt(14.0)
            q_exact = q_normal / ratio
            back = vp.expected_coleman(6, q_exact)
            assert abs(back - y) <= 1e-6, (y, back)


def test_c09_spline_structure():
    with criterion(9, "quota curves fit as low-degree splines with the right breakpoints"):
        q2 = np.linspace(0.505, 1.0, 120)
        fit2 = vp.fit_spline(q2, 1.5 - q2, max_degree=1)
        assert fit2.interior_breakpoints == ()
        assert fit2.max_residual < 1e-12
        grid = np.unique(np.append(np.linspace(0.505, 0.995, 199), 2.0 / 3.0))
        step = float(np.max(np.diff(grid)))
        for rank in (2, 3):
            values = np.array([vp.expected_beta_n3(float(x))[rank - 1] for x in grid])
            fit3 = vp.fit_spline(grid, values, max_degree=2)
            assert len(fit3.interior_breakpoints) == 1
            assert abs(fit3.interior_breakpoints[0] - 2.0 / 3.0) <= step
            assert fit3.max_residual < 1e-10
            assert len(fit3.piece_coefficients) == 2


def test_c10_class_discovery():
    with criterion(10, "class discovery recovers 2/5/14 classes and respects ceilings"):
        catalog2 = vp.discover_classes(2, budget=10 ** 5, seed=vp.RandomSeed(90))
        assert catalog2.count == 2
        assert catalog2.beta_vectors() == {(0.5, 0.5), (1.0, 0.0)}
        catalog3 = vp.discover_classes(3, budget=10 ** 6, seed=vp.RandomSeed(91))
        assert catalog3.count == 5
        betas3 = catalog3.beta_vectors()
        third = 1.0 / 3.0
        assert betas3 == {
            (third, third, third),
            (0.5, 0.5, 0.0),
            (0.6, 0.2, 0.2),
            (1.0, 0.0, 0.0),
        }
        symmetric = [c for c in catalog3.classes if c.beta == (third, third, third)]
        assert len(symmetric) == 2
        catalog4 = vp.discover_classes(4, budget=10 ** 6, seed=vp.RandomSeed(92))
        assert catalog4.count == 14
        for n in (5, 6, 7):
            quick = vp.discover_classes(n, budget=200000, seed=vp.RandomSeed(93))
            assert quick.count <= CLASS_COUNT_CEILINGS[n]


@pytest.mark.extended
def test_c10_extended_five_player_classes():
    with criterion(10, "extended: five-player discovery reaches all 62 classes"):
        catalog = vp.discover_classes(5, budget=10 ** 8, seed=vp.RandomSeed(94))
        assert catalog.count == 62
