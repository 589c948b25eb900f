import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from votepower import (
    AccuracyUnsupportedError,
    DegenerateDistributionError,
    InvalidArgumentsError,
    InvalidRankError,
    RandomSeed,
    expected_ordered_weight,
    expected_ordered_weight_exact,
    expected_ordered_weights,
    ordered_weight_breakpoints,
    ordered_weight_cdf,
    ordered_weight_density,
    ordered_weight_support,
    power_sum_moment,
    product_moment,
    product_moment_exact,
    sample_uniform_simplex_batch,
    sum_sq_stats,
)
from votepower.weightdist import power_sum_moment_exact

import reference


class TestExpectedOrderedWeights:
    def test_three_players(self):
        assert np.allclose(expected_ordered_weights(3) * 18, [11, 5, 2], atol=1e-12)

    def test_six_players(self):
        assert np.allclose(
            expected_ordered_weights(6) * 360, [147, 87, 57, 37, 22, 10], atol=1e-12
        )

    def test_single_player(self):
        assert expected_ordered_weight(1, 1) == 1.0

    def test_rank_out_of_range(self):
        with pytest.raises(InvalidRankError):
            expected_ordered_weight(4, 5)
        with pytest.raises(InvalidRankError):
            expected_ordered_weight(4, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17])
    def test_ranks_sum_to_one_exactly(self, n):
        total = sum(expected_ordered_weight_exact(n, k) for k in range(1, n + 1))
        assert total == Fraction(1)


class TestDensity:
    def test_two_player_max_is_uniform_on_upper_half(self):
        assert ordered_weight_density(2, 1, 0.75) == 2.0
        assert ordered_weight_density(2, 1, 0.25) == 0.0

    def test_zero_outside_support(self):
        assert ordered_weight_density(4, 2, 0.51) == 0.0
        assert ordered_weight_density(4, 1, 0.2) == 0.0
        assert ordered_weight_density(6, 3, -0.1) == 0.0
        assert ordered_weight_density(6, 3, 1.1) == 0.0

    def test_degenerate_single_player(self):
        with pytest.raises(DegenerateDistributionError):
            ordered_weight_density(1, 1, 0.5)

    def test_support_endpoints(self):
        assert ordered_weight_support(5, 1) == (0.2, 1.0)
        assert ordered_weight_support(5, 3) == (0.0, 1.0 / 3.0)

    def test_breakpoints_inside_support(self):
        pts = ordered_weight_breakpoints(5, 2)
        assert np.all((pts > 0.0) & (pts < 0.5))

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (6, 2), (8, 5)])
    def test_normalization_and_mean(self, n, k):
        lo, hi = ordered_weight_support(n, k)
        pts = list(ordered_weight_breakpoints(n, k))
        mass, _ = quad(
            lambda x: ordered_weight_density(n, k, x), lo, hi, points=pts, limit=200
        )
        mean, _ = quad(
            lambda x: x * ordered_weight_density(n, k, x), lo, hi, points=pts, limit=200
        )
        assert abs(mass - 1.0) < 1e-8
        assert abs(mean - expected_ordered_weight(n, k)) < 1e-8

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_continuity_at_breakpoints(self, n):
        # The density is smooth for n >= 4; check tiny jumps at each 1/j.
        for k in range(1, n + 1):
            for bp in ordered_weight_breakpoints(n, k):
                left = ordered_weight_density(n, k, bp - 1e-12)
                right = ordered_weight_density(n, k, bp + 1e-12)
                assert abs(left - right) < 1e-8

    @pytest.mark.parametrize(
        "n,k",
        [(8, 1), (10, 4), (12, 7), (12, 12), (2, 1), (2, 2), (13, 5), (30, 3), (64, 2)],
    )
    def test_float_path_matches_exact_rationals(self, n, k):
        # Every value is the float nearest the exact rational density.
        lo, hi = ordered_weight_support(n, k)
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 23):
            exact = reference.ordered_weight_density_exact(n, k, float(x))
            assert ordered_weight_density(n, k, float(x)) == float(exact)

    def test_large_n_uses_exact_path(self):
        value = ordered_weight_density(40, 3, 0.05)
        assert value == float(reference.ordered_weight_density_exact(40, 3, 0.05))
        assert value > 0.0

    @pytest.mark.parametrize("n", [*range(2, 13), 13, 30, 64])
    def test_exact_and_non_negative_at_every_rank(self, n):
        # Both support ends and a point outside on either side; at n = 2 a
        # vanishing base must not count as 0 ** 0 = 1.
        for k in range(1, n + 1) if n <= 12 else sorted({1, 2, n // 2, n}):
            lo, hi = ordered_weight_support(n, k)
            for x in [*np.linspace(lo, hi, 41).tolist(), lo - 0.01, hi + 0.01]:
                value = ordered_weight_density(n, k, x)
                assert value == float(reference.ordered_weight_density_exact(n, k, x))
                assert value >= 0.0

    def test_nan_is_rejected(self):
        for evaluate in (ordered_weight_density, ordered_weight_cdf):
            with pytest.raises(ValueError):
                evaluate(4, 2, math.nan)

    def test_nan_is_an_invalid_argument(self):
        for evaluate in (ordered_weight_density, ordered_weight_cdf):
            with pytest.raises(InvalidArgumentsError):
                evaluate(4, 2, math.nan)

    def test_validated_range_bound(self):
        with pytest.raises(AccuracyUnsupportedError):
            ordered_weight_density(65, 2, 0.1)


class TestCdf:
    def test_total_mass(self):
        for n, k in [(2, 1), (3, 2), (6, 4)]:
            assert ordered_weight_cdf(n, k, 1.0) == 1.0

    def test_two_player_midpoint(self):
        assert ordered_weight_cdf(2, 1, 0.75) == pytest.approx(0.5, abs=1e-14)

    def test_three_player_class_boundary(self):
        # 1 - F_(3,1)(q) must equal the dictator-class probability 3(1-q)^2.
        q = 2.0 / 3.0
        assert ordered_weight_cdf(3, 1, q) == pytest.approx(2.0 / 3.0, abs=1e-12)
        for q in (0.55, 0.7, 0.9):
            assert 1.0 - ordered_weight_cdf(3, 1, q) == pytest.approx(
                3.0 * (1.0 - q) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (8, 6)])
    def test_matches_quadrature_of_density(self, n, k):
        lo, hi = ordered_weight_support(n, k)
        pts = list(ordered_weight_breakpoints(n, k))
        for x in np.linspace(lo, hi, 9)[1:-1]:
            integral, _ = quad(
                lambda u: ordered_weight_density(n, k, u),
                lo,
                float(x),
                points=[p for p in pts if p < x],
                limit=200,
            )
            assert ordered_weight_cdf(n, k, float(x)) == pytest.approx(
                integral, abs=1e-9
            )

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 4), (7, 3)])
    def test_monotone_with_correct_limits(self, n, k):
        lo, hi = ordered_weight_support(n, k)
        xs = np.linspace(lo - 0.05, hi + 0.05, 60)
        values = [ordered_weight_cdf(n, k, float(x)) for x in xs]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n,k", [(9, 5), (12, 3), (12, 11), (2, 1), (2, 2), (13, 5), (30, 3), (64, 2)]
    )
    def test_float_path_matches_exact(self, n, k):
        # Every value is the float nearest the exact rational CDF.
        lo, hi = ordered_weight_support(n, k)
        for x in np.linspace(lo + 1e-6, hi - 1e-6, 17):
            exact = reference.ordered_weight_cdf_exact(n, k, float(x))
            assert ordered_weight_cdf(n, k, float(x)) == float(exact)

    @pytest.mark.parametrize("n", [*range(2, 13), 13, 30, 64])
    def test_exact_and_within_unit_interval_at_every_rank(self, n):
        for k in range(1, n + 1) if n <= 12 else sorted({1, 2, n // 2, n}):
            lo, hi = ordered_weight_support(n, k)
            for x in [*np.linspace(lo, hi, 41).tolist(), lo - 0.01, hi + 0.01]:
                value = ordered_weight_cdf(n, k, x)
                assert value == float(reference.ordered_weight_cdf_exact(n, k, x))
                assert 0.0 <= value <= 1.0


class TestMoments:
    def test_pair_moment_quadrature(self):
        assert product_moment(2, (1, 1)) == pytest.approx(
            reference.product_moment_quadrature((1, 1)), abs=1e-7
        )
        assert product_moment_exact(2, (1, 1)) == Fraction(1, 6)

    def test_zero_exponents(self):
        assert product_moment(5, (0, 0, 0, 0, 0)) == 1.0

    def test_symmetry_forces_first_moment(self):
        assert product_moment(5, (1, 0, 0, 0, 0)) == pytest.approx(0.2, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentsError):
            product_moment(3, (1, 1))

    def test_negative_exponent(self):
        with pytest.raises(InvalidArgumentsError):
            product_moment(2, (1, -1))

    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=6).filter(
            lambda m: sum(m) > 0
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, m):
        n = len(m)
        base = product_moment_exact(n, m)
        assert product_moment_exact(n, sorted(m)) == base
        assert product_moment_exact(n, sorted(m, reverse=True)) == base

    def test_power_sum_values(self):
        assert power_sum_moment(3, 1) == 1.0
        assert power_sum_moment(3, 2) == pytest.approx(0.5, abs=1e-15)
        assert power_sum_moment(4, 3) == pytest.approx(0.2, abs=1e-15)

    def test_power_sum_rejects_zero(self):
        with pytest.raises(InvalidArgumentsError):
            power_sum_moment(3, 0)

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 4), (7, 3)])
    def test_power_sum_equals_scaled_product_moment(self, n, m):
        single = [m] + [0] * (n - 1)
        assert power_sum_moment_exact(n, m) == n * product_moment_exact(n, single)

    def test_sum_sq_stats(self):
        assert sum_sq_stats(1) == (1.0, 0.0)
        mean, var = sum_sq_stats(3)
        assert mean == 0.5 and var == pytest.approx(1.0 / 60.0, abs=1e-16)
        assert sum_sq_stats(6)[0] == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_sum_sq_monte_carlo(self):
        batch = sample_uniform_simplex_batch(3, 10 ** 5, RandomSeed(404))
        ssq = (batch * batch).sum(axis=1)
        mean, var = sum_sq_stats(3)
        assert abs(ssq.mean() - mean) <= 3.0 * ssq.std(ddof=1) / math.sqrt(ssq.size)
        sq_dev = (ssq - mean) ** 2
        assert abs(sq_dev.mean() - var) <= 3.0 * sq_dev.std(ddof=1) / math.sqrt(
            sq_dev.size
        )
