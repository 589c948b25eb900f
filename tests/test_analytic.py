import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from votepower import (
    AccuracyUnsupportedError,
    ConvergenceFailureError,
    InvalidArgumentsError,
    RandomSeed,
    class_table_n3,
    coalition_weight_cf,
    coleman_error_ratio,
    expected_beta_n2,
    expected_beta_n2_curve,
    expected_beta_n3,
    expected_beta_n3_curve,
    expected_coleman,
    expected_coleman_normal,
    extrema_n3,
    sample_uniform_simplex_batch,
    sum_sq_stats,
)
from votepower.analytic import (
    CF_N_MAX,
    _cf_continuous_large,
    _cf_series,
    _poly_eval,
    _series_switch,
)

import reference


class TestTwoPlayers:
    def test_endpoints(self):
        assert expected_beta_n2(1.0) == (0.5, 0.5)
        b1, b2 = expected_beta_n2(0.5 + 1e-12)
        assert b1 == pytest.approx(1.0, abs=1e-9)
        assert b2 == pytest.approx(0.0, abs=1e-9)

    def test_midpoint(self):
        assert expected_beta_n2(0.75) == (0.75, 0.25)

    def test_quota_range(self):
        with pytest.raises(InvalidArgumentsError):
            expected_beta_n2(0.5)

    def test_monte_carlo_agreement(self):
        draws = sample_uniform_simplex_batch(2, 2 ** 16, RandomSeed(60))
        top = draws.max(axis=1)
        q = 0.75
        beta1 = np.where(top >= q, 1.0, 0.5)
        se = beta1.std(ddof=1) / math.sqrt(beta1.size)
        assert abs(beta1.mean() - expected_beta_n2(q)[0]) <= 3 * se


class TestClassTable:
    def test_five_classes_with_expected_vectors(self):
        table = class_table_n3()
        vectors = [tuple(c.beta) for c in table.classes]
        third = Fraction(1, 3)
        assert vectors.count((third, third, third)) == 2
        assert (Fraction(1, 2), Fraction(1, 2), Fraction(0)) in vectors
        assert (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)) in vectors
        assert (Fraction(1), Fraction(0), Fraction(0)) in vectors

    def test_dictator_probability_value(self):
        probs = class_table_n3().probabilities(0.51)
        assert probs["E"] == pytest.approx(0.7203, abs=1e-12)

    def test_all_pairs_class_near_half(self):
        # 9 q^2 - 12 q + 4 at q = 1/2 gives 1/4.
        cls = next(c for c in class_table_n3().classes if c.label == "D")
        low = cls.probability.pieces[0]
        assert _poly_eval(low, Fraction(1, 2)) == Fraction(1, 4)

    def test_probabilities_sum_to_one_identically(self):
        table = class_table_n3()
        for piece in range(2):
            total = (Fraction(0),)
            for cls in table.classes:
                poly = cls.probability.pieces[piece]
                padded = tuple(poly) + (Fraction(0),) * (3 - len(poly))
                total = tuple(
                    (total[i] if i < len(total) else 0) + padded[i] for i in range(3)
                )
            assert total == (Fraction(1), Fraction(0), Fraction(0))

    def test_non_negative_on_own_branch(self):
        table = class_table_n3()
        grid = np.linspace(0.5, 1.0, 1001)
        for cls in table.classes:
            branch_point = cls.probability.edges[1]
            prob_low, prob_high = cls.probability.pieces
            for q in grid:
                qf = Fraction(float(q))
                if qf <= branch_point:
                    assert _poly_eval(prob_low, qf) >= -Fraction(1, 10 ** 12)
                if qf >= branch_point:
                    assert _poly_eval(prob_high, qf) >= -Fraction(1, 10 ** 12)

    def test_branch_continuity(self):
        table = class_table_n3()
        for cls in table.classes:
            branch_point = cls.probability.edges[1]
            prob_low, prob_high = cls.probability.pieces
            assert _poly_eval(prob_low, branch_point) == _poly_eval(prob_high, branch_point)


class TestThreePlayerCurves:
    def test_value_at_0_6(self):
        assert expected_beta_n3(0.6) == pytest.approx(
            (0.7693333333333333, 0.1453333333333333, 0.0853333333333333), abs=1e-15
        )

    def test_unanimity(self):
        assert expected_beta_n3(1.0) == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_branch_point_value(self):
        assert expected_beta_n3(2 / 3) == pytest.approx((0.7, 7 / 30, 1 / 15), abs=1e-12)

    def test_near_half_limit(self):
        assert expected_beta_n3(0.5 + 1e-12) == pytest.approx(
            (5 / 6, 1 / 12, 1 / 12), abs=1e-9
        )

    def test_branches_sum_to_one_exactly(self):
        low, high = zip(*(expected_beta_n3_curve(r).pieces for r in (1, 2, 3)))
        for branch in (low, high):
            total = tuple(sum(p[i] for p in branch) for i in range(3))
            assert total == (Fraction(1), Fraction(0), Fraction(0))

    def test_exact_continuity_at_two_thirds(self):
        low, high = zip(*(expected_beta_n3_curve(r).pieces for r in (1, 2, 3)))
        bp = Fraction(2, 3)
        for lo_poly, hi_poly in zip(low, high):
            assert _poly_eval(lo_poly, bp) == _poly_eval(hi_poly, bp)

    def test_derived_left_branch_coefficients(self):
        # The rank-2 and rank-3 left branches have known printed forms:
        # 21/5 q^2 - 4 q + 31/30 and -9/5 q^2 + 2 q - 7/15.
        low, _ = zip(*(expected_beta_n3_curve(r).pieces for r in (1, 2, 3)))
        assert low[1] == (Fraction(31, 30), Fraction(-4), Fraction(21, 5))
        assert low[2] == (Fraction(-7, 15), Fraction(2), Fraction(-9, 5))

    def test_monte_carlo_agreement(self):
        from votepower import mc_power_curve

        curves = mc_power_curve(3, quotas=[2 / 3], samples=2 ** 16, seed=17)
        exact = expected_beta_n3(2 / 3)
        for k, curve in enumerate(curves):
            assert abs(curve.mean[0] - exact[k]) <= max(0.01, 3 * curve.stderr[0])


class TestExtrema:
    def test_locations_and_kinds(self):
        points = extrema_n3()
        assert [(p.rank, p.location, p.kind) for p in points] == [
            (2, Fraction(34, 39), "maximum"),
            (3, Fraction(5, 9), "maximum"),
            (3, Fraction(13, 18), "minimum"),
        ]

    def test_rank_counts_follow_rank_minus_one(self):
        for rank in (1, 2, 3):
            points = expected_beta_n3_curve(rank).stationary_points()
            assert len(points) == rank - 1

    def test_two_player_curves_are_monotone(self):
        for rank in (1, 2):
            assert expected_beta_n2_curve(rank).stationary_points() == []


class TestCoalitionWeightCf:
    def test_value_at_zero(self):
        for n in (1, 2, 5, 9):
            assert coalition_weight_cf(n, 0.0) == 1.0

    def test_single_player_cosine(self):
        for t in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert coalition_weight_cf(1, t) == pytest.approx(
                math.cos(t / 2), abs=1e-14
            )

    def test_two_player_closed_form(self):
        t = np.linspace(0.1, 200.0, 500)
        expected = np.sin(t / 2) / t + 0.5 * np.cos(t / 2)
        assert np.max(np.abs(coalition_weight_cf(2, t) - expected)) < 5e-11

    def test_even_and_bounded(self):
        t = np.linspace(-80.0, 80.0, 641)
        values = coalition_weight_cf(6, t)
        assert np.array_equal(values, coalition_weight_cf(6, -t))
        assert np.max(np.abs(values)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 19, 30, 100])
    def test_series_and_elementary_paths_agree(self, n):
        switch = _series_switch(n)
        t = np.linspace(switch - 6.0, switch + 6.0, 41)
        series = _cf_series(n, t)
        elementary = 2.0 ** (1 - n) * np.cos(0.5 * t) + _cf_continuous_large(n, t)
        assert np.max(np.abs(series - elementary)) < 1e-9

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_non_finite_arguments_are_rejected(self, n):
        for t in (math.nan, math.inf, -math.inf, [0.0, math.inf], np.array([1.0, math.nan])):
            with pytest.raises(InvalidArgumentsError, match="finite"):
                coalition_weight_cf(n, t)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, CF_N_MAX), t=st.floats(0.0, 1e4))
    def test_even_bounded_and_continuous_at_the_switch(self, n, t):
        value = coalition_weight_cf(n, t)
        assert coalition_weight_cf(n, -t) == value
        assert abs(value) <= 1.0 + 1e-12
        switch = _series_switch(n)
        below, above = coalition_weight_cf(n, np.array([switch, np.nextafter(switch, np.inf)]))
        assert abs(below - above) <= 1e-11

    @pytest.mark.parametrize("n", [2, 5, 18, 19, 30, 100, CF_N_MAX])
    def test_matches_quadrature_reference(self, n):
        switch = _series_switch(n)
        ts = np.concatenate(
            [np.linspace(0.5, switch, 9), np.linspace(switch + 1e-9, 3 * switch + 60, 41)]
        )
        values = coalition_weight_cf(n, ts)
        for t, value in zip(ts, values):
            assert abs(value - reference.coalition_cf_quadrature(n, t)) < 1e-10, t

    @pytest.mark.parametrize("t", [0.0, 1.0, 108.0])
    def test_above_validated_range_is_unsupported(self, t):
        with pytest.raises(AccuracyUnsupportedError, match=f"n <= {CF_N_MAX}"):
            coalition_weight_cf(CF_N_MAX + 1, t)

    def test_monte_carlo_product_of_cosines(self):
        # E prod cos(t W_k / 2) is the CF of the coalition weight before
        # centering, up to the carried phase; with the symmetric form the
        # sampled product itself is an unbiased estimate of the CF.
        t = 2.0
        draws = sample_uniform_simplex_batch(3, 10 ** 6, RandomSeed(99))
        sample = np.cos(t * draws / 2.0).prod(axis=1)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - coalition_weight_cf(3, t)) <= 3 * se


class TestExpectedColeman:
    def test_unanimity_atom(self):
        for n in (1, 2, 6, 12):
            assert expected_coleman(n, 1.0) == 2.0 ** (-n)

    def test_near_half(self):
        assert expected_coleman(5, 0.5 + 1e-9) == pytest.approx(0.5, abs=1e-6)

    def test_two_player_closed_form(self):
        # For two players the exact curve is (3 - 2q) / 4.
        for q in (0.51, 0.6, 0.75, 0.9, 0.99):
            assert expected_coleman(2, q) == pytest.approx((3 - 2 * q) / 4, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
    def test_against_beta_mixture_identity(self, n):
        for q in (0.52, 0.6, 0.7, 0.85, 0.98):
            assert expected_coleman(n, q) == pytest.approx(
                reference.coleman_beta_mixture(n, q), abs=1e-7
            )

    @pytest.mark.parametrize("n", [1, 2, 13, 30, 40, 200])
    def test_against_exact_mixture(self, n):
        for q in (0.5 + 1e-9, 0.6, 0.9, 0.99, 0.999):
            exact = reference.coleman_mixture_exact(n, q)
            got = expected_coleman(n, q)
            assert got > 0.0
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0), (n, q)

    @pytest.mark.parametrize("q", [0.75, 0.999])
    def test_validated_range_edge(self, q):
        exact = reference.coleman_mixture_exact(1000, q)
        assert expected_coleman(1000, q) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_beyond_validated_range(self):
        with pytest.raises(AccuracyUnsupportedError):
            expected_coleman(1001, 0.75)

    @pytest.mark.parametrize("n", [34, 100, 1000])
    def test_numpy_integer_player_count_gives_the_same_bits(self, n):
        # The mixture weights are exact integer ratios: an int64 n must not
        # overflow them.
        for q in (0.6, 0.9):
            assert expected_coleman(np.int64(n), q).hex() == expected_coleman(n, q).hex()

    def test_decreasing_in_quota(self):
        values = [expected_coleman(6, q) for q in np.linspace(0.51, 0.99, 25)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v <= 0.5 for v in values)

    def test_bounded_by_mean_hoeffding(self):
        from votepower import mc_hoeffding_curve

        grid = np.linspace(0.55, 0.95, 9)
        bound = mc_hoeffding_curve(6, grid, samples=2 ** 14, seed=3)
        for q, b, s in zip(grid, bound.mean, bound.stderr):
            assert expected_coleman(6, float(q)) <= b + 3 * s


class TestExpectedColemanNormal:
    def test_half_quota_is_exact_half(self):
        assert expected_coleman_normal(9, 0.5) == 0.5

    def test_against_scipy(self):
        assert expected_coleman_normal(12, 0.6) == pytest.approx(
            float(norm.sf(math.sqrt(26) * 0.1)), abs=1e-12
        )
        assert expected_coleman_normal(12, 0.6) == pytest.approx(0.3050600774, abs=1e-9)

    def test_variance_scaling_identity(self):
        # The slope constant is 1/sd of the centered coalition weight:
        # Var = E(sum W^2) / 4 = 1 / (2 (n + 1)).
        for n in (2, 5, 11):
            mean_ssq = sum_sq_stats(n)[0]
            assert math.sqrt(2 * (n + 1)) == pytest.approx(
                1.0 / math.sqrt(mean_ssq / 4.0), rel=1e-12
            )

    def test_close_to_exact_curve_for_moderate_n(self):
        for n in (6, 9):
            for q in np.linspace(0.52, 0.98, 12):
                gap = abs(
                    expected_coleman_normal(n, float(q)) - expected_coleman(n, float(q))
                )
                assert gap < 0.05


class TestColemanErrorRatio:
    def test_half_target(self):
        assert coleman_error_ratio(4, 0.5) == 1.0

    def test_round_trip(self):
        from scipy.special import ndtri

        for y in (0.05, 0.1, 0.25):
            ratio = coleman_error_ratio(6, y)
            q_norm = 0.5 + float(ndtri(1 - y)) / math.sqrt(14.0)
            q_exact = q_norm / ratio
            assert expected_coleman(6, q_exact) == pytest.approx(y, abs=1e-6)

    def test_monotone_in_target(self):
        from scipy.special import ndtri

        ratios = [coleman_error_ratio(6, y) for y in (0.05, 0.15, 0.3)]
        quotas_exact = [
            (0.5 + float(ndtri(1 - y)) / math.sqrt(14.0)) / r
            for y, r in zip((0.05, 0.15, 0.3), ratios)
        ]
        assert quotas_exact[0] > quotas_exact[1] > quotas_exact[2]

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentsError):
            coleman_error_ratio(6, 0.6)
        with pytest.raises(InvalidArgumentsError):
            coleman_error_ratio(6, 2.0 ** (-13))

    def test_unreachable_target_fails_to_bracket(self):
        # Values below 2^-n are in the documented domain but not attained
        # by the curve on (1/2, 1).
        with pytest.raises(ConvergenceFailureError):
            coleman_error_ratio(6, 0.0005)
