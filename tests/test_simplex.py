import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import votepower
from votepower import (
    InvalidArgumentsError,
    InvalidDimensionError,
    InvalidRankError,
    RandomSeed,
    as_weight_vector,
    renyi_partial_sums,
    sample_uniform_simplex_batch,
)
from votepower import simplex
from votepower.simplex import as_player_count, as_quota_grid, as_rank

from reference import sample_uniform_simplex

SUM_TOL = 1e-12


class TestWeightVectorValidation:
    def test_accepts_simplex_point(self):
        w = as_weight_vector([0.5, 0.3, 0.2])
        assert w.tolist() == [0.5, 0.3, 0.2]
        assert not w.flags.writeable

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidArgumentsError):
            as_weight_vector([0.5, 0.3])

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentsError):
            as_weight_vector([1.2, -0.2])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDimensionError):
            as_weight_vector([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_rejects_non_finite(self, bad, normalize):
        with pytest.raises(InvalidArgumentsError, match="finite"):
            as_weight_vector([0.5, bad, 0.5], normalize=normalize)

    def test_normalize_rejects_a_zero_vector(self):
        with pytest.raises(InvalidArgumentsError, match="zero"):
            as_weight_vector([0.0, 0.0], normalize=True)

    def test_normalize(self):
        w = as_weight_vector([2, 3, 5], normalize=True)
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=SUM_TOL)


class TestSampling:
    def test_single_player_is_point(self):
        assert sample_uniform_simplex(1, 123).tolist() == [1.0]

    def test_zero_players_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sample_uniform_simplex(0, 1)

    def test_rows_are_valid_weight_vectors(self):
        batch = sample_uniform_simplex_batch(7, 5000, RandomSeed(11, 2))
        assert np.all(batch >= 0)
        sums = batch.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= SUM_TOL

    def test_determinism_and_stream_independence(self):
        a = sample_uniform_simplex_batch(4, 100, RandomSeed(9, 1))
        b = sample_uniform_simplex_batch(4, 100, RandomSeed(9, 1))
        c = sample_uniform_simplex_batch(4, 100, RandomSeed(9, 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_single_equals_batch_head(self):
        seed = RandomSeed(77, 3)
        assert np.array_equal(
            sample_uniform_simplex(5, seed), sample_uniform_simplex_batch(5, 4, seed)[0]
        )

    def test_coordinate_means(self):
        # Symmetry: each coordinate has mean 1/n.
        batch = sample_uniform_simplex_batch(3, 10 ** 5, RandomSeed(2024))
        se = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
        assert np.all(np.abs(batch.mean(axis=0) - 1.0 / 3.0) <= 3.0 * se)

    def test_sum_of_squares_mean(self):
        # E(sum W^2) = 2/(n+1) = 2/5 for four players.
        batch = sample_uniform_simplex_batch(4, 10 ** 5, RandomSeed(31))
        ssq = (batch * batch).sum(axis=1)
        se = ssq.std(ddof=1) / math.sqrt(ssq.size)
        assert abs(ssq.mean() - 0.4) <= 3.0 * se

    def test_substream_guard(self):
        with pytest.raises(InvalidArgumentsError):
            RandomSeed(0, 1 << 40).substream(0)
        with pytest.raises(InvalidArgumentsError):
            RandomSeed(0, 0).substream(1 << 32)


class TestRenyiPartialSums:
    def test_single(self):
        assert renyi_partial_sums([1.0]).tolist() == [1.0]

    def test_two_players(self):
        out = renyi_partial_sums([0.6, 0.4])
        assert out == pytest.approx([0.8, 0.2], abs=1e-15)

    @given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_normalized(self, n, seed):
        out = renyi_partial_sums(sample_uniform_simplex(n, RandomSeed(seed)))
        assert np.all(np.diff(out) <= 0)
        assert abs(math.fsum(out.tolist()) - 1.0) <= SUM_TOL

    def test_matches_order_statistics_in_distribution(self):
        # The transformed vector and the sorted vector must be statistically
        # indistinguishable; quick two-sample KS check at rank 1 for n = 4.
        from scipy.stats import ks_2samp

        a = sample_uniform_simplex_batch(4, 20000, RandomSeed(5, 10))
        b = sample_uniform_simplex_batch(4, 20000, RandomSeed(5, 11))
        ordered = np.sort(a, axis=1)[:, ::-1][:, 0]
        partial = np.array([renyi_partial_sums(row)[0] for row in b])
        assert ks_2samp(ordered, partial).pvalue > 0.01


# Every public entry point that takes a player count, called with that count.
PLAYER_COUNT_CALLS = {
    "sample_uniform_simplex_batch": lambda n: votepower.sample_uniform_simplex_batch(n, 4, 0),
    "expected_ordered_weight": lambda n: votepower.expected_ordered_weight(n, 1),
    "expected_ordered_weight_exact": lambda n: votepower.expected_ordered_weight_exact(n, 1),
    "expected_ordered_weights": lambda n: votepower.expected_ordered_weights(n),
    "ordered_weight_support": lambda n: votepower.ordered_weight_support(n, 1),
    "ordered_weight_density": lambda n: votepower.ordered_weight_density(n, 1, 0.5),
    "ordered_weight_cdf": lambda n: votepower.ordered_weight_cdf(n, 1, 0.5),
    "product_moment": lambda n: votepower.product_moment(n, [1, 0, 0]),
    "product_moment_exact": lambda n: votepower.product_moment_exact(n, [1, 0, 0]),
    "power_sum_moment": lambda n: votepower.power_sum_moment(n, 2),
    "sum_sq_stats": lambda n: votepower.sum_sq_stats(n),
    "coalition_weight_cf": lambda n: votepower.coalition_weight_cf(n, 1.0),
    "expected_coleman": lambda n: votepower.expected_coleman(n, 0.6),
    "expected_coleman_normal": lambda n: votepower.expected_coleman_normal(n, 0.6),
    "coleman_error_ratio": lambda n: votepower.coleman_error_ratio(n, 0.25),
    "mc_power_curve": lambda n: votepower.mc_power_curve(n, [0.6], samples=8),
    "mc_coleman_curve": lambda n: votepower.mc_coleman_curve(n, [0.6], samples=8),
    "mc_hoeffding_curve": lambda n: votepower.mc_hoeffding_curve(n, [0.6], samples=8),
    "discover_classes": lambda n: votepower.discover_classes(n, budget=8),
}

# Every public entry point that takes a quota in (1/2, 1], called with it.
QUOTA_CALLS = {
    "expected_coleman": lambda q: votepower.expected_coleman(3, q),
    "expected_beta_n2": lambda q: votepower.expected_beta_n2(q),
    "expected_beta_n3": lambda q: votepower.expected_beta_n3(q),
    "class_probabilities": lambda q: votepower.class_table_n3().probabilities(q),
    "VotingGame": lambda q: votepower.VotingGame([0.5, 0.3, 0.2], q),
    "StepCurve.value_at": lambda q: votepower.fixed_weight_quota_curve(
        [0.5, 0.3, 0.2]).value_at(q),
    "mc_coleman_curve": lambda q: votepower.mc_coleman_curve(3, [q], samples=8),
    "mc_hoeffding_curve": lambda q: votepower.mc_hoeffding_curve(3, [q], samples=8),
    "mc_power_curve": lambda q: votepower.mc_power_curve(3, [q], samples=8),
}

# Every other count a public entry point takes, called with that count.
COUNT_CALLS = {
    "size": lambda c: votepower.sample_uniform_simplex_batch(3, c, 0),
    "samples": lambda c: votepower.mc_coleman_curve(3, [0.6], samples=c),
    "hoeffding-samples": lambda c: votepower.mc_hoeffding_curve(3, [0.6], samples=c),
    "workers": lambda c: votepower.mc_coleman_curve(3, [0.6, 0.8], samples=8192, workers=c),
    "power-workers": lambda c: votepower.mc_power_curve(3, [0.6], samples=8, workers=c),
    "budget": lambda c: votepower.discover_classes(3, budget=c),
}

_SERIES = np.linspace(0.55, 1.0, 20), (np.linspace(0.55, 1.0, 20) - 0.7) ** 2

# Every integer parameter outside n, q and the counts above, called with a
# value; 1 is valid for each.
INTEGER_CALLS = {
    "RandomSeed.seed": lambda v: votepower.RandomSeed(v),
    "RandomSeed.stream": lambda v: votepower.RandomSeed(0, v),
    "seed": lambda v: votepower.sample_uniform_simplex_batch(3, 1, v),
    "smoothing_window": lambda v: votepower.count_extrema(_SERIES, smoothing_window=v),
    "max_degree": lambda v: votepower.fit_spline(*_SERIES, max_degree=v),
    "max_breakpoints": lambda v: votepower.fit_spline(*_SERIES, 1, max_breakpoints=v),
    "expected_beta_curve": lambda v: votepower.class_table_n3().expected_beta_curve(v),
    "exponent": lambda v: votepower.product_moment(2, (v, 1)),
}


class TestInputContract:
    @pytest.mark.parametrize("call", PLAYER_COUNT_CALLS.values(), ids=PLAYER_COUNT_CALLS)
    def test_player_count_edges(self, call):
        for n in (0, -1, 2.5, True):
            with pytest.raises(InvalidDimensionError):
                call(n)
        call(3)
        call(np.int64(3))

    @pytest.mark.parametrize("call", QUOTA_CALLS.values(), ids=QUOTA_CALLS)
    def test_quota_edges(self, call):
        for q in (0.5, math.nan, math.nextafter(1.0, 2.0)):
            with pytest.raises(InvalidArgumentsError):
                call(q)
        call(1.0)

    @pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS)
    def test_other_count_edges(self, call):
        for count in (0, 2.5, True):
            with pytest.raises(InvalidArgumentsError):
                call(count)
        call(np.int64(2))

    @pytest.mark.parametrize("call", INTEGER_CALLS.values(), ids=INTEGER_CALLS)
    def test_other_integer_edges(self, call):
        for value in (True, 1.5, 2.7, -1):
            with pytest.raises(InvalidArgumentsError):
                call(value)
        call(1)

    @pytest.mark.parametrize(
        "call",
        [votepower.expected_ordered_weight, votepower.ordered_weight_support,
         lambda n, k: votepower.ordered_weight_density(n, k, 0.2),
         lambda n, k: votepower.class_table_n3().expected_beta_curve(k)],
        ids=["expected_ordered_weight", "ordered_weight_support", "ordered_weight_density",
             "expected_beta_curve"],
    )
    def test_rank_edges(self, call):
        for k in (0, 4, 1.5, True):
            with pytest.raises(InvalidRankError):
                call(3, k)
        call(3, np.int64(2))

    @pytest.mark.parametrize("exponents", [(2.0, 1.0), ("2", "1"), (np.float64(2), 1)])
    def test_exponents_must_be_integers(self, exponents):
        for call in (votepower.product_moment, votepower.product_moment_exact):
            with pytest.raises(InvalidArgumentsError, match="exponent must be an integer"):
                call(2, exponents)

    def test_numpy_integer_exponents(self):
        exact = votepower.product_moment_exact
        assert exact(2, (np.int64(2), 1)) == exact(2, (2, 1)) == Fraction(1, 12)

    def test_seed_takes_numpy_integers_below_2_64(self):
        seed = RandomSeed(np.int64(3), np.uint64(2 ** 64 - 1))
        assert (type(seed.seed), seed.seed) == (int, 3)
        assert (type(seed.stream), seed.stream) == (int, 2 ** 64 - 1)
        assert simplex.as_seed(np.int64(3)) == RandomSeed(3)
        for name in ("seed", "stream"):
            with pytest.raises(InvalidArgumentsError, match=f"{name} must be below 2\\*\\*64"):
                RandomSeed(**{name: 2 ** 64})

    def test_rank_error_is_an_argument_error(self):
        assert issubclass(InvalidRankError, InvalidArgumentsError)
        assert type(as_rank(np.int64(3), 3)) is int

    def test_player_count_error_is_an_argument_error(self):
        assert issubclass(InvalidDimensionError, InvalidArgumentsError)
        assert type(as_player_count(np.int64(40))) is int

    @pytest.mark.parametrize(
        "grid", [[], [0.6, 0.6], [0.8, 0.6], [0.5, 0.6], [0.6, math.nan],
                 [0.6, math.nextafter(1.0, 2.0)]]
    )
    def test_quota_grid_edges(self, grid):
        with pytest.raises(InvalidArgumentsError):
            as_quota_grid(grid)

    def test_default_grid_is_numpy_linspace(self):
        expected = np.append(np.linspace(0.505, 0.995, 99), 1.0)
        assert simplex.default_quota_grid().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lo, hi", [(0.25, 1.0), (0.0, 0.5), (1 / 3, 1.0), (0.0, 1 / 7)])
    def test_linspace_is_numpy_linspace(self, lo, hi):
        # the density's x values on the supports of f_{4,1}, f_{n,2}, f_{3,1}
        # and f_{n,7}, for every point count up to 1000
        for points in range(1, 1001):
            got = np.array(simplex._linspace(lo, hi, points))
            assert got.tobytes() == np.linspace(lo, hi, points).tobytes()
