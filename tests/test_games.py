import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votepower import (
    BudgetExceededError,
    InvalidArgumentsError,
    RandomSeed,
    VotingGame,
    banzhaf,
    count_winning_mitm,
    dummies,
    fixed_weight_quota_curve,
    hoeffding_bound,
    optimal_quota_diagnostic,
)
from votepower import games
from votepower.experiments import default_quota_grid

import reference
from reference import count_winning_naive, is_winning, sample_uniform_simplex
from test_cli import fresh_interpreter


def game(weights, quota):
    return VotingGame(np.asarray(weights, dtype=float), quota)


def dyadic_weights(n):
    """n unequal multiples of 1/64 summing to 1 (n <= 32): every coalition
    sum is exact, and many coincide."""
    units = [1 + i % 3 for i in range(n - 1)]
    units.append(64 - sum(units))
    return [u / 64 for u in units]


class TestVotingGame:
    def test_quota_range(self):
        with pytest.raises(InvalidArgumentsError):
            game([1.0], 0.5)
        with pytest.raises(InvalidArgumentsError):
            game([1.0], 1.0001)
        assert game([1.0], 1.0).quota == 1.0

    def test_exact_mode_validation(self):
        with pytest.raises(InvalidArgumentsError):
            VotingGame.from_integers([1, 1], 1, 2)  # quota not > 1/2
        g = VotingGame.from_integers([5, 3, 2], 11, 20)
        assert g.exact and g.n == 3
        assert g.weights.tolist() == [0.5, 0.3, 0.2]

    def test_exact_fields_match_from_integers(self):
        g = VotingGame(np.array([0.5, 0.5]), 0.6, int_weights=(1, 1), quota_fraction=(3, 5))
        assert g.exact and g.int_weights == (1, 1) and g.quota_fraction == (3, 5)

    @pytest.mark.parametrize(
        "quota, int_weights, quota_fraction",
        [
            # singletons would win at 1/3, and Coleman would read 0.75
            pytest.param(0.6, (1, 1), (1, 3), id="fraction-not-above-half"),
            # float weights 1/2, 1/2 but beta [1, 0] from the integers
            pytest.param(0.6, (3, 1), (3, 5), id="ints-not-the-weights"),
            pytest.param(0.7, (1, 1), (3, 5), id="fraction-not-the-quota"),
            # den * total overflows the int64 kernels
            pytest.param(0.6, (2 ** 62, 2 ** 62), (3, 5), id="beyond-int64"),
        ],
    )
    def test_exact_fields_checked_where_built(self, quota, int_weights, quota_fraction):
        with pytest.raises(InvalidArgumentsError):
            VotingGame(
                np.array([0.5, 0.5]), quota, int_weights=int_weights, quota_fraction=quota_fraction
            )

    @pytest.mark.parametrize(
        "fields", [{"int_weights": (1, 1)}, {"quota_fraction": (3, 5)}], ids=["ints", "fraction"]
    )
    def test_exact_mode_needs_both_fields(self, fields):
        with pytest.raises(InvalidArgumentsError, match="both"):
            VotingGame(np.array([0.5, 0.5]), 0.6, **fields)


class TestIsWinning:
    def test_dictator(self):
        g = game([1.0, 0.0, 0.0], 0.9)
        assert is_winning(g, 0b001)
        assert not is_winning(g, 0b110)

    def test_majority_pair(self):
        g = game([1 / 3, 1 / 3, 1 / 3], 0.6)
        assert is_winning(g, 0b011)
        assert not is_winning(g, 0b001)

    def test_empty_coalition_loses(self):
        assert not is_winning(game([0.4, 0.6], 0.7), 0)

    def test_grand_coalition_wins_at_unanimity(self):
        w = sample_uniform_simplex(6, RandomSeed(8))
        assert is_winning(VotingGame(w, 1.0), 0b111111)

    def test_mask_bounds(self):
        with pytest.raises(InvalidArgumentsError):
            is_winning(game([0.6, 0.4], 0.6), 0b100)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_enumeration(self, n):
        # Over every mask of a float, a dyadic tie-heavy and an integer game,
        # with quotas at computed coalition sums, the winners and their
        # per-player counts are those of count_winning_naive.
        units = np.random.default_rng(n).integers(1, 10, size=n)
        cases = []
        for w in (sample_uniform_simplex(n, RandomSeed(n)), np.array(dyadic_weights(n))):
            sums = np.unique(games._full_sums(w))
            sums = sums[sums > 0.5]
            cases += [VotingGame(w, float(q)) for q in sums[[0, sums.size // 2, -1]]]
        total = int(units.sum())
        parts = np.unique(games._full_sums(units))
        parts = parts[2 * parts > total]
        cases += [
            VotingGame.from_integers(units, int(p), total) for p in parts[[0, parts.size // 2, -1]]
        ]
        for g in cases:
            winners = [m for m in range(1 << n) if is_winning(g, m)]
            member = [sum(m >> i & 1 for m in winners) for i in range(n)]
            omega, expected = count_winning_naive(g)
            assert len(winners) == omega
            assert member == expected.tolist()


class TestCounting:
    def test_dictator_counts(self):
        omega, member = count_winning_naive(game([1.0, 0.0, 0.0], 0.9))
        assert omega == 4
        assert member.tolist() == [4, 2, 2]

    def test_unanimity_counts(self):
        omega, member = count_winning_naive(game([1 / 3, 1 / 3, 1 / 3], 1.0))
        assert omega == 1
        assert member.tolist() == [1, 1, 1]

    def test_spec_game_counts(self):
        omega, member = count_winning_naive(game([0.5, 0.3, 0.2], 0.55))
        assert omega == 3
        assert member.tolist() == [3, 2, 2]

    @given(st.integers(1, 9), st.integers(0, 10 ** 6), st.floats(0.501, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_naive_matches_brute_force(self, n, seed, quota):
        w = sample_uniform_simplex(n, RandomSeed(seed))
        omega, member = count_winning_naive(VotingGame(w, quota))
        ref_omega, ref_member = reference.brute_counts(w.tolist(), quota)
        assert omega == ref_omega
        assert member.tolist() == ref_member

    @given(st.integers(1, 14), st.integers(0, 10 ** 6), st.floats(0.501, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_mitm_matches_naive(self, n, seed, quota):
        g = VotingGame(sample_uniform_simplex(n, RandomSeed(seed)), quota)
        omega_a, member_a = count_winning_naive(g)
        omega_b, member_b = count_winning_mitm(g)
        assert omega_a == omega_b
        assert member_a.tolist() == member_b.tolist()

    def test_mitm_matches_naive_on_exact_ties(self):
        # Dyadic weights put coalition sums exactly on representable quotas.
        g = game([0.25, 0.25, 0.25, 0.125, 0.125], 0.75)
        assert count_winning_naive(g)[0] == count_winning_mitm(g)[0]
        na, nb = count_winning_naive(g), count_winning_mitm(g)
        assert na[1].tolist() == nb[1].tolist()

    @pytest.mark.parametrize(
        "weights, quota",
        [
            pytest.param(dyadic_weights(16), 0.75, id="n16-dyadic"),
            pytest.param(dyadic_weights(20), 0.625, id="n20-dyadic"),
            pytest.param(dyadic_weights(24), 0.8125, id="n24-dyadic"),
            pytest.param([1 / 16] * 16, 0.75, id="n16-equal"),
            pytest.param([1 / 20] * 20, 0.55, id="n20-equal"),
            pytest.param([1 / 24] * 24, 0.75, id="n24-equal"),
        ],
    )
    def test_mitm_matches_naive_on_tie_heavy_games(self, weights, quota):
        # The quota equals a coalition sum, so many A sums meet a run of
        # equal B sums right at the boundary: both halves' tie credit counts.
        from votepower.games import _full_sums

        g = game(weights, quota)
        assert quota in _full_sums(g.weights)
        na, nb = count_winning_naive(g), count_winning_mitm(g)
        assert na[0] == nb[0]
        assert na[1].tolist() == nb[1].tolist()

    @pytest.mark.parametrize("kind", ["one-two", "equal"])
    @pytest.mark.parametrize("n", range(17, 23))
    def test_mitm_matches_naive_next_to_tied_sums(self, n, kind):
        # Every B sum lies in a large group of equal sums, whatever order
        # the sort leaves them in.  The quota sits at a computed coalition
        # sum and up to 2 ulps either side of it (float), or up to 2/4 of a
        # unit either side (exact mode).
        if kind == "one-two":
            # weights 1/32 and 2/32, so every coalition sum is exact
            units = [2] * (32 - n) + [1] * (2 * n - 32)
            units = np.random.default_rng(n).permutation(units).tolist()
        else:
            units = [1] * n
        total = sum(units)
        coalition = range(-(-2 * n // 3))
        weights = np.array(units, dtype=float) / total
        at_sum = games._full_sums(weights)[(1 << len(coalition)) - 1]
        part = sum(units[i] for i in coalition)
        for step in range(-2, 3):
            quota = at_sum
            for _ in range(abs(step)):
                quota = np.nextafter(quota, np.sign(step))
            for g in (
                VotingGame(weights, float(quota)),
                VotingGame.from_integers(units, 4 * part + step, 4 * total),
            ):
                na, nb = count_winning_naive(g), count_winning_mitm(g)
                assert na[0] == nb[0]
                assert na[1].tolist() == nb[1].tolist()

    def test_naive_traced_peak(self):
        # Enumeration compares one block of B masks with every A sum at a
        # time.  Measured at n = 24 with numpy 2.4: the earlier path, which
        # held the whole 2^24-entry sum table, peaked at 144 MiB, the
        # blocked pass at 0.44 MiB.
        import tracemalloc

        g = VotingGame(sample_uniform_simplex(24, RandomSeed(24)), 0.6)
        tracemalloc.start()
        try:
            count_winning_naive(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_mitm_traced_peak(self):
        # One n = 36 float count holds a few 2^18-entry (2 MiB) arrays at
        # once.  Measured with numpy 2.4: the earlier pass (stable sort, a
        # full search for both window edges, no early frees) peaked at
        # 22.0 MiB, this one at 14.25 MiB.
        import tracemalloc

        g = VotingGame(sample_uniform_simplex(36, RandomSeed(0)), 0.6)
        tracemalloc.start()
        try:
            count_winning_mitm(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22.0 * 2 ** 20

    @pytest.mark.extended
    @pytest.mark.parametrize("n", [26, 28])
    def test_mitm_matches_streaming_enumeration(self, n):
        rng = np.random.default_rng(n)
        dyadic = np.array(dyadic_weights(n))
        ints = rng.integers(1, 10 ** 6, size=n).tolist()
        cases = [
            VotingGame(sample_uniform_simplex(n, RandomSeed(n)), 0.6),
            VotingGame(sample_uniform_simplex(n, RandomSeed(n + 1)), 0.85),
            VotingGame.from_integers(ints, 3, 5),
            VotingGame.from_integers(ints, 7, 8),
        ]
        at_sum = games._full_sums(dyadic)[(1 << (2 * n // 3)) - 1]
        for quota in (np.nextafter(at_sum, 0), at_sum, np.nextafter(at_sum, 1)):
            cases.append(VotingGame(dyadic, float(quota)))
        for g in cases:
            na, nb = count_winning_naive(g), count_winning_mitm(g)
            assert na[0] == nb[0]
            assert na[1].tolist() == nb[1].tolist()

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(game([1 / 32] * 32, 0.75), id="n32-dyadic"),
            pytest.param(VotingGame.from_integers([1] * 40, 3, 5), id="n40-exact"),
        ],
    )
    def test_mitm_equal_weights_closed_form(self, g):
        # m* = 24 members reach the quota in both games.
        n, smallest = g.n, 24
        omega, member = count_winning_mitm(g)
        assert omega == sum(math.comb(n, m) for m in range(smallest, n + 1))
        expected = sum(math.comb(n - 1, m - 1) for m in range(smallest, n + 1))
        assert member.tolist() == [expected] * n

    def test_mitm_dictator_large(self):
        w = np.zeros(20)
        w[0] = 1.0
        omega, member = count_winning_mitm(VotingGame(w, 0.9))
        assert omega == 2 ** 19
        assert member[0] == 2 ** 19

    def test_streaming_naive_agrees_with_mitm(self):
        w = sample_uniform_simplex(25, RandomSeed(5))
        g = VotingGame(w, 0.62)
        omega_a, member_a = count_winning_naive(g)
        omega_b, member_b = count_winning_mitm(g)
        assert omega_a == omega_b and member_a.tolist() == member_b.tolist()

    def test_budgets(self):
        w = np.full(31, 1 / 31)
        with pytest.raises(BudgetExceededError):
            count_winning_naive(VotingGame(w / w.sum(), 0.6))
        w = np.full(49, 1 / 49)
        with pytest.raises(BudgetExceededError):
            count_winning_mitm(VotingGame(w / w.sum(), 0.6))


class TestExactMode:
    def test_tie_at_quota_wins(self):
        # total 10, quota 3/5: the {1,2} pair hits 6 exactly and wins.
        g = VotingGame.from_integers([3, 3, 4], 3, 5)
        omega, member = count_winning_naive(g)
        assert omega == 4
        assert member.tolist() == [3, 3, 3]
        assert is_winning(g, 0b011)
        assert count_winning_mitm(g) == (omega, pytest.approx(member.tolist()))

    def test_spec_exact_game(self):
        g = VotingGame.from_integers([5, 3, 2], 11, 20)
        profile = banzhaf(g)
        assert profile.beta.tolist() == [0.6, 0.2, 0.2]

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=10).filter(
            lambda v: sum(v) > 0
        ),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_mitm_matches_exact_naive(self, ints, num_raw):
        den = 2 * num_raw  # guarantees num/den in (1/2, 1]
        num = num_raw + den // 2
        g = VotingGame.from_integers(ints, min(num, den), den)
        assert count_winning_naive(g)[0] == count_winning_mitm(g)[0]
        assert count_winning_naive(g)[1].tolist() == count_winning_mitm(g)[1].tolist()


class TestBanzhaf:
    def test_spec_game_profile(self):
        profile = banzhaf(game([0.5, 0.3, 0.2], 0.55))
        assert profile.beta.tolist() == [0.6, 0.2, 0.2]
        assert profile.psi.tolist() == [0.75, 0.25, 0.25]
        assert profile.coleman == 0.375
        assert profile.winning_count == 3

    def test_dictator(self):
        profile = banzhaf(game([1.0, 0.0, 0.0], 0.9))
        assert profile.psi.tolist() == [1.0, 0.0, 0.0]
        assert profile.beta.tolist() == [1.0, 0.0, 0.0]
        assert profile.coleman == 0.5

    def test_symmetric_game(self):
        profile = banzhaf(game([1 / 3, 1 / 3, 1 / 3], 0.6))
        assert np.allclose(profile.beta, 1 / 3, atol=1e-15)

    @given(st.integers(2, 10), st.integers(0, 10 ** 6), st.floats(0.501, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_swing_characterization(self, n, seed, quota):
        # psi from the count formula equals direct swing counting.
        w = sample_uniform_simplex(n, RandomSeed(seed))
        profile = banzhaf(VotingGame(w, quota))
        swings = reference.brute_swings(w.tolist(), quota)
        expected = np.array(swings) / 2.0 ** (n - 1)
        assert np.array_equal(profile.psi, expected)

    @given(st.integers(2, 12), st.integers(0, 10 ** 6), st.floats(0.501, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, n, seed, quota):
        w = sample_uniform_simplex(n, RandomSeed(seed))
        profile = banzhaf(VotingGame(w, quota))
        assert np.all(profile.psi >= 0) and np.all(profile.psi <= 1)
        assert abs(profile.beta.sum() - 1.0) < 1e-12
        assert profile.coleman <= 0.5
        # weight monotonicity
        order = np.argsort(-w, kind="stable")
        assert np.all(np.diff(profile.psi[order]) <= 1e-15)


class TestDummies:
    def test_spec_example(self):
        assert dummies(game([0.5, 0.5, 0.0], 0.75)) == {2}

    def test_dictator(self):
        assert dummies(game([1.0, 0.0, 0.0], 0.9)) == {1, 2}

    def test_symmetric_none(self):
        assert dummies(game([0.25] * 4, 0.6)) == frozenset()

    @given(st.integers(2, 12), st.integers(0, 10 ** 6), st.floats(0.501, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_zero_swing_players_of_banzhaf(self, n, seed, quota):
        g = VotingGame(sample_uniform_simplex(n, RandomSeed(seed)), quota)
        assert dummies(g) == set(np.flatnonzero(banzhaf(g).psi == 0).tolist())


class TestHoeffdingBound:
    def test_spec_value(self):
        g = game([0.5, 0.3, 0.2], 0.55)
        assert hoeffding_bound(g) == pytest.approx(
            math.exp(-2 * 0.05 ** 2 / 0.38), abs=1e-15
        )
        assert banzhaf(g).coleman <= hoeffding_bound(g)

    def test_near_half_quota_is_vacuous(self):
        g = game([0.6, 0.4], 0.5 + 1e-12)
        assert hoeffding_bound(g) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(1, 12), st.integers(0, 10 ** 6), st.floats(0.501, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bound_dominates_coleman(self, n, seed, quota):
        g = VotingGame(sample_uniform_simplex(n, RandomSeed(seed)), quota)
        assert banzhaf(g).coleman <= hoeffding_bound(g) + 1e-15

    # 300 sampled games; with Sigma w^2 taken by np.dot, 126 of them gave
    # other bits under one of these two OpenBLAS kernels than the other.
    # Where numpy does not use OpenBLAS the variable is ignored.
    BLAS_GAMES = (
        "from votepower import VotingGame, hoeffding_bound, optimal_quota_diagnostic\n"
        "from votepower.simplex import sample_uniform_simplex_batch\n"
        "import numpy as np\n"
        "for n in (2, 3, 5, 8, 13, 21, 38, 64, 100, 250):\n"
        "    for w, q in zip(sample_uniform_simplex_batch(n, 30, n), np.linspace(0.51, 1, 30)):\n"
        "        values = (hoeffding_bound(VotingGame(w, q)), optimal_quota_diagnostic(w, 'sqrt'),\n"
        "                  optimal_quota_diagnostic(w, 'printed'))\n"
        "        print(*map(float.hex, values))\n"
    )

    def test_fixed_game_outputs_do_not_follow_the_blas_kernel(self):
        prescott, sandybridge = (
            fresh_interpreter(self.BLAS_GAMES, OPENBLAS_CORETYPE=kernel).stdout.splitlines()
            for kernel in ("Prescott", "Sandybridge")
        )
        assert len(prescott) == 300
        assert prescott == sandybridge


class TestQuotaCurve:
    def test_dictator_curve(self):
        curve = fixed_weight_quota_curve([1.0, 0.0, 0.0], "beta")
        for q in (0.51, 0.75, 1.0):
            assert curve.value_at(q).tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("statistic", ["hoeffding", "Beta", ""])
    def test_unknown_statistic(self, statistic):
        with pytest.raises(InvalidArgumentsError, match="unknown statistic"):
            fixed_weight_quota_curve([0.5, 0.3, 0.2], statistic)

    def test_spec_step_values(self):
        curve = fixed_weight_quota_curve([0.5, 0.3, 0.2], "beta")
        assert curve.breakpoints.tolist() == [0.7, 0.8, 1.0]
        assert curve.value_at(0.6).tolist() == [0.6, 0.2, 0.2]
        assert curve.value_at(0.75).tolist() == [0.5, 0.5, 0.0]
        assert curve.value_at(0.9).tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_breakpoint_belongs_to_left_piece(self):
        curve = fixed_weight_quota_curve([0.5, 0.3, 0.2], "beta")
        assert curve.value_at(0.7).tolist() == [0.6, 0.2, 0.2]

    @pytest.mark.parametrize("statistic", ["beta", "psi", "coleman"])
    @given(st.integers(2, 10), st.integers(0, 10 ** 6), st.floats(0.501, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_curve_matches_direct_evaluation(self, statistic, n, seed, quota):
        w = sample_uniform_simplex(n, RandomSeed(seed))
        curve = fixed_weight_quota_curve(w, statistic)
        direct = banzhaf(VotingGame(w, quota))
        assert np.array_equal(curve.value_at(quota), getattr(direct, statistic))

    def test_coleman_curve_values(self):
        curve = fixed_weight_quota_curve([0.5, 0.3, 0.2], "coleman")
        assert curve.value_at(0.6) == 0.375
        assert curve.value_at(1.0) == 0.125

    def test_unanimity_coleman_counts_positive_players(self):
        # With zero-weight players, C(1) = 2^-(number of positive weights);
        # dyadic weights keep every coalition sum exact.
        g = game([0.5, 0.25, 0.25, 0.0, 0.0], 1.0)
        assert banzhaf(g).coleman == 2.0 ** (-3)
        assert banzhaf(game([0.5, 0.5, 0.0], 1.0)).coleman == 0.25

    def test_coleman_step_curve_is_non_increasing(self):
        w = sample_uniform_simplex(8, RandomSeed(77))
        curve = fixed_weight_quota_curve(w, "coleman")
        assert np.all(np.diff(curve.values) <= 0)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            fixed_weight_quota_curve(np.full(21, 1 / 21) / np.full(21, 1 / 21).sum())


def _table_bins(levels, x):
    """The counting core's binning of each value in x against the levels."""
    x = np.asarray(x, dtype=np.float64)
    return games._bin_keys(x.reshape(-1, 1), levels).reshape(-1)


def _binning_probes(levels):
    """Every level and cell edge with both neighbours, the unanimity point
    and values past it; all >= 0, the sums' domain."""
    scale = games._level_table(levels)[0]
    edges = np.arange(int(max(levels[-1], 1.0) * scale) + 2) / scale
    points = np.concatenate([levels, edges, [0.0, 1.0, 1.0 + 1e-12, 2.0]])
    probes = np.concatenate(
        [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)]
    )
    return probes[probes >= 0]


def _n16_levels():
    w = sample_uniform_simplex(16, RandomSeed(5))
    sums = games._full_sums(w)
    return np.unique(sums[(sums > 0.5) & (sums <= 1.0)])


class TestBinning:
    """The exact table binning equals searchsorted(levels, x, "right")."""

    @pytest.mark.parametrize(
        "levels",
        [np.array([0.75]), np.array([1.0]), default_quota_grid(), _n16_levels()],
        ids=["one-level", "unanimity-only", "default-grid", "n16-sums"],
    )
    def test_matches_searchsorted(self, levels):
        probes = _binning_probes(levels)
        assert np.array_equal(
            _table_bins(levels, probes), np.searchsorted(levels, probes, side="right")
        )

    def test_default_grid_needs_one_step(self):
        assert games._level_table(default_quota_grid())[3] == 1

    def test_n16_sums_need_several_steps(self):
        levels = _n16_levels()
        assert np.diff(levels).min() < 2.0 ** -16
        assert games._level_table(levels)[3] > 1

    def test_game_sums(self):
        levels = _n16_levels()
        sums = games._full_sums(sample_uniform_simplex(16, RandomSeed(5)))
        assert np.array_equal(
            _table_bins(levels, sums), np.searchsorted(levels, sums, side="right")
        )

    def test_keys_interleave_columns(self):
        grid = default_quota_grid()
        weights = np.sort(np.random.default_rng(3).dirichlet(np.ones(5), 7), axis=1)
        sums = games._full_sums(weights[:, ::-1].T)
        keys = games._bin_keys(sums, grid)
        bins = np.searchsorted(grid, sums, side="right")
        assert np.array_equal(keys, bins * sums.shape[1] + np.arange(sums.shape[1]))

    def test_reused_scratch_gives_fresh_keys(self):
        # Tables of changing width and grids that come back: the scratch
        # grows, refills its column pattern and re-keys its level table.
        scratch = types.SimpleNamespace()
        grid, fine = default_quota_grid(), _n16_levels()
        rng = np.random.default_rng(4)
        for levels, players, cols in [(grid, 5, 7), (fine, 9, 3), (grid, 5, 11),
                                      (grid, 12, 1), (fine, 6, 40)]:
            weights = np.sort(rng.dirichlet(np.ones(players), cols), axis=1)
            sums = games._full_sums(weights[:, ::-1].T)
            assert np.array_equal(
                games._bin_keys(sums, levels, scratch=scratch), games._bin_keys(sums, levels)
            )

    @given(
        st.lists(
            st.floats(0.5, 1.0, exclude_min=True), min_size=1, max_size=40, unique=True
        ).map(sorted),
        st.lists(st.floats(0.0, 1.5), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_drawn_grids(self, levels, extra):
        levels = np.array(levels)
        probes = np.concatenate([_binning_probes(levels), extra])
        assert np.array_equal(
            _table_bins(levels, probes), np.searchsorted(levels, probes, side="right")
        )


def _top_down_sums(counts):
    """Sums from each level to the top, one level at a time."""
    out = counts.copy()
    for g in range(len(out) - 2, -1, -1):
        out[g] += out[g + 1]
    return out


def _histograms(levels, tail, dtype, seed):
    """Per-level histograms of shape (levels, *tail) whose columns hold at
    most the dtype's maximum in all, as binned coalitions do."""
    total = min(int(np.iinfo(dtype).max), 1 << 20)
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(total, np.full(levels + 1, 1 / (levels + 1)), size=tail)
    return np.moveaxis(drawn[..., 1:], -1, 0).astype(dtype)  # bin 0: wins at no level


class TestSuffixSums:
    """The one suffix pass of the quota curve and the Monte Carlo counts
    equals the plain top-down loop, at every head and group edge."""

    dtypes = [np.uint8, np.uint16, np.uint32, np.int64]
    layouts = [(3, 4), (3, 1), (3,)]

    @pytest.mark.parametrize("dtype", dtypes)
    @pytest.mark.parametrize("tail", layouts, ids=["samples", "one-sample", "no-samples"])
    def test_every_level_count_to_300(self, dtype, tail):
        for levels in range(1, 301):
            counts = _histograms(levels, tail, dtype, levels)
            expected = _top_down_sums(counts)
            games._suffix_sums(counts)
            assert counts.dtype == dtype
            assert np.array_equal(counts, expected), levels

    @pytest.mark.parametrize("dtype", dtypes)
    @pytest.mark.parametrize("tail", [(3, 2), (17, 1)], ids=["samples", "n16-curve"])
    def test_32768_levels(self, dtype, tail):
        counts = _histograms(32768, tail, dtype, 7)
        expected = _top_down_sums(counts)
        games._suffix_sums(counts)
        assert np.array_equal(counts, expected)


class TestOptimalQuotaDiagnostic:
    def test_unknown_variant(self):
        with pytest.raises(InvalidArgumentsError, match="unknown variant"):
            optimal_quota_diagnostic([0.5, 0.5], "square")

    def test_dictator_both_variants(self):
        assert optimal_quota_diagnostic([1.0, 0.0, 0.0], "sqrt") == 1.0
        assert optimal_quota_diagnostic([1.0, 0.0, 0.0], "printed") == 1.0

    def test_equal_weights(self):
        n = 9
        w = np.full(n, 1.0 / n)
        assert optimal_quota_diagnostic(w, "sqrt") == pytest.approx(
            0.5 * (1 + 1 / math.sqrt(n)), abs=1e-12
        )
        # The "printed" form exceeds 1 whenever weights are spread out.
        assert optimal_quota_diagnostic(w, "printed") == pytest.approx(
            (1 + n) / 2, abs=1e-9
        )
        assert optimal_quota_diagnostic(w, "printed") > 1.0
