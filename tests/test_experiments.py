import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from votepower import (
    BudgetExceededError,
    InvalidArgumentsError,
    VotingGame,
    banzhaf,
    count_extrema,
    default_quota_grid,
    discover_classes,
    expected_beta_n2,
    expected_beta_n3,
    expected_beta_n3_curve,
    expected_coleman,
    fit_spline,
    mc_coleman_curve,
    mc_hoeffding_curve,
    mc_power_curve,
)
from votepower import experiments, games
from votepower.experiments import (
    CLASS_COUNT_CEILINGS,
    MC_CHUNK,
    MC_KERNEL_BUDGET,
    QuotaCurve,
    _sorted_weight_chunk,
)
from votepower.simplex import RandomSeed, _simplex_rows

import reference


class TestQuotaGrid:
    def test_default_grid(self):
        grid = default_quota_grid()
        assert grid.size == 100
        assert grid[0] == 0.505 and grid[-2] == 0.995 and grid[-1] == 1.0

    def test_grid_validation(self):
        with pytest.raises(InvalidArgumentsError):
            mc_coleman_curve(3, quotas=[0.4, 0.6], samples=8)
        with pytest.raises(InvalidArgumentsError):
            mc_coleman_curve(3, quotas=[0.7, 0.6], samples=8)

    @pytest.mark.parametrize("quotas", [[np.nan], [0.6, np.nan], [np.nan, 0.6]])
    def test_nan_quota_is_an_invalid_argument(self, quotas):
        with pytest.raises(InvalidArgumentsError):
            mc_power_curve(3, quotas=quotas, samples=8)
        with pytest.raises(InvalidArgumentsError):
            QuotaCurve(np.array(quotas), "x", np.zeros(len(quotas)),
                       np.zeros(len(quotas)), np.ones(len(quotas)))


class TestPowerCurve:
    def test_two_player_line(self):
        curves = mc_power_curve(2, quotas=[0.75], samples=2 ** 16, seed=12)
        expected = expected_beta_n2(0.75)
        for k, curve in enumerate(curves):
            assert abs(curve.mean[0] - expected[k]) <= 3 * curve.stderr[0]

    def test_three_player_match(self):
        curves = mc_power_curve(3, quotas=[0.6], samples=2 ** 16, seed=12)
        expected = expected_beta_n3(0.6)
        for k, curve in enumerate(curves):
            assert abs(curve.mean[0] - expected[k]) <= 3 * curve.stderr[0]

    def test_unanimity_is_exact(self):
        curves = mc_power_curve(4, quotas=[0.8, 1.0], samples=500, seed=5)
        for curve in curves:
            assert curve.mean[1] == 0.25
            assert curve.stderr[1] == 0.0

    def test_psi_statistic(self):
        curves = mc_power_curve(2, quotas=[1.0], samples=64, seed=0, statistic="psi")
        # at unanimity both players swing exactly the single winning coalition
        assert curves[0].mean[0] == 0.5
        assert curves[1].mean[0] == 0.5

    def test_determinism_and_worker_invariance(self):
        a = mc_power_curve(3, quotas=[0.6, 0.8], samples=10000, seed=9)
        b = mc_power_curve(3, quotas=[0.6, 0.8], samples=10000, seed=9)
        c = mc_power_curve(3, quotas=[0.6, 0.8], samples=10000, seed=9, workers=3)
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x.mean, y.mean) and np.array_equal(x.mean, z.mean)
            assert np.array_equal(x.stderr, z.stderr)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            mc_power_curve(19, samples=4)


class TestColemanCurve:
    def test_unanimity_exact(self):
        curve = mc_coleman_curve(5, quotas=[0.9, 1.0], samples=4096, seed=1)
        assert curve.mean[1] == 2.0 ** (-5)
        assert curve.stderr[1] == 0.0

    def test_near_half(self):
        curve = mc_coleman_curve(4, quotas=[0.5 + 1e-9], samples=2 ** 14, seed=2)
        assert abs(curve.mean[0] - 0.5) <= 3 * curve.stderr[0] + 1e-6

    def test_monotone_sample_by_sample(self):
        grid = np.linspace(0.51, 1.0, 23)
        curve = mc_coleman_curve(6, quotas=grid, samples=2 ** 12, seed=8)
        assert np.all(np.diff(curve.mean) <= 0)

    @pytest.mark.parametrize("n", [3, 6])
    def test_matches_inversion(self, n):
        grid = np.linspace(0.52, 0.98, 7)
        curve = mc_coleman_curve(n, quotas=grid, samples=2 ** 14, seed=21)
        for q, m, s in zip(grid, curve.mean, curve.stderr):
            assert abs(m - expected_coleman(n, float(q))) <= 1e-3 + 3 * s

    def test_hoeffding_dominates_coleman_mean(self):
        grid = np.linspace(0.55, 0.95, 9)
        coleman = mc_coleman_curve(5, grid, samples=2 ** 12, seed=4)
        bound = mc_hoeffding_curve(5, grid, samples=2 ** 12, seed=4)
        assert np.all(coleman.mean <= bound.mean + 1e-12)


class TestChunkReduction:
    class Trail:
        """A partial whose merge does not commute: it lists the chunks."""

        def __init__(self, index, count):
            self.chunks = [(index, count)]

        def merge(self, other):
            self.chunks += other.chunks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partials_merge_in_chunk_order(self, workers):
        def worker(index, count):
            time.sleep(0.002 * (5 - index))  # later chunks finish first
            return self.Trail(index, count)

        trail = experiments._run_chunks(worker, 5 * MC_CHUNK + 7, workers)
        assert trail.chunks == [(i, MC_CHUNK) for i in range(5)] + [(5, 7)]


class TestMonteCarloAtTies:
    """With one sample and that sample's own coalition sums as the grid,
    every quota is a tie for some coalition, and each estimator must give
    the exact profile of the game it drew, bit for bit."""

    @pytest.mark.parametrize("n,seed", [(6, 2), (6, 5), (10, 3)])
    def test_one_sample_equals_banzhaf(self, n, seed):
        w = _sorted_weight_chunk(n, seed, 0, 1)[0]
        sums = games._full_sums(w)
        grid = np.unique(sums[(sums > 0.5) & (sums <= 1.0)])
        beta = mc_power_curve(n, grid, samples=1, seed=seed)
        psi = mc_power_curve(n, grid, samples=1, seed=seed, statistic="psi")
        coleman = mc_coleman_curve(n, grid, samples=1, seed=seed)
        for g, q in enumerate(grid):
            profile = banzhaf(VotingGame(w, q))
            assert np.array_equal([c.mean[g] for c in beta], np.sort(profile.beta)[::-1])
            assert np.array_equal([c.mean[g] for c in psi], np.sort(profile.psi)[::-1])
            assert coleman.mean[g] == profile.coleman

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_sample_at_the_kernel_budget(self, workers):
        n, seed = MC_KERNEL_BUDGET, 4
        w = _sorted_weight_chunk(n, seed, 0, 1)[0]
        sums = games._full_sums(w)
        wins = np.unique(sums[(sums > 0.5) & (sums <= 1.0)])
        # The three sums nearest 1/2 lie closer than the finest binning cell.
        grid = np.unique(np.concatenate([wins[:3], wins[:: wins.size // 4], wins[-1:]]))
        beta = mc_power_curve(n, grid, samples=1, seed=seed, workers=workers)
        psi = mc_power_curve(n, grid, samples=1, seed=seed, statistic="psi", workers=workers)
        coleman = mc_coleman_curve(n, grid, samples=1, seed=seed, workers=workers)
        for g, q in enumerate(grid):
            profile = banzhaf(VotingGame(w, q))
            assert np.array_equal([c.mean[g] for c in beta], np.sort(profile.beta)[::-1])
            assert np.array_equal([c.mean[g] for c in psi], np.sort(profile.psi)[::-1])
            assert coleman.mean[g] == profile.coleman


def _digest(curves):
    h = hashlib.sha256()
    for c in curves:
        h.update(c.mean.tobytes())
        h.update(c.stderr.tobytes())
    return h.hexdigest()


def _mc_digest(n, samples, statistic, workers):
    if statistic == "coleman":
        curves = [mc_coleman_curve(n, samples=samples, seed=23, workers=workers)]
    elif statistic == "hoeffding":
        curves = [mc_hoeffding_curve(n, samples=samples, seed=23, workers=workers)]
    else:
        curves = mc_power_curve(
            n, samples=samples, seed=23, statistic=statistic, workers=workers
        )
    return _digest(curves)


# sha256 of every curve's mean and stderr bytes on the default grid at seed
# 23, as computed before the counting was tiled.  Below n = 12 the samples
# cross a chunk boundary; at n = 12 and 14 they span two reduction blocks.
PINNED_DIGESTS = {
    (1, 4103, "beta"): "f15b9f3f3196b04d8b0dec905ed1a6358775736c89a27fce439fc086bd37db7b",
    (1, 4103, "psi"): "f15b9f3f3196b04d8b0dec905ed1a6358775736c89a27fce439fc086bd37db7b",
    (1, 4103, "coleman"): "86cfcde18a7fbb0483b860682ead9fa53fdfb6c4e83d9e5edef668032b111720",
    (1, 4103, "hoeffding"): "ac1aa4c47e66941f276d6a3c65ce087305c26f5383c00f452cee88ee2dde025f",
    (3, 4103, "beta"): "9e933c5eed3da670beaa863e18805fdcee5f9cfcb1ea1ca6e4a7021516695924",
    (3, 4103, "psi"): "261ebd89f6a52b22bf23ff57dff5cdee909aff83e611e4f422d62d83aca054b2",
    (3, 4103, "coleman"): "80c51e55a931feb5080410b503d60bf12720cf25aeb1c1ae1d31ed29e600ec7e",
    (3, 4103, "hoeffding"): "612dacc2aac084c2ce77249607e345dbefcb15c7ade6005b73244ff9f0b591ad",
    (6, 4103, "beta"): "34254964e82e402c2288c08e062eecaf0ebc773570d7c77a5e3aaeb0d80696ba",
    (6, 4103, "psi"): "ce86363c2eebb2922d9766f7a884eae7aa24593be8f8eb7e44bc1f1087efe562",
    (6, 4103, "coleman"): "d95b879517b17a94f9d795560d8889833bf0f032a70fcf1710740287d53651bb",
    (6, 4103, "hoeffding"): "82066c1b9edf611c8dac69160a832e2069fcb59fdce2f3c8ada05be31a1168c9",
    (9, 4103, "beta"): "b804050e6af61e4f0ba1c0f3f14ee48c551d710f832a7f431380a8c4576c1142",
    (9, 4103, "psi"): "ecec2e3dba95cc2f9ea8bff3b441ed48a5bb3cd677ca233c9165bb9db0e0c8c7",
    (9, 4103, "coleman"): "205ac4c05b32e7a794fa2baad5eb46acd919b87a0560b5f9b3b86f07b0e43897",
    (9, 4103, "hoeffding"): "4e7d8b9f50ed710c0a78c8b98594f1f2241a6301d664bfb9754f002af44fafe4",
    (10, 4103, "beta"): "4a5eaed9d653b153f48ff2ee67e2e1e2434a51e66773e4a2777d66fdcf696a41",
    (10, 4103, "psi"): "3f41f05a546214aae10d46941a6baa58d31fd0193a9a9c6cb6c6589c62ce40f2",
    (10, 4103, "coleman"): "322838c4dfe5db3a7c7b715906dcef251aeb17be744443b9acdbe2bf8bdd95cb",
    (10, 4103, "hoeffding"): "f87f43df6db2420f68db71bf555ae9ab935962a398c10fd97ac5147322e0e503",
    (12, 1100, "beta"): "9dc30ff6dd6fb26dad18eb25815161320f35f1e9774b571f5c5001dcea08f574",
    (12, 1100, "psi"): "3e64c2d216050f8628ad3d1023066f1db56676973e1e5f5b6ad76b13b6ae03d5",
    (12, 1100, "coleman"): "c222a492758603d07a50f3ab6ec81343bd906fa09a1ef05c8b661ba4f97e6433",
    (12, 1100, "hoeffding"): "d0e7c8ccc6b9f705445a3bcc1a5c55f1bdd5e88357dfa8df4881f577103d222e",
    (14, 300, "beta"): "ceab67848ce06c4f213c8ffcca7742f42c3defe5504ee1ef86f0077ab13ae146",
    (14, 300, "psi"): "258fc826f37815b318672fa4741b1f9cbd90900d94891a3217664e2d49b3ed83",
    (14, 300, "coleman"): "819535aaa23e61bffa60428aeacc975327279bd82bf64386d90362189b9529c0",
    (14, 300, "hoeffding"): "4689628ecfe0f02539e81e4d64f436e721f0cd5f3286850c38099ba2791e79cf",
}


def _spy_tile_widths(monkeypatch):
    """Record the sample count of every table the counting core sees."""
    widths = []
    count = games._winning_counts

    def spy(sums, levels, members=True):
        widths.append(sums.shape[1])
        return count(sums, levels, members)

    monkeypatch.setattr(games, "_winning_counts", spy)
    return widths


class TestTiledCounting:
    """Tiles set only how much of a block is counted at once: the sums,
    squares and ranges are taken over the same reduction blocks, so every
    output bit is pinned."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS), ids=str)
    def test_pinned_digests(self, key, workers):
        assert _mc_digest(*key, workers) == PINNED_DIGESTS[key]

    @pytest.mark.parametrize(
        "key,width",
        [((3, 4103, "beta"), 3), ((6, 4103, "psi"), 3), ((12, 1100, "beta"), 2),
         ((12, 1100, "coleman"), 3), ((14, 300, "psi"), 1), ((14, 300, "coleman"), 1)],
        ids=str,
    )
    def test_narrow_tiles_keep_the_bits(self, monkeypatch, key, width):
        n, _, statistic = key
        histogram = (default_quota_grid().size + 1) * (1 if statistic == "coleman" else n)
        monkeypatch.setattr(experiments, "_TILE_CELL_BUDGET", width * ((1 << n) + histogram))
        widths = _spy_tile_widths(monkeypatch)
        for workers in (1, 2):
            assert _mc_digest(*key, workers) == PINNED_DIGESTS[key]
        assert max(widths) == width

    @pytest.mark.parametrize("statistic", ["beta", "psi"])
    def test_narrow_unsorted_tiles_are_sorted(self, monkeypatch, statistic):
        # Ascending weights give ascending swings, so every tile is sorted.
        n, grid = 6, default_quota_grid()
        weights = np.ascontiguousarray(_sorted_weight_chunk(n, 9, 0, 50)[:, ::-1])
        (wide,) = experiments._power_values(weights, grid, statistic)
        monkeypatch.setattr(experiments, "_TILE_CELL_BUDGET", 1)
        widths = _spy_tile_widths(monkeypatch)
        (narrow,) = experiments._power_values(weights, grid, statistic)
        assert widths == [1] * 50
        assert np.array_equal(narrow, wide)
        assert np.all(narrow[:, :-1] >= narrow[:, 1:])
        for j in (0, 31):
            profile = banzhaf(VotingGame(weights[j], grid[40]))
            assert np.array_equal(narrow[40, :, j], np.sort(getattr(profile, statistic))[::-1])


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloMemory:
    """A worker holds one reduction block of values and one tile of counting
    scratch, not a block's full sum, key and histogram tables."""

    def test_power_curve_n10_two_workers(self):
        peak = _traced_peak(lambda: mc_power_curve(10, samples=8192, workers=2))
        assert peak <= 96 * 2 ** 20

    def test_coleman_curve_n12_two_workers(self):
        peak = _traced_peak(lambda: mc_coleman_curve(12, samples=8192, workers=2))
        assert peak <= 24 * 2 ** 20


class TestRankOrder:
    @pytest.mark.parametrize("statistic", ["beta", "psi"])
    def test_ascending_chunk_is_sorted(self, statistic):
        # Ascending weights give ascending profiles, so the block is sorted.
        n, grid = 6, default_quota_grid()
        weights = np.ascontiguousarray(_sorted_weight_chunk(n, 9, 0, 50)[:, ::-1])
        blocks = list(experiments._power_values(weights, grid, statistic))
        assert len(blocks) == 1
        values = blocks[0]
        assert np.all(values[:, :-1] >= values[:, 1:])
        for j in (0, 17, 49):
            for g in (0, 40, 99):
                profile = banzhaf(VotingGame(weights[j], grid[g]))
                expected = getattr(profile, statistic)
                assert np.array_equal(values[g, :, j], np.sort(expected)[::-1])


def _upward_closed(family, n):
    return all(mask | 1 << bit in family for mask in family for bit in range(n))


def _proper(family, n):
    full = (1 << n) - 1
    return not any(full ^ mask in family for mask in family)


def _rank_complete(family, n):
    """Swapping a member for a larger (lower-rank) non-member still wins."""
    for mask in family:
        for out in range(n):
            if not mask >> out & 1:
                continue
            for into in range(out):
                if not mask >> into & 1 and mask ^ (1 << out) ^ (1 << into) not in family:
                    return False
    return True


class TestDiscoverClasses:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_grouping_matches_packbits_oracle(self, n):
        rng = np.random.default_rng(n)
        # Few distinct columns, so runs of several games each.
        columns = rng.random((1 << n, 9)) < 0.5
        win = columns[:, rng.integers(0, 9, 300)]
        assert sorted(experiments._family_runs(win)) == sorted(
            reference.packbits_family_runs(win)
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_catalog_matches_packbits_oracle(self, n, monkeypatch):
        catalog = discover_classes(n, budget=3000, seed=n)
        monkeypatch.setattr(experiments, "_family_runs", reference.packbits_family_runs)
        assert discover_classes(n, budget=3000, seed=n) == catalog

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_families_are_weighted_game_shapes(self, n):
        catalog = discover_classes(n, budget=3000, seed=20 + n)
        for cls in catalog.classes:
            family = set(cls.winning_masks)
            assert _upward_closed(family, n)
            assert _proper(family, n)
            assert _rank_complete(family, n)

    def test_two_players(self):
        catalog = discover_classes(2, budget=20000, seed=0)
        assert catalog.count == 2
        assert catalog.beta_vectors() == {(0.5, 0.5), (1.0, 0.0)}

    def test_three_players(self):
        catalog = discover_classes(3, budget=200000, seed=0)
        assert catalog.count == 5
        betas = catalog.beta_vectors()
        assert (0.6, 0.2, 0.2) in betas
        assert (0.5, 0.5, 0.0) in betas
        assert (1.0, 0.0, 0.0) in betas
        third = 1.0 / 3.0
        assert (third, third, third) in betas
        # two distinct families share the symmetric vector
        symmetric = [c for c in catalog.classes if c.beta == (third, third, third)]
        assert len(symmetric) == 2

    def test_families_are_monotone(self):
        catalog = discover_classes(4, budget=50000, seed=3)
        for cls in catalog.classes:
            family = set(cls.winning_masks)
            for mask in cls.winning_masks:
                for bit in range(4):
                    assert (mask | 1 << bit) in family

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_never_exceed_ceilings(self, n):
        catalog = discover_classes(n, budget=30000, seed=7)
        assert catalog.count <= CLASS_COUNT_CEILINGS[n]
        assert catalog.budget == 30000

    def test_every_beta_sums_to_one(self):
        catalog = discover_classes(4, budget=30000, seed=11)
        for cls in catalog.classes:
            assert math.fsum(cls.beta) == pytest.approx(1.0, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(InvalidArgumentsError):
            discover_classes(8, budget=10)

    def test_budget_past_a_chunk_adds_one_game(self):
        # Game 4096 opens chunk 1: its weights are the chunk's first simplex
        # row, and its quota 1 - U/2 takes the first uniform drawn after all
        # of the chunk's weight rows.
        n, seed = 5, RandomSeed(4)
        rng = seed.substream(1).generator()
        weights = np.sort(_simplex_rows(rng, n, MC_CHUNK)[0])[::-1]
        game = VotingGame(weights, 1.0 - 0.5 * rng.random())
        family = tuple(m for m in range(1 << n) if games.is_winning(game, m))

        def catalog(budget):
            classes = discover_classes(n, budget=budget, seed=seed).classes
            return {c.winning_masks: (c.beta, c.hits) for c in classes}

        expected = catalog(MC_CHUNK)
        hits = expected.get(family, (None, 0))[1]
        expected[family] = (tuple(banzhaf(game).beta.tolist()), hits + 1)
        assert catalog(MC_CHUNK + 1) == expected

    def test_shorter_budgets_are_prefixes(self):
        for seed in range(50):
            one = discover_classes(5, budget=1, seed=seed).classes
            two = discover_classes(5, budget=2, seed=seed).classes
            assert {c.winning_masks for c in one} <= {c.winning_masks for c in two}


class TestCountExtrema:
    def test_exact_three_player_counts(self):
        for rank, expected in ((1, 0), (2, 1), (3, 2)):
            count, locations = count_extrema(expected_beta_n3_curve(rank))
            assert count == expected
        count, locations = count_extrema(expected_beta_n3_curve(3))
        assert locations == pytest.approx([5 / 9, 13 / 18])

    def test_constant_curve(self):
        grid = np.linspace(0.51, 0.99, 25)
        curve = QuotaCurve(
            grid, "flat", np.full(25, 0.25), np.zeros(25), np.ones(25, dtype=int)
        )
        assert count_extrema(curve, smoothing_window=3) == (0, [])

    def test_noisy_single_peak(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.51, 0.99, 99)
        values = -((grid - 0.7) ** 2) + 1e-4 * rng.standard_normal(99)
        count, locations = count_extrema((grid, values), smoothing_window=7)
        assert count == 1
        assert abs(locations[0] - 0.7) < 0.05

    def test_requires_enough_points(self):
        with pytest.raises(InvalidArgumentsError):
            count_extrema((np.linspace(0.6, 0.9, 5), np.zeros(5)))

    def test_non_finite_samples_are_rejected(self):
        quotas = np.linspace(0.51, 0.99, 12)
        for curve in (
            (quotas, np.full(12, np.nan)),
            (quotas, np.where(quotas < 0.7, 0.25, np.inf)),
            (np.where(quotas < 0.7, quotas, np.nan), np.zeros(12)),
        ):
            with pytest.raises(InvalidArgumentsError):
                count_extrema(curve)

    def test_mc_curve_counts_are_exploratory_output(self):
        # Per-rank extremum counts on a sampled curve are reported, not
        # asserted against any conjecture; just exercise the path.
        curves = mc_power_curve(
            6, np.linspace(0.505, 0.995, 50), samples=2 ** 12, seed=33
        )
        for curve in curves:
            count, locations = count_extrema(curve, smoothing_window=5)
            assert count >= 0
            assert all(0.5 < loc <= 1.0 for loc in locations)


class TestFitSpline:
    def test_exact_linear(self):
        q = np.linspace(0.505, 1.0, 120)
        fit = fit_spline(q, 1.5 - q, max_degree=1)
        assert fit.interior_breakpoints == ()
        assert fit.max_residual < 1e-12

    def test_constant(self):
        q = np.linspace(0.505, 1.0, 40)
        fit = fit_spline(q, np.full(40, 0.125), max_degree=0)
        assert fit.interior_breakpoints == ()
        assert fit.max_residual < 1e-14

    def test_exact_quadratic_pair_finds_branch_point(self):
        grid = np.unique(np.append(np.linspace(0.505, 0.995, 199), 2 / 3))
        values = np.array([expected_beta_n3(float(x))[1] for x in grid])
        fit = fit_spline(grid, values, max_degree=2)
        assert len(fit.interior_breakpoints) == 1
        step = np.max(np.diff(grid))
        assert abs(fit.interior_breakpoints[0] - 2 / 3) <= step
        assert fit.max_residual < 1e-10
        assert len(fit.piece_coefficients) == 2

    def test_recovered_coefficients(self):
        grid = np.unique(np.append(np.linspace(0.505, 0.995, 199), 2 / 3))
        values = np.array([expected_beta_n3(float(x))[2] for x in grid])
        fit = fit_spline(grid, values, max_degree=2)
        left = [float(c) for c in (Fraction(-7, 15), Fraction(2), Fraction(-9, 5))]
        right = [float(c) for c in (Fraction(29, 15), Fraction(-26, 5), Fraction(18, 5))]
        assert np.allclose(fit.piece_coefficients[0], left, atol=1e-7)
        assert np.allclose(fit.piece_coefficients[1], right, atol=1e-7)

    def test_fixed_breakpoints(self):
        q = np.linspace(0.51, 0.99, 97)
        v = np.where(q <= 0.75, q, 1.5 * q - 0.375)
        fit = fit_spline(q, v, max_degree=1, breakpoints=[0.75])
        assert fit.max_residual < 1e-12

    def test_predict_matches_samples(self):
        q = np.linspace(0.505, 1.0, 60)
        v = 2.0 * q * q - q + 0.1
        fit = fit_spline(q, v, max_degree=2)
        assert np.max(np.abs(fit.predict(q) - v)) < 1e-11

    def test_underdetermined(self):
        with pytest.raises(InvalidArgumentsError):
            fit_spline([0.6, 0.7], [1.0, 2.0], max_degree=1)
        with pytest.raises(InvalidArgumentsError):
            fit_spline(
                np.linspace(0.51, 0.99, 10),
                np.zeros(10),
                max_degree=2,
                breakpoints=[0.52],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["quotas", "values"])
    def test_non_finite_samples_are_rejected(self, bad, where):
        q = np.linspace(0.51, 0.99, 20)
        v = 1.5 - q
        (q if where == "quotas" else v)[7] = bad
        with pytest.raises(InvalidArgumentsError):
            fit_spline(q, v, max_degree=1)
        with pytest.raises(InvalidArgumentsError):
            fit_spline(q, v, max_degree=1, breakpoints=[0.8])
