import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    @pytest.mark.parametrize("statistic", ["coleman", "hoeffding", "Beta"])
    def test_unknown_statistic(self, statistic):
        with pytest.raises(InvalidArgumentsError, match="unknown statistic"):
            mc_power_curve(3, [0.6], samples=8, statistic=statistic)

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

    def test_hoeffding_needs_no_enumeration(self):
        n, seed, grid = 30, 5, np.array([0.6, 0.8, 1.0])
        w = _sorted_weight_chunk(n, seed, 0, 1)[0]
        bound = mc_hoeffding_curve(n, grid, samples=1, seed=seed)
        for q, value in zip(grid, bound.mean):
            assert value == games.hoeffding_bound(VotingGame(w, q))
        with pytest.raises(BudgetExceededError):
            mc_coleman_curve(MC_KERNEL_BUDGET + 1, grid, samples=1, seed=seed)

    def test_hoeffding_at_many_players_matches_per_game_bounds(self, monkeypatch):
        # Chunks of 3 games keep the oracle's weight rows small; 5 samples
        # are two chunks, one per worker.  No cap on n x workers remains.
        monkeypatch.setattr(experiments, "MC_CHUNK", 3)
        n, seed, grid = 3000, 8, np.array([0.52, 0.7, 1.0])
        curve = mc_hoeffding_curve(n, grid, samples=5, seed=seed, workers=2)
        rows = [*_sorted_weight_chunk(n, seed, 0, 3), *_sorted_weight_chunk(n, seed, 1, 2)]
        for q, mean, stderr in zip(grid, curve.mean, curve.stderr):
            bounds = [games.hoeffding_bound(VotingGame(w, q)) for w in rows]
            assert mean == pytest.approx(np.mean(bounds), rel=1e-12)
            assert stderr == pytest.approx(np.std(bounds, ddof=1) / math.sqrt(5), rel=1e-6, abs=1e-15)


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

    def test_workers_do_not_share_scratch(self):
        # More workers than cores, switching threads often: workers that
        # shared scratch arrays would overwrite each other's tables and values.
        samples = 8 * MC_CHUNK + 3
        serial = mc_power_curve(6, samples=samples, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = mc_power_curve(6, samples=samples, seed=5, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert _digest(threaded) == _digest(serial)


class TestMonteCarloAtTies:
    """With one sample and that sample's own coalition sums as the grid,
    every quota is a tie for some coalition, and each estimator must give
    the exact profile and the Hoeffding bound of the game it drew, bit for
    bit."""

    # n = 8 and 16 are the last counted in uint8 and in uint16.
    @pytest.mark.parametrize("n,seed", [(6, 2), (6, 5), (8, 1), (10, 3), (16, 2)])
    def test_one_sample_equals_banzhaf(self, n, seed):
        w = _sorted_weight_chunk(n, seed, 0, 1)[0]
        sums = games._full_sums(w)
        grid = np.unique(sums[(sums > 0.5) & (sums <= 1.0)])
        beta = mc_power_curve(n, grid, samples=1, seed=seed)
        psi = mc_power_curve(n, grid, samples=1, seed=seed, statistic="psi")
        coleman = mc_coleman_curve(n, grid, samples=1, seed=seed)
        bound = mc_hoeffding_curve(n, grid, samples=1, seed=seed)
        # every quota up to n = 10; 512 of the 32768 at n = 16, ends included
        for g in np.unique(np.linspace(0, grid.size - 1, 512).astype(int)):
            game = VotingGame(w, grid[g])
            profile = banzhaf(game)
            assert np.array_equal([c.mean[g] for c in beta], np.sort(profile.beta)[::-1])
            assert np.array_equal([c.mean[g] for c in psi], np.sort(profile.psi)[::-1])
            assert coleman.mean[g] == profile.coleman
            assert bound.mean[g] == games.hoeffding_bound(game)

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
        bound = mc_hoeffding_curve(n, grid, samples=1, seed=seed, workers=workers)
        for g, q in enumerate(grid):
            game = VotingGame(w, q)
            profile = banzhaf(game)
            assert np.array_equal([c.mean[g] for c in beta], np.sort(profile.beta)[::-1])
            assert np.array_equal([c.mean[g] for c in psi], np.sort(profile.psi)[::-1])
            assert coleman.mean[g] == profile.coleman
            assert bound.mean[g] == games.hoeffding_bound(game)

    @pytest.mark.parametrize("n", [3, 6, 10, 12, 30])
    def test_one_sample_hoeffding_equals_the_bound(self, n):
        # With Sigma w^2 by np.dot and math.exp in hoeffding_bound, 3126 of
        # these 10000 cells differed in the last bits.
        grid = default_quota_grid()
        for seed in range(20):
            w = _sorted_weight_chunk(n, seed, 0, 1)[0]
            curve = mc_hoeffding_curve(n, grid, samples=1, seed=seed)
            bounds = [games.hoeffding_bound(VotingGame(w, q)) for q in grid]
            assert curve.mean.tolist() == bounds


def _digest(curves):
    h = hashlib.sha256()
    for c in curves:
        h.update(c.mean.tobytes())
        h.update(c.stderr.tobytes())
    return h.hexdigest()


def _mc_digest(n, samples, statistic, workers, quotas=None):
    if statistic == "coleman":
        curves = [mc_coleman_curve(n, quotas, samples=samples, seed=23, workers=workers)]
    elif statistic == "hoeffding":
        curves = [mc_hoeffding_curve(n, quotas, samples=samples, seed=23, workers=workers)]
    else:
        curves = mc_power_curve(
            n, quotas, samples=samples, seed=23, statistic=statistic, workers=workers
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


# The same digests on two grids that the default one does not reach: 1000
# levels, where a tile is a few samples wide and a block row is long, and
# levels 2^-20 apart, up to 16 in one binning cell.  Computed with the
# per-tile suffix sums that the counting core used to take.
QUOTA_GRIDS = {
    "wide": np.linspace(0.5005, 1, 1000),
    "dense": 0.6 + np.arange(50) * 2.0 ** -20,
}
GRID_DIGESTS = {
    (6, 4103, "beta", "wide"):
        "26815857db1a1bd48df94b1a0d04da51d11537214dd5bc41c62b9a5ca49005b0",
    (6, 4103, "psi", "wide"):
        "0c6232547d593bba8ec6531375516b1610b093edac8ec2702a6912e586de61e6",
    (6, 4103, "coleman", "wide"):
        "fcecc87618fbb112faa6f94e9c91b1eda18765a8472a72318fdb0a3dbbb28abb",
    (6, 4103, "beta", "dense"):
        "1e5bea7a18dc28805f2a941f7437b97ff89edf959c811b76020d8039b94b8a1d",
    (6, 4103, "psi", "dense"):
        "227c6c5ccfe19844580d0f404c9b537d5efaeaabc5647d6114b0749445e0f700",
    (6, 4103, "coleman", "dense"):
        "134de858b65169ceca36848d55314667734ac6926412ab87b2c77f0af16e26ec",
    (10, 300, "beta", "wide"):
        "d9af8217d0333f02ec95854922ba117de42b0dc54cad162484858aa6fa812b25",
    (10, 300, "psi", "wide"):
        "60a5e598950fa771c1718422d3a31965a12ba7b2c5d7a64daa0c04393939141a",
    (10, 300, "coleman", "wide"):
        "f593157744892c738e811d431d18a94ac807981e88e526cce06b6fbbf772d35e",
    (10, 300, "beta", "dense"):
        "1a3a5b6cc6bf0659bb46877418790e5fc8bd2caedb4325670ed1ea8efd343be8",
    (10, 300, "psi", "dense"):
        "8793d6eba8a15390e1e7410b66d21940c5c4405a25a4f15c9d948ea7739b9f53",
    (10, 300, "coleman", "dense"):
        "2f92bb40db7c2256bfc8e0dfb4e3f50db030cca38624f156de49c6077a97d25a",
    (14, 40, "beta", "wide"):
        "28f7a6704ac533d75eef6bb8b24e03733d4abddc049ad2e75f70f73b23afc48a",
    (14, 40, "psi", "wide"):
        "9ba063cf34b7cab75b125e32fd753576b40f0c53884c5d7c6401c136f53a7685",
    (14, 40, "coleman", "wide"):
        "90ef04500d11798e1c654abfba5ce2bd6319698c53b5fb5eab326a38b0870d4b",
    (14, 40, "beta", "dense"):
        "7d944eca4f9c6b14fcdb9a5b1268c73334eff7bc54ee09663385140b6177ff75",
    (14, 40, "psi", "dense"):
        "5f9dfbe1eaae4a11dff03ae962658266323992dbaa627e3957e20cb3796a0b5e",
    (14, 40, "coleman", "dense"):
        "790dc05d7d88775a882d2cc9eb4f8391c4d2a790802fc258a9356271b803afd5",
}


def _assembled_values(weights, grid, statistic):
    """The one reduction block of values that ``_power_values`` yields for
    at most a block of samples, assembled from its slabs, which must cover
    every quota level exactly once."""
    slabs = [(rows, values.copy()) for rows, values in
             experiments._power_values(weights, grid, statistic)]
    levels = np.arange(grid.size)
    assert np.array_equal(np.concatenate([levels[rows] for rows, _ in slabs]), levels)
    return np.concatenate([values for _, values in slabs])


def _spy_tile_widths(monkeypatch):
    """Record the sample count of every table the counting core sees."""
    widths = []
    count = games._level_histograms

    def spy(sums, levels, *args, **kwargs):
        widths.append(sums.shape[1])
        return count(sums, levels, *args, **kwargs)

    monkeypatch.setattr(games, "_level_histograms", spy)
    return widths


class TestTiledCounting:
    """Tiles set only how much of a block is counted at once: the sums,
    squares and ranges are taken over the same reduction blocks, so every
    output bit is pinned."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS), ids=str)
    def test_pinned_digests(self, key, workers):
        assert _mc_digest(*key, workers) == PINNED_DIGESTS[key]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("key", sorted(GRID_DIGESTS), ids=str)
    def test_grid_digests(self, key, workers):
        n, samples, statistic, grid = key
        digest = _mc_digest(n, samples, statistic, workers, QUOTA_GRIDS[grid])
        assert digest == GRID_DIGESTS[key]

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
        wide = _assembled_values(weights, grid, statistic)
        monkeypatch.setattr(experiments, "_TILE_CELL_BUDGET", 1)
        widths = _spy_tile_widths(monkeypatch)
        narrow = _assembled_values(weights, grid, statistic)
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


class TestPairwiseTree:
    """Per-leaf numpy sums merged up ``_pairwise_tree`` must have the bits
    of one numpy sum along the last axis, which is how every Monte Carlo
    block is reduced.  A numpy that split its pairwise sum another way
    fails here, before any digest does."""

    @staticmethod
    def _tree_sum(x, cap):
        def leaf(lo, hi):
            return x[..., lo:hi].sum(axis=-1)

        return experiments._pairwise_tree(0, x.shape[-1], cap, leaf, np.add)

    def test_every_length(self):
        # Magnitudes over 16 decades, so that summing in another order
        # rounds differently.
        rng = np.random.default_rng(31)
        data = rng.standard_normal(4200) * 10.0 ** rng.uniform(-8, 8, 4200)
        for length in range(1, data.size + 1):
            x = data[:length]
            for cap in (0, 500):
                assert self._tree_sum(x, cap).tobytes() == x.sum().tobytes(), (length, cap)

    @pytest.mark.parametrize("length", [4096, 1808, 129])
    def test_slab_layouts(self, length):
        # Member rows of a slab laid out (levels, 1 + n, samples), and of
        # the series-first slab that _power_values reduces, seen as
        # (levels, n, samples).
        rng = np.random.default_rng(length)
        slab = rng.random((7, 7, length)) * 10.0 ** rng.uniform(-8, 8, (7, 7, length))
        for values in (slab[:, 1:], slab[1:].transpose(1, 0, 2)):
            for cap in (0, 500, 2048):
                assert np.array_equal(self._tree_sum(values, cap), values.sum(axis=-1))


class TestMonteCarloMemory:
    """A worker holds one leaf of a reduction block: its integer counts,
    which fit in the bytes of one slab of float values, that slab, and one
    tile of counting scratch.  It holds no block of counts or values, nor
    a block's sum, key and histogram tables."""

    def test_power_curve_n10_two_workers(self):
        peak = _traced_peak(lambda: mc_power_curve(10, samples=8192, workers=2))
        assert peak <= 16 * 2 ** 20

    def test_power_curve_wide_grid_two_workers(self):
        # A block of counts on this grid is 86 MiB at n = 10; a leaf is
        # 128 samples.
        grid = np.linspace(0.5005, 1, 1000)
        peak = _traced_peak(lambda: mc_power_curve(10, grid, samples=8192, workers=2))
        assert peak <= 32 * 2 ** 20

    def test_power_curve_n6(self):
        peak = _traced_peak(lambda: mc_power_curve(6, samples=65536))
        assert peak <= 16 * 2 ** 20

    def test_coleman_curve_n12_two_workers(self):
        peak = _traced_peak(lambda: mc_coleman_curve(12, samples=8192, workers=2))
        assert peak <= 24 * 2 ** 20

    def test_no_scratch_outlives_the_call(self):
        # Each worker's scratch (megabytes of tables and value blocks) is
        # freed when the estimator returns.  A fresh process, warmed up by
        # one-sample calls that a cache kept between calls would outgrow,
        # prints the traced memory each call leaves behind.
        code = (
            "import tracemalloc\n"
            "from votepower.experiments import *\n"
            "calls = [(mc_coleman_curve, 9), (mc_power_curve, 6), (mc_hoeffding_curve, 12)]\n"
            "for workers in (1, 2):\n"
            "    for estimate, n in calls:\n"
            "        estimate(n, [0.6], samples=1, workers=workers)\n"
            "tracemalloc.start()\n"
            "for workers in (1, 2):\n"
            "    for estimate, n in calls:\n"
            "        before = tracemalloc.get_traced_memory()[0]\n"
            "        estimate(n, samples=8192, workers=workers)\n"
            "        print(tracemalloc.get_traced_memory()[0] - before)\n"
        )
        package_root = str(Path(experiments.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=package_root)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        left = [int(line) for line in proc.stdout.split()]
        assert len(left) == 6 and max(left) <= 2 ** 20, left


class TestRankOrder:
    @pytest.mark.parametrize("statistic", ["beta", "psi"])
    def test_ascending_chunk_is_sorted(self, statistic):
        # Ascending weights give ascending profiles, so the block is sorted.
        n, grid = 6, default_quota_grid()
        weights = np.ascontiguousarray(_sorted_weight_chunk(n, 9, 0, 50)[:, ::-1])
        values = _assembled_values(weights, grid, statistic)
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


# (count, sha256 of repr((masks, beta, hits)) of each class in catalog
# order) at budget 3 * MC_CHUNK + 5, which ends inside a fourth chunk, and
# seed 29, as computed while chunks still merged through a Counter of bytes.
PINNED_CATALOGS = {
    4: (14, "a8e3febd60df88e9c0a2edc2fea4ab79271c2f750b8ead2554aec75235d0d69c"),
    6: (518, "88827da728452e45f0e51b1154b9c171d1d440e0928538321423431d42759a5e"),
    7: (3114, "d59511dc13d9939a1ca9234dc1a603aa544429924d714e4654defe6881f1c272"),
}


def _run_pairs(runs, size):
    """``_family_runs``' (keys, hits) arrays as (key bytes, hits) pairs, each
    key cut to its ``size`` packed bytes."""
    keys, hits = runs
    return [(key.tobytes()[:size], int(h)) for key, h in zip(keys, hits)]


def _packbits_family_arrays(win):
    """``reference.packbits_family_runs`` as ``_family_runs``' arrays: keys
    zero-padded to whole uint64 words, one row each, and their hits."""
    pairs = reference.packbits_family_runs(win)
    width = -(-len(pairs[0][0]) // 8) * 8
    keys = np.frombuffer(b"".join(key.ljust(width, b"\0") for key, _ in pairs), dtype="<u8")
    return keys.reshape(len(pairs), -1), np.array([h for _, h in pairs], dtype=np.int64)


class TestDiscoverClasses:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_grouping_matches_packbits_oracle(self, n):
        rng = np.random.default_rng(n)
        # Few distinct columns, so runs of several games each.
        columns = rng.random((1 << n, 9)) < 0.5
        win = columns[:, rng.integers(0, 9, 300)]
        size = -(-(1 << n) // 8)
        assert sorted(_run_pairs(experiments._family_runs(win), size)) == sorted(
            reference.packbits_family_runs(win)
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_catalog_matches_packbits_oracle(self, n, monkeypatch):
        catalog = discover_classes(n, budget=3000, seed=n)
        monkeypatch.setattr(experiments, "_family_runs", _packbits_family_arrays)
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

    @pytest.mark.parametrize("n", sorted(PINNED_CATALOGS))
    def test_pinned_catalogs(self, n):
        catalog = discover_classes(n, budget=3 * MC_CHUNK + 5, seed=29)
        count, digest = PINNED_CATALOGS[n]
        h = hashlib.sha256()
        for cls in catalog.classes:
            h.update(repr((cls.winning_masks, cls.beta, cls.hits)).encode())
        assert (catalog.count, h.hexdigest()) == (count, digest)

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
        family = tuple(m for m in range(1 << n) if reference.is_winning(game, m))

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

    def test_window_wider_than_the_curve_is_rejected(self):
        quotas = np.linspace(0.51, 0.99, 20)
        values = np.sin(40 * quotas)
        assert count_extrema((quotas, values), smoothing_window=5)[0] == 5
        assert count_extrema((quotas, values), smoothing_window=20)[0] == 0
        with pytest.raises(InvalidArgumentsError, match="wider"):
            count_extrema((quotas, values), smoothing_window=25)

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

    def test_predict_takes_the_left_piece_at_a_knot(self):
        fit = experiments.SplineFit((0.75,), 1, ((0.0, 1.0), (1.0, 1.0)), 0.0)
        assert fit.predict([0.5, 0.75, 0.8]).tolist() == [0.5, 0.75, 1.8]
        assert fit.predict(np.array([[0.8]])).shape == (1, 1)

    @pytest.mark.parametrize("shape", [(1, 3, 10), (4, 6, 40), (3, 12, 200)])
    def test_least_squares_matches_lstsq(self, shape):
        rng = np.random.default_rng(sum(shape))
        designs = rng.standard_normal(shape)
        v = rng.standard_normal(shape[2])
        triangles, rms = experiments._least_squares(designs, v)
        for design, triangle, got in zip(designs, triangles, rms):
            coef, ssr, rank, _ = np.linalg.lstsq(design.T, v, rcond=None)
            assert rank == shape[1]
            assert experiments._back_substitute(triangle) == pytest.approx(coef, rel=1e-12)
            assert got == pytest.approx(math.sqrt(ssr[0] / shape[2]), rel=1e-12)

    def test_a_zero_pivot_gives_an_infinite_rms(self):
        rng = np.random.default_rng(5)
        designs = rng.standard_normal((2, 4, 30))
        designs[1, 2] = 0.0
        rms = experiments._least_squares(designs, rng.standard_normal(30))[1]
        assert math.isfinite(rms[0]) and rms[1] == math.inf

    def test_a_basis_that_underflows_is_refused(self):
        # (q - center)^2 is below the least subnormal on the whole grid
        q = np.linspace(1e-200, 2e-200, 20)
        with pytest.raises(InvalidArgumentsError, match="singular"):
            fit_spline(q, np.sin(q * 1e200), max_degree=2)

    def test_stacked_solve_equals_single_solves(self):
        # the 87 one-knot candidates of a degree-5 search on the default grid
        q = default_quota_grid()
        v = np.sin(9 * q) + 1e-3 * np.random.default_rng(1).standard_normal(q.size)
        center = 0.5 * (q[0] + q[-1])
        designs = np.stack(
            [experiments._hinge_design(q, center, 5, [knot]) for knot in q[6:-7]]
        )
        assert len(designs) == 87
        triangles, rms = experiments._least_squares(designs, v)
        for design, triangle, got in zip(designs, triangles, rms):
            one_triangle, one_rms = experiments._least_squares(design[None], v)
            assert np.array_equal(one_triangle[0], triangle)
            assert one_rms[0] == got

    def test_max_residual_is_the_exact_residual_of_the_pieces(self):
        curve = mc_power_curve(6, samples=8192, seed=1)[5]
        fit = fit_spline(curve.quotas, curve.mean, max_degree=5)
        worst = Fraction(0)
        for q, v in zip(curve.quotas.tolist(), curve.mean.tolist()):
            piece = fit.piece_coefficients[int(np.searchsorted(fit.interior_breakpoints, q))]
            exact = sum(Fraction(c) * Fraction(q) ** d for d, c in enumerate(piece))
            worst = max(worst, abs(exact - Fraction(v)))
        assert fit.max_residual == float(worst)

    def test_readme_curve_keeps_its_knots(self):
        # README's power-curve and spline-fit pair
        curve = mc_power_curve(6, samples=65536, seed=1)[1]
        assert curve.name == "beta_rank_2"
        fit = fit_spline(curve.quotas, curve.mean, max_degree=5)
        assert fit.interior_breakpoints == (0.64, 0.775, 0.8500000000000001)

    @pytest.mark.parametrize("penalty", [0.0, 1e300])
    def test_finite_penalty_is_accepted(self, penalty):
        q = np.linspace(0.51, 0.99, 97)
        v = np.where(q <= 0.75, q, 1.5 * q - 0.375)
        knots = fit_spline(q, v, max_degree=1, penalty=penalty).interior_breakpoints
        assert (0.75 in knots) if penalty == 0 else knots == ()

    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf, -1e-300])
    def test_penalty_must_be_finite_and_non_negative(self, penalty):
        q = np.linspace(0.51, 0.99, 20)
        with pytest.raises(InvalidArgumentsError, match="penalty"):
            fit_spline(q, 1.5 - q, max_degree=1, penalty=penalty)

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

    @pytest.mark.parametrize(
        "quotas, values", [([0.6, 0.7, 0.8], [1.0, 2.0]), ([], [])], ids=["unequal", "empty"]
    )
    def test_samples_must_pair_up(self, quotas, values):
        with pytest.raises(InvalidArgumentsError, match="equal-length"):
            fit_spline(quotas, values, max_degree=0)

    def test_grid_must_increase(self):
        q = np.linspace(0.51, 0.99, 20)
        q[[4, 5]] = q[[5, 4]]
        with pytest.raises(InvalidArgumentsError, match="increasing"):
            fit_spline(q, 1.5 - q, max_degree=1)

    @pytest.mark.parametrize("knot", [0.51, 0.99, 0.4, 1.2])
    def test_breakpoints_must_lie_inside_the_range(self, knot):
        q = np.linspace(0.51, 0.99, 20)
        with pytest.raises(InvalidArgumentsError, match="inside"):
            fit_spline(q, 1.5 - q, max_degree=1, breakpoints=[0.75, knot])

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
