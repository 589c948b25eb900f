"""The benchmark's workloads: fixed lists of ``votepower`` CLI invocations.

Every input comes from the benchmark seed.  A workload is a list of
``Command``s; each names the CLI arguments, the output check that
``checks.py`` applies to it, and the parameters that check needs.  The
same list drives the untraced subprocess passes (``run.py``) and the
traced in-process replay (``layers.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WHY = {
    "readme-session": "the 12 README command-line examples in order: "
    "start-up bound, small-n Monte Carlo, weightdist and svgplot",
    "random-games": "Monte Carlo curves at n=10-12 on 2 workers, CF inversion "
    "at n=12 and 30, class discovery at n=6: the random-weight kernels",
    "exact-games": "fixed games: n=38 float and integer meet-in-the-middle "
    "counts and an n=16 quota curve written as 31 MB of CSV",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation.

    ``argv`` is what follows ``python -m votepower.cli``; it runs in the
    pass's work directory, so relative paths land there.  ``outputs``
    are the files it writes there besides stdout.
    """

    case: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()


def seed_stream(workload: str, seed: int):
    """A reproducible stream of CLI seeds derived from the benchmark seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 31)


def _readme_session(seed: int) -> list[Command]:
    s = seed_stream("readme-session", seed)
    power_seed, coleman_seed, classes_seed = next(s), next(s), next(s)
    return [
        Command("expected-weights-n6", ("expected-weights", "--n", "6"),
                "expected_weights", {"n": 6}),
        Command("density-n4-k2",
                ("weight-density", "--n", "4", "--k", "2", "--plot", "density.svg"),
                "density", {"n": 4, "k": 2, "points": 512, "plot": "density.svg"},
                ("density.svg",)),
        Command("moments-n4", ("moments", "--n", "4", "--m", "2,1,0,0", "--sum-sq"),
                "moments", {"n": 4, "m": (2, 1, 0, 0)}),
        Command("indices-n3", ("indices", "--weights", "0.5,0.3,0.2", "--quota", "0.55"),
                "indices_small", {"weights": (0.5, 0.3, 0.2), "quota": 0.55}),
        Command("indices-int-n3",
                ("indices", "--weights-int", "5,3,2", "--quota-frac", "11/20"),
                "indices_small", {"int_weights": (5, 3, 2), "quota_frac": (11, 20)}),
        Command("fixed-curve-n3",
                ("fixed-curve", "--weights", "0.5,0.3,0.2", "--functional", "beta"),
                "fixed_curve", {"weights": (0.5, 0.3, 0.2), "sampled": None}),
        Command("power-n6",
                ("power-curve", "--n", "6", "--samples", "65536", "--seed",
                 str(power_seed), "--output", "curve.csv"),
                "power_curve",
                {"n": 6, "samples": 65536, "seed": power_seed, "workers": 1,
                 "output": "curve.csv"},
                ("curve.csv",)),
        Command("coleman-q1-n6",
                ("coleman-curve", "--n", "6", "--method", "inversion", "--quota", "1.0"),
                "coleman_single", {"n": 6, "quota": 1.0}),
        Command("coleman-mc-n9",
                ("coleman-curve", "--n", "9", "--method", "mc", "--samples", "65536",
                 "--seed", str(coleman_seed), "--plot", "c.svg"),
                "coleman_mc",
                {"n": 9, "samples": 65536, "seed": coleman_seed, "workers": 1,
                 "plot": "c.svg"},
                ("c.svg",)),
        Command("classes-n4",
                ("classes", "--n", "4", "--budget", "1000000", "--seed", str(classes_seed)),
                "classes", {"n": 4, "budget": 1000000, "seed": classes_seed}),
        Command("spline-n6",
                ("spline-fit", "--input", "curve.csv", "--series", "beta_rank_2",
                 "--max-degree", "5"),
                "spline", {"input": "curve.csv", "series": "beta_rank_2", "max_degree": 5}),
        Command("extrema-n3", ("analytic", "--what", "extrema"), "extrema_n3"),
    ]


def _random_games(seed: int) -> list[Command]:
    s = seed_stream("random-games", seed)
    power_seed, coleman_seed, hoeffding_seed, classes_seed = next(s), next(s), next(s), next(s)
    return [
        Command("power-n10-w2",
                ("power-curve", "--n", "10", "--samples", "8192", "--workers", "2",
                 "--seed", str(power_seed)),
                "power_curve",
                {"n": 10, "samples": 8192, "seed": power_seed, "workers": 2}),
        Command("coleman-mc-n12-w2",
                ("coleman-curve", "--n", "12", "--method", "mc", "--samples", "8192",
                 "--workers", "2", "--seed", str(coleman_seed)),
                "coleman_mc",
                {"n": 12, "samples": 8192, "seed": coleman_seed, "workers": 2}),
        Command("coleman-inv-n12", ("coleman-curve", "--n", "12", "--method", "inversion"),
                "coleman_inversion", {"n": 12}),
        Command("coleman-inv-n30", ("coleman-curve", "--n", "30", "--method", "inversion"),
                "coleman_inversion", {"n": 30}),
        Command("hoeffding-n12",
                ("coleman-curve", "--n", "12", "--method", "hoeffding-bound",
                 "--samples", "65536", "--seed", str(hoeffding_seed)),
                "hoeffding", {"n": 12, "samples": 65536, "seed": hoeffding_seed, "workers": 1}),
        Command("classes-n6",
                ("classes", "--n", "6", "--budget", "1048576", "--seed", str(classes_seed)),
                "classes", {"n": 6, "budget": 1048576, "seed": classes_seed}),
    ]


def _exact_games(seed: int) -> list[Command]:
    rng = random.Random(f"exact-games:{seed}")
    # 1 - random() lies in (0, 1], so no weight is zero.
    float38 = [1.0 - rng.random() for _ in range(38)]
    int38 = [rng.randrange(1, 10 ** 6) for _ in range(38)]
    float16 = [1.0 - rng.random() for _ in range(16)]
    sampled = sorted(rng.random() for _ in range(8))
    return [
        Command("indices-n38-float",
                ("indices", "--weights", ",".join(repr(w) for w in float38),
                 "--quota", "0.6"),
                "indices_large", {"weights": tuple(float38), "quota": 0.6}),
        Command("indices-n38-int",
                ("indices", "--weights-int", ",".join(str(w) for w in int38),
                 "--quota-frac", "3/5"),
                "indices_large", {"int_weights": tuple(int38), "quota_frac": (3, 5)}),
        Command("fixed-curve-n16",
                ("fixed-curve", "--weights", ",".join(repr(w) for w in float16),
                 "--functional", "beta", "--output", "fixed16.csv"),
                "fixed_curve",
                {"weights": tuple(float16), "sampled": tuple(sampled),
                 "output": "fixed16.csv"},
                ("fixed16.csv",)),
    ]


_COMMAND_LISTS = {
    "readme-session": _readme_session,
    "random-games": _random_games,
    "exact-games": _exact_games,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for ``seed``; same seed, same list."""
    return _COMMAND_LISTS[workload](seed)
