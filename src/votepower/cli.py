"""Command-line interface.

One subcommand per task; results go to stdout or --output as CSV (default)
or JSON.  Floats are serialized with 17 significant digits so files
round-trip losslessly, and nothing time- or host-dependent is written, so
repeating a command reproduces the output byte for byte.

Exit codes: 0 success, 2 usage error, 3 numeric convergence failure,
4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import analytic, experiments, games, simplex, weightdist
from .errors import (
    BudgetExceededError,
    ConvergenceFailureError,
    InvalidArgumentsError,
    VotePowerError,
)
from .svgplot import emit_plot

_CURVE_HEADER = ("quota", "series-name", "mean", "standard-error", "samples")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _float_text(values: np.ndarray, fmt="%.17g".__mod__) -> list[str]:
    """``fmt`` of every value, by default ``format(v, ".17g")``; a run of
    neighbours with equal bits is formatted once.  Bits, not values, so
    -0.0 after 0.0 is not merged.  ``"%.17g" %`` gives the same text as
    ``format``, faster.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    text = np.array(list(map(fmt, values[starts].tolist())), dtype=object)
    return text[np.cumsum(starts) - 1].tolist()


def _column_text(column, start: int, stop: int):
    """CSV text of rows [start, stop) of one ``_write_table`` column."""
    if isinstance(column, list):
        return column[start:stop]
    if not isinstance(column, np.ndarray):
        return itertools.repeat(_fmt(column))
    part = column[start:stop]
    if part.dtype.kind == "f":
        return _float_text(part)
    return map(str, part.tolist())


# json.dumps writes non-finite floats as JavaScript names, finite ones as repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_column_text(column, start: int, stop: int):
    """``json.dumps`` of each of rows [start, stop) of one column."""
    if isinstance(column, list):
        part = column[start:stop]
        text = {value: json.dumps(value) for value in set(part)}
        return map(text.__getitem__, part)
    if not isinstance(column, np.ndarray):
        return itertools.repeat(json.dumps(column))
    part = column[start:stop]
    if part.dtype.kind != "f":
        return map(json.dumps, part.tolist())
    text = _float_text(part, float.__repr__)
    if not np.isfinite(part).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return text


@contextlib.contextmanager
def _output(args):
    """The open --output file, or whatever sys.stdout is at call time."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _write_json(args, payload):
    with _output(args) as out:
        out.write(json.dumps(payload, indent=2) + "\n")


_TABLE_BLOCK = 1 << 14  # rows formatted per write, which bounds the text held


def _write_table(args, header, columns):
    """Write a table given column by column.

    Each column is a numpy array, a list of strings, or a scalar that
    repeats on every row.  Text is made one column and one block of rows
    at a time and streamed.  JSON is the bytes of ``json.dumps(rows,
    indent=2)`` with one object per row, keys in header order, holding the
    columns' Python values.
    """
    rows = next((len(c) for c in columns if isinstance(c, (np.ndarray, list))), 0)
    if args.format == "json":
        keys = (json.dumps(h).replace("%", "%%") for h in header)
        template = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
        with _output(args) as out:
            out.write("[")
            for start in range(0, rows, _TABLE_BLOCK):
                texts = [_json_column_text(c, start, start + _TABLE_BLOCK) for c in columns]
                out.write("\n" if start == 0 else ",\n")
                out.write(",\n".join(map(template.__mod__, zip(*texts))))
            out.write("\n]\n" if rows else "]\n")
        return
    with _output(args) as out:
        out.write(",".join(header) + "\n")
        for start in range(0, rows, _TABLE_BLOCK):
            stop = start + _TABLE_BLOCK
            texts = [_column_text(c, start, stop) for c in columns]
            out.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_fraction(text: str) -> tuple[int, int]:
    try:
        frac = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"quota fraction {text!r} has a zero denominator") from None
    return frac.numerator, frac.denominator


def _weights_from_args(args) -> np.ndarray:
    if getattr(args, "weights_csv", None):
        values = np.loadtxt(args.weights_csv, delimiter=",", ndmin=1)
        return simplex.as_weight_vector(values, normalize=True)
    if getattr(args, "weights", None):
        return simplex.as_weight_vector(_parse_floats(args.weights), normalize=True)
    raise argparse.ArgumentTypeError("no weights given")


def _game_from_args(args) -> games.VotingGame:
    if getattr(args, "weights_int", None):
        if not getattr(args, "quota_frac", None):
            raise argparse.ArgumentTypeError("--weights-int requires --quota-frac")
        num, den = _parse_fraction(args.quota_frac)
        return games.VotingGame.from_integers(_parse_ints(args.weights_int), num, den)
    if args.quota is None:
        raise argparse.ArgumentTypeError("a quota is required")
    return games.VotingGame(_weights_from_args(args), args.quota)


def _quota_grid_from_args(args) -> np.ndarray:
    if getattr(args, "quotas", None):
        return experiments._validate_grid(_parse_floats(args.quotas))
    return experiments.default_quota_grid()


def _maybe_plot(args, series, caption):
    if getattr(args, "plot", None):
        emit_plot(series, args.plot, caption)


def _step_series(curve: games.StepCurve):
    """Staircase (x, y) arrays per series from a piecewise-constant curve."""
    bps = curve.breakpoints
    lefts = np.concatenate(([0.5], bps[:-1]))
    xs = np.column_stack([lefts, bps]).reshape(-1)
    values = np.atleast_2d(np.asarray(curve.values).T)
    out = []
    for p in range(values.shape[0]):
        ys = np.repeat(values[p], 2)
        name = (
            curve.statistic
            if values.shape[0] == 1
            else f"{curve.statistic}_player_{p + 1}"
        )
        out.append((name, xs, ys))
    return out


def _row_columns(rows):
    """A small table's rows as ``_write_table`` columns: strings stay a
    list, numbers become an array (every column holds one type)."""
    return [list(c) if isinstance(c[0], str) else np.array(c) for c in zip(*rows)]


def _quota_curve_columns(curves):
    """The _CURVE_HEADER columns of Monte Carlo curves, one after another."""
    return [
        np.concatenate([c.quotas for c in curves]),
        [c.name for c in curves for _ in range(c.quotas.size)],
        np.concatenate([c.mean for c in curves]),
        np.concatenate([c.stderr for c in curves]),
        np.concatenate([c.samples for c in curves]),
    ]


# --------------------------------------------------------------------------
# subcommands

def _cmd_sample_weights(args):
    draws = simplex.sample_uniform_simplex_batch(
        args.n, args.samples, simplex.RandomSeed(args.seed, args.stream)
    )
    header = tuple(f"w{i + 1}" for i in range(args.n))
    _write_table(args, header, list(draws.T))
    return 0


def _cmd_expected_weights(args):
    values = weightdist.expected_ordered_weights(args.n)
    _write_table(args, ("k", "expected"), [np.arange(1, args.n + 1), values])
    return 0


def _cmd_weight_density(args):
    if args.points < 1:
        raise InvalidArgumentsError("--points must be at least 1")
    lo, hi = weightdist.ordered_weight_support(args.n, args.k)
    xs = np.linspace(lo, hi, args.points)
    density = np.array(
        [weightdist.ordered_weight_density(args.n, args.k, x) for x in xs.tolist()]
    )
    _write_table(args, ("x", "density"), [xs, density])
    _maybe_plot(
        args,
        [(f"f_{args.n},{args.k}", xs, density)],
        f"ordered-weight density, n={args.n} k={args.k}",
    )
    return 0


def _cmd_moments(args):
    rows = []
    if args.m:
        exponents = _parse_ints(args.m)
        rows.append(("product_moment", weightdist.product_moment(args.n, exponents)))
    if args.power_sum is not None:
        rows.append(("power_sum_moment", weightdist.power_sum_moment(args.n, args.power_sum)))
    if args.sum_sq:
        mean, var = weightdist.sum_sq_stats(args.n)
        rows.append(("sum_sq_mean", mean))
        rows.append(("sum_sq_variance", var))
    if not rows:
        raise argparse.ArgumentTypeError("pick at least one of --m, --power-sum, --sum-sq")
    _write_table(args, ("quantity", "value"), _row_columns(rows))
    return 0


def _cmd_indices(args):
    game = _game_from_args(args)
    profile = games.banzhaf(game)
    idle = (np.flatnonzero(profile.psi == 0) + 1).tolist()
    printed = games.optimal_quota_diagnostic(game.weights, "printed")
    payload = {
        "n": game.n,
        "quota": game.quota,
        "psi": [float(x) for x in profile.psi],
        "beta": [float(x) for x in profile.beta],
        "coleman": profile.coleman,
        "winning_count": profile.winning_count,
        "member_counts": [int(x) for x in profile.member_counts],
        "dummies": idle,
        "hoeffding_bound": games.hoeffding_bound(game),
        "optimal_quota_sqrt": games.optimal_quota_diagnostic(game.weights, "sqrt"),
        "optimal_quota_printed": printed,
        "optimal_quota_printed_exceeds_one": printed > 1.0,
    }
    if args.format == "csv":
        _write_table(
            args,
            ("player", "psi", "beta", "member-count"),
            [np.arange(1, game.n + 1), profile.psi, profile.beta, profile.member_counts],
        )
    else:
        _write_json(args, payload)
    return 0


def _cmd_fixed_curve(args):
    weights = _weights_from_args(args)
    curve = games.fixed_weight_quota_curve(weights, args.functional)
    quotas, names = curve.breakpoints, curve.statistic
    if curve.values.ndim == 2:  # beta and psi: one row per (breakpoint, player)
        players = curve.values.shape[1]
        quotas = np.repeat(quotas, players)
        names = [f"{curve.statistic}_player_{p + 1}" for p in range(players)]
        names *= curve.breakpoints.size
    _write_table(args, _CURVE_HEADER, [quotas, names, curve.values.reshape(-1), 0.0, 0])
    _maybe_plot(
        args,
        _step_series(curve),
        f"fixed-weight {args.functional} vs quota, n={weights.size}",
    )
    return 0


def _cmd_power_curve(args):
    grid = _quota_grid_from_args(args)
    curves = experiments.mc_power_curve(
        args.n,
        grid,
        samples=args.samples,
        seed=simplex.RandomSeed(args.seed, args.stream),
        statistic=args.statistic,
        workers=args.workers,
    )
    _write_table(args, _CURVE_HEADER, _quota_curve_columns(curves))
    _maybe_plot(
        args,
        [(c.name, c.quotas, c.mean) for c in curves],
        f"mean ordered {args.statistic}, n={args.n} seed={args.seed} samples={args.samples}",
    )
    return 0


def _cmd_coleman_curve(args):
    if args.quota is not None:
        grid = experiments._validate_grid([args.quota])
    else:
        grid = _quota_grid_from_args(args)
    if args.method == "inversion":
        values = np.array([analytic.expected_coleman(args.n, q) for q in grid.tolist()])
        columns = [grid, "coleman", values, 0.0, 0]
        curves = [("coleman_inversion", grid, values)]
    elif args.method == "normal":
        values = np.array([analytic.expected_coleman_normal(args.n, q) for q in grid.tolist()])
        columns = [grid, "coleman_normal", values, 0.0, 0]
        curves = [("coleman_normal", grid, values)]
    elif args.method == "mc":
        curve = experiments.mc_coleman_curve(
            args.n,
            grid,
            samples=args.samples,
            seed=simplex.RandomSeed(args.seed, args.stream),
            workers=args.workers,
        )
        columns = _quota_curve_columns([curve])
        curves = [("coleman_mc", curve.quotas, curve.mean)]
        values = curve.mean
    elif args.method == "hoeffding-bound":
        curve = experiments.mc_hoeffding_curve(
            args.n,
            grid,
            samples=args.samples,
            seed=simplex.RandomSeed(args.seed, args.stream),
            workers=args.workers,
        )
        columns = _quota_curve_columns([curve])
        curves = [("hoeffding_bound", curve.quotas, curve.mean)]
        values = curve.mean
    else:
        raise argparse.ArgumentTypeError(f"unknown method {args.method!r}")
    if args.quota is not None and not args.output and args.format == "csv":
        sys.stdout.write(_fmt(float(values[0])) + "\n")
    else:
        _write_table(args, _CURVE_HEADER, columns)
    caption = f"expected Coleman index, n={args.n} method={args.method}"
    if args.method in ("mc", "hoeffding-bound"):
        caption += f" seed={args.seed} samples={args.samples}"
    _maybe_plot(args, curves, caption)
    return 0


def _cmd_classes(args):
    catalog = experiments.discover_classes(
        args.n, budget=args.budget, seed=simplex.RandomSeed(args.seed, args.stream)
    )
    rows = [
        (idx, ";".join(_fmt(b) for b in cls.beta), cls.hits)
        for idx, cls in enumerate(catalog.classes)
    ]
    _write_table(args, ("class-id", "beta-vector", "hit-count"), _row_columns(rows))
    return 0


def _cmd_spline_fit(args):
    series, quotas, values = _read_series_csv(args.input, args.series)
    knots = "auto" if args.breakpoints == "auto" else _parse_floats(args.breakpoints)
    fit = experiments.fit_spline(
        quotas,
        values,
        max_degree=args.max_degree,
        breakpoints=knots,
        penalty=args.penalty,
    )
    payload = {
        "series": series,
        "degree": fit.degree,
        "interior_breakpoints": list(fit.interior_breakpoints),
        "piece_coefficients": [list(p) for p in fit.piece_coefficients],
        "max_residual": fit.max_residual,
    }
    _write_json(args, payload)
    return 0


def _read_series_csv(path: str, series: str | None):
    """(series, quotas, values) of one series of a curve CSV, by default
    the first."""
    quotas, values = [], []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        try:
            qcol, scol, mcol = (
                header.index("quota"),
                header.index("series-name"),
                header.index("mean"),
            )
        except ValueError as exc:
            raise VotePowerError(f"{path} is not a curve CSV") from exc
        for line in handle:
            parts = line.strip().split(",")
            if len(parts) <= max(qcol, scol, mcol):
                continue
            if series is None:
                series = parts[scol]  # default: whichever series comes first
            if parts[scol] == series:
                quotas.append(float(parts[qcol]))
                values.append(float(parts[mcol]))
    if not quotas:
        raise VotePowerError(f"series {series!r} not found in {path}")
    order = np.argsort(quotas)
    return series, np.array(quotas)[order], np.array(values)[order]


def _cmd_analytic(args):
    what = args.what
    players = {"beta-n2": 2, "cf": None}.get(what, 3)  # the closed forms' player count
    if players and args.n not in (None, players):
        raise InvalidArgumentsError(f"--what {what} has {players} players, not --n {args.n}")
    if what == "beta-n2":
        grid = _quota_grid_from_args(args)
        rows = []
        for q in grid:
            b1, b2 = analytic.expected_beta_n2(float(q))
            rows.append((float(q), "beta_rank_1", b1, 0.0, 0))
            rows.append((float(q), "beta_rank_2", b2, 0.0, 0))
        _write_table(args, _CURVE_HEADER, _row_columns(rows))
    elif what == "beta-n3":
        grid = _quota_grid_from_args(args)
        rows = []
        for q in grid:
            triple = analytic.expected_beta_n3(float(q))
            for k, value in enumerate(triple, start=1):
                rows.append((float(q), f"beta_rank_{k}", value, 0.0, 0))
        _write_table(args, _CURVE_HEADER, _row_columns(rows))
    elif what == "class-probs":
        grid = _quota_grid_from_args(args)
        table = analytic.class_table_n3()
        rows = []
        for q in grid:
            for label, prob in table.probabilities(float(q)).items():
                rows.append((float(q), f"class_{label}", prob, 0.0, 0))
        _write_table(args, _CURVE_HEADER, _row_columns(rows))
    elif what == "extrema":
        rows = [
            (e.rank, _fmt(float(e.location)), str(e.location), e.kind)
            for e in analytic.extrema_n3()
        ]
        _write_table(args, ("rank", "quota", "quota-exact", "kind"), _row_columns(rows))
    elif what == "cf":
        ts = np.array(_parse_floats(args.t)) if args.t else np.linspace(0.0, 20.0, 81)
        n = 3 if args.n is None else args.n
        _write_table(args, ("t", "value"), [ts, analytic.coalition_weight_cf(n, ts)])
    else:
        raise argparse.ArgumentTypeError(f"unknown analytic target {what!r}")
    return 0


# --------------------------------------------------------------------------
# parser

def _add_output_args(sub):
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_seed_args(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--stream", type=int, default=0)


def _add_weight_args(sub, exact: bool = False):
    sub.add_argument("--weights", help="comma-separated weights (normalized by their sum)")
    sub.add_argument("--weights-csv", help="CSV file with one weight per value")
    if exact:
        sub.add_argument("--weights-int", help="comma-separated integer weights (exact mode)")
        sub.add_argument("--quota-frac", help="quota as a fraction of total weight, e.g. 11/20")


def build_parser(
    config: dict | None = None, command: str | None = None
) -> argparse.ArgumentParser:
    """The votepower parser; a config (key -> value text) sets the defaults
    of the named command's options."""
    parser = argparse.ArgumentParser(
        prog="votepower",
        description="Voting-power computations for weighted voting games "
        "with fixed or simplex-uniform random weights.",
    )
    parser.add_argument("--config", help="key=value file overriding option defaults")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("sample-weights", help="draw uniform weight vectors")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=int, default=10)
    _add_seed_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_sample_weights)

    sub = commands.add_parser("expected-weights", help="expected ordered weights")
    sub.add_argument("--n", type=int, required=True)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_expected_weights)

    sub = commands.add_parser("weight-density", help="density of the k-th largest weight")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--points", type=int, default=512)
    sub.add_argument("--plot", help="also write an SVG chart here")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_weight_density)

    sub = commands.add_parser("moments", help="weight product and power-sum moments")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", help="comma-separated exponent vector")
    sub.add_argument("--power-sum", type=int, help="power-sum moment order m")
    sub.add_argument("--sum-sq", action="store_true", help="mean and variance of sum of squares")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_moments)

    sub = commands.add_parser("indices", help="exact power indices of one game")
    _add_weight_args(sub, exact=True)
    sub.add_argument("--quota", type=float)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_indices, format="json")

    sub = commands.add_parser("fixed-curve", help="exact quota step-curve for fixed weights")
    _add_weight_args(sub)
    sub.add_argument("--functional", choices=("beta", "psi", "coleman"), default="beta")
    sub.add_argument("--plot")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_fixed_curve)

    sub = commands.add_parser("power-curve", help="Monte Carlo mean ordered indices vs quota")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=int, default=65536)
    sub.add_argument("--statistic", choices=("beta", "psi"), default="beta")
    sub.add_argument("--quotas", help="comma-separated quota grid")
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--plot")
    _add_seed_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_power_curve)

    sub = commands.add_parser("coleman-curve", help="expected Coleman index vs quota")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--method",
        choices=("inversion", "normal", "mc", "hoeffding-bound"),
        default="inversion",
        help="inversion: the exact closed-form mixture over coalition sizes, "
        "n <= 1000 (the name is kept for compatibility); normal: the "
        "central-limit approximation; mc: Monte Carlo; hoeffding-bound: "
        "Monte Carlo mean of the Hoeffding bound",
    )
    sub.add_argument("--quota", type=float, help="single quota; prints one value")
    sub.add_argument("--quotas", help="comma-separated quota grid")
    sub.add_argument("--samples", type=int, default=65536)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--plot")
    _add_seed_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_coleman_curve)

    sub = commands.add_parser("classes", help="discover game classes by sampling")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--budget", type=int, default=10 ** 6)
    _add_seed_args(sub)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_classes)

    sub = commands.add_parser("spline-fit", help="piecewise-polynomial fit of a curve CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--series", help="series-name to fit (default: first)")
    sub.add_argument("--max-degree", type=int, required=True)
    sub.add_argument("--breakpoints", default="auto")
    sub.add_argument("--penalty", type=float, default=1e-8)
    sub.add_argument("--output")
    sub.set_defaults(func=_cmd_spline_fit, format="json")

    sub = commands.add_parser("analytic", help="closed-form small-n curves and extrema")
    sub.add_argument(
        "--what",
        choices=("beta-n2", "beta-n3", "class-probs", "extrema", "cf"),
        required=True,
    )
    sub.add_argument("--n", type=int, help="2 for beta-n2, 3 for the rest; any for cf (default 3)")
    sub.add_argument("--quotas", help="comma-separated quota grid")
    sub.add_argument("--t", help="comma-separated CF arguments")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_analytic)

    if config and command in commands.choices:
        _apply_config(commands.choices[command], command, config)
    return parser


_FLAG_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _apply_config(sub: argparse.ArgumentParser, command: str, config: dict) -> None:
    """Make the config values the command's option defaults.  A key must
    name an option of the command, a flag takes true/false/1/0/yes/no, and
    a value must be one of the option's choices; other values are kept as
    text, which argparse parses with the option's own type."""
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise argparse.ArgumentTypeError(f"config key {key!r} is not an option of {command}")
        if isinstance(action, argparse._StoreTrueAction):
            flag = _FLAG_VALUES.get(value.lower())
            if flag is None:
                raise argparse.ArgumentTypeError(
                    f"config key {key!r} takes true/false/1/0/yes/no, got {value!r}"
                )
            value = flag
        elif action.choices is not None and value not in action.choices:
            raise argparse.ArgumentTypeError(
                f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}"
            )
        defaults[action.dest] = value
    sub.set_defaults(**defaults)


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:
            try:
                config = _load_config(args.config)
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            args = build_parser(config, args.command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if "workers" in args and args.workers is None:
            args.workers = int(os.environ.get("VOTEPOWER_WORKERS", "1"))
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except ConvergenceFailureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (VotePowerError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
