"""The CLI's subcommands and the writers of their output.

``cli`` parses the command line and imports this module only once the
arguments are valid.  Each subcommand is one ``_cmd_*`` handler, found by
name in ``HANDLERS``; it imports the submodules it calls, and a run loads
no others.  This module loads no numpy: the closed forms (expected
weights, densities, moments, the exact and normal Coleman curves and the
small-n tables) compute and write Python numbers and never import it.

Results go to stdout or --output as CSV (default) or JSON.  Floats are
serialized with 17 significant digits so files round-trip losslessly, and
nothing time- or host-dependent is written, so repeating a command
reproduces the output byte for byte.

Every table takes one path: a command gives ``_write_table`` its columns,
and one block loop streams them as CSV or JSON.  The curve commands share
the five ``_CURVE_HEADER`` columns, built by ``_curve_columns`` for exact
curves (quota-major, one row per quota and series) and by
``_quota_curve_columns`` for Monte Carlo curves (one series after another).
A CSV float is exactly ``"%.17g" % v``: ``_fmt`` writes a list's, and for
a numpy column ``floattext`` makes them a block at a time; JSON floats
keep ``repr``, as ``json.dumps`` writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from fractions import Fraction

from .errors import InvalidArgumentsError, VotePowerError

_CURVE_HEADER = ("quota", "series-name", "mean", "standard-error", "samples")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _column_text(column, start: int, stop: int, json_text: bool = False):
    """Text of rows [start, stop) of one ``_write_table`` column: CSV text,
    or with ``json_text`` the ``json.dumps`` of each value."""
    if isinstance(column, (str, int, float)):
        return itertools.repeat(json.dumps(column) if json_text else _fmt(column))
    part = column[start:stop]
    if isinstance(column, list):
        if not isinstance(column[0], str):
            return map(json.dumps if json_text else _fmt, part)
        if not json_text:
            return part
        text = {value: json.dumps(value) for value in set(part)}
        return map(text.__getitem__, part)
    if part.dtype.kind != "f":
        return map(json.dumps if json_text else str, part.tolist())
    from .floattext import float_text  # numpy's kernel loads with the first float array

    return float_text(part, json_text)


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

    Each column is a numpy array, a list of strings, a list of Python
    floats or ints, or a scalar (string or number) that repeats on every
    row.  Text is made one column and one block of rows at a time and
    streamed.  JSON is the bytes of ``json.dumps(rows, indent=2)`` with
    one object per row, keys in header order, holding the columns' Python
    values.  The two formats differ only in the head, the
    row formatter, the separator between rows and the tail.
    """
    rows = next((len(c) for c in columns if not isinstance(c, (str, int, float))), 0)
    json_text = args.format == "json"
    if json_text:
        keys = (json.dumps(h).replace("%", "%%") for h in header)
        row = ("  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }").__mod__
        head, separator, tail = "[", ",\n", "\n]\n" if rows else "]\n"
    else:
        row = ",".join
        head, separator, tail = ",".join(header), "\n", "\n"
    with _output(args) as out:
        out.write(head)
        for start in range(0, rows, _TABLE_BLOCK):
            texts = [_column_text(c, start, start + _TABLE_BLOCK, json_text) for c in columns]
            out.write(("\n" if start == 0 else separator) + separator.join(map(row, zip(*texts))))
        out.write(tail)


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
    from . import simplex

    if args.weights_csv:
        import numpy as np

        values = np.loadtxt(args.weights_csv, delimiter=",", ndmin=1)
        return simplex.as_weight_vector(values, normalize=True)
    if args.weights:
        return simplex.as_weight_vector(_parse_floats(args.weights), normalize=True)
    raise argparse.ArgumentTypeError("no weights given")


def _game_from_args(args) -> games.VotingGame:
    from . import games

    if args.weights_int:
        if not args.quota_frac:
            raise argparse.ArgumentTypeError("--weights-int requires --quota-frac")
        num, den = _parse_fraction(args.quota_frac)
        return games.VotingGame.from_integers(_parse_ints(args.weights_int), num, den)
    if args.quota is None:
        raise argparse.ArgumentTypeError("a quota is required")
    return games.VotingGame(_weights_from_args(args), args.quota)


def _quota_grid_from_args(args) -> list[float]:
    from . import simplex

    if args.quotas is not None:  # an empty --quotas= is refused, not read as absent
        return simplex._quota_values(_parse_floats(args.quotas))
    return simplex._default_quotas()


def _maybe_plot(args, series, caption):
    if args.plot:
        from . import cli  # emit_plot is looked up where cli binds it, at call time

        cli.emit_plot(series, args.plot, caption)


def _seed(args) -> simplex.RandomSeed:
    from . import simplex

    return simplex.RandomSeed(args.seed, args.stream)


def _step_series(curve: games.StepCurve, names):
    """Staircase (name, x, y) arrays, one per series name, from a
    piecewise-constant curve."""
    import numpy as np

    bps = curve.breakpoints
    lefts = np.concatenate(([0.5], bps[:-1]))
    xs = np.column_stack([lefts, bps]).reshape(-1)
    values = np.atleast_2d(np.asarray(curve.values).T)
    return [(name, xs, np.repeat(ys, 2)) for name, ys in zip(names, values)]


def _row_columns(rows):
    """A small table's rows as ``_write_table`` columns, one list each
    (every column holds one type)."""
    return [list(c) for c in zip(*rows)]


def _curve_columns(quotas, names, values):
    """The _CURVE_HEADER columns of an exact curve, quota by quota:
    ``values`` holds, flat, one row per quota with one value per series
    name.  ``quotas`` and ``values`` are both lists or both float64
    arrays, and every row has standard error 0 and 0 samples."""
    if isinstance(quotas, list):
        quota_column = [q for q in quotas for _ in names]
    else:
        quota_column = quotas.repeat(len(names))
    return [quota_column, list(names) * len(quotas), values, 0.0, 0]


def _quota_curve_columns(curves):
    """The _CURVE_HEADER columns of Monte Carlo curves, one after another."""
    import numpy as np

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
    from . import simplex

    draws = simplex.sample_uniform_simplex_batch(args.n, args.samples, _seed(args))
    header = tuple(f"w{i + 1}" for i in range(args.n))
    _write_table(args, header, list(draws.T))
    return 0


def _cmd_expected_weights(args):
    from . import weightdist

    values = weightdist._expected_weight_floats(args.n)
    _write_table(args, ("k", "expected"), [list(range(1, args.n + 1)), values])
    return 0


def _cmd_weight_density(args):
    from . import simplex, weightdist

    points = simplex.as_count(args.points, "--points")
    lo, hi = weightdist.ordered_weight_support(args.n, args.k)
    xs = simplex._linspace(lo, hi, points)
    density = [weightdist.ordered_weight_density(args.n, args.k, x) for x in xs]
    _write_table(args, ("x", "density"), [xs, density])
    _maybe_plot(
        args,
        [(f"f_{args.n},{args.k}", xs, density)],
        f"ordered-weight density, n={args.n} k={args.k}",
    )
    return 0


def _cmd_moments(args):
    from . import weightdist

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
    import numpy as np

    from . import games

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
    from . import games

    weights = _weights_from_args(args)
    curve = games.fixed_weight_quota_curve(weights, args.functional)
    names = [curve.statistic]
    if curve.values.ndim == 2:  # beta and psi: one series per player
        names = [f"{curve.statistic}_player_{p + 1}" for p in range(curve.values.shape[1])]
    columns = _curve_columns(curve.breakpoints, names, curve.values.reshape(-1))
    _write_table(args, _CURVE_HEADER, columns)
    _maybe_plot(
        args,
        _step_series(curve, names),
        f"fixed-weight {args.functional} vs quota, n={weights.size}",
    )
    return 0


def _cmd_power_curve(args):
    from . import experiments

    grid = _quota_grid_from_args(args)
    curves = experiments.mc_power_curve(
        args.n,
        grid,
        samples=args.samples,
        seed=_seed(args),
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
    from . import analytic, simplex

    if args.quota is not None:
        grid = simplex._quota_values([args.quota])
    else:
        grid = _quota_grid_from_args(args)
    caption = f"expected Coleman index, n={args.n} method={args.method}"
    if args.method in ("inversion", "normal"):  # closed forms
        exact = args.method == "inversion"
        formula = analytic.expected_coleman if exact else analytic.expected_coleman_normal
        values = [formula(args.n, q) for q in grid]
        columns = _curve_columns(grid, ["coleman" if exact else "coleman_normal"], values)
        label = f"coleman_{args.method}"
    else:  # Monte Carlo estimators
        from . import experiments

        mc = args.method == "mc"
        estimator = experiments.mc_coleman_curve if mc else experiments.mc_hoeffding_curve
        curve = estimator(
            args.n, grid, samples=args.samples, seed=_seed(args), workers=args.workers
        )
        values, columns = curve.mean, _quota_curve_columns([curve])
        label = "coleman_mc" if mc else "hoeffding_bound"
        caption += f" seed={args.seed} samples={args.samples}"
    if args.quota is not None and not args.output and args.format == "csv":
        sys.stdout.write(_fmt(float(values[0])) + "\n")
    else:
        _write_table(args, _CURVE_HEADER, columns)
    _maybe_plot(args, [(label, grid, values)], caption)
    return 0


def _cmd_classes(args):
    from . import experiments

    catalog = experiments.discover_classes(args.n, budget=args.budget, seed=_seed(args))
    rows = [
        (idx, ";".join(_fmt(b) for b in cls.beta), cls.hits)
        for idx, cls in enumerate(catalog.classes)
    ]
    _write_table(args, ("class-id", "beta-vector", "hit-count"), _row_columns(rows))
    return 0


def _cmd_spline_fit(args):
    from . import experiments

    series, quotas, values = _read_series(args.input, args.series)
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


_SERIES_KEYS = ("series-name", "quota", "mean")


def _read_series(path: str, series: str | None):
    """(series, quotas, values) of one series of a curve table, by default
    the first: a curve CSV, or the JSON row list ``--format json`` writes."""
    import numpy as np

    quotas, values = [], []
    with open(path, "r", encoding="utf-8") as handle:
        json_rows = handle.read(1) == "["
        handle.seek(0)
        rows = _json_series_rows(handle, path) if json_rows else _csv_series_rows(handle, path)
        for name, quota, mean in rows:
            if series is None:
                series = name  # default: whichever series comes first
            if name == series:
                quotas.append(float(quota))
                values.append(float(mean))
    if not quotas:
        raise VotePowerError(f"series {series!r} not found in {path}")
    order = np.argsort(quotas)
    return series, np.array(quotas)[order], np.array(values)[order]


def _csv_series_rows(handle, path: str):
    """The _SERIES_KEYS fields of each row of a curve CSV, as text."""
    header = handle.readline().strip().split(",")
    try:
        columns = [header.index(key) for key in _SERIES_KEYS]
    except ValueError as exc:
        raise VotePowerError(f"{path} is not a curve CSV") from exc
    for line in handle:
        parts = line.strip().split(",")
        if len(parts) > max(columns):
            yield [parts[c] for c in columns]


def _json_series_rows(handle, path: str):
    """The _SERIES_KEYS fields of each row of a curve's JSON row list."""
    try:
        return [[row[key] for key in _SERIES_KEYS] for row in json.load(handle)]
    except (KeyError, TypeError, ValueError) as exc:
        raise VotePowerError(f"{path} is not a curve JSON row list") from exc


def _cmd_analytic(args):
    from . import analytic

    what = args.what
    players = {"beta-n2": 2, "cf": None}.get(what, 3)  # the closed forms' player count
    if players and args.n not in (None, players):
        raise InvalidArgumentsError(f"--what {what} has {players} players, not --n {args.n}")
    if what == "extrema":
        rows = [
            (e.rank, _fmt(float(e.location)), str(e.location), e.kind)
            for e in analytic.extrema_n3()
        ]
        _write_table(args, ("rank", "quota", "quota-exact", "kind"), _row_columns(rows))
    elif what == "cf":
        import numpy as np

        ts = np.array(_parse_floats(args.t)) if args.t else np.linspace(0.0, 20.0, 81)
        n = 3 if args.n is None else args.n
        _write_table(args, ("t", "value"), [ts, analytic.coalition_weight_cf(n, ts)])
    else:
        grid = _quota_grid_from_args(args)
        if what == "class-probs":
            table = analytic.class_table_n3()
            names = [f"class_{c.label}" for c in table.classes]
            values = [p for q in grid for p in table.probabilities(q).values()]
        else:
            formula = analytic.expected_beta_n2 if players == 2 else analytic.expected_beta_n3
            names = [f"beta_rank_{k}" for k in range(1, players + 1)]
            values = [beta for q in grid for beta in formula(q)]
        _write_table(args, _CURVE_HEADER, _curve_columns(grid, names, values))
    return 0


HANDLERS = {
    "sample-weights": _cmd_sample_weights,
    "expected-weights": _cmd_expected_weights,
    "weight-density": _cmd_weight_density,
    "moments": _cmd_moments,
    "indices": _cmd_indices,
    "fixed-curve": _cmd_fixed_curve,
    "power-curve": _cmd_power_curve,
    "coleman-curve": _cmd_coleman_curve,
    "classes": _cmd_classes,
    "spline-fit": _cmd_spline_fit,
    "analytic": _cmd_analytic,
}
