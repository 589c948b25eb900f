"""The CLI's subcommands and the writers of their output.

``cli`` parses the command line and imports this module only once the
arguments are valid, so ``--help`` and usage errors never load numpy.
Each subcommand is one ``_cmd_*`` handler, found by name in ``HANDLERS``;
it imports the submodules it calls, and a run loads no others.

Results go to stdout or --output as CSV (default) or JSON.  Floats are
serialized with 17 significant digits so files round-trip losslessly, and
nothing time- or host-dependent is written, so repeating a command
reproduces the output byte for byte.

Every table takes one path: a command gives ``_write_table`` its columns,
and one block loop streams them as CSV or JSON.  The curve commands share
the five ``_CURVE_HEADER`` columns, built by ``_curve_columns`` for exact
curves (quota-major, one row per quota and series) and by
``_quota_curve_columns`` for Monte Carlo curves (one series after another).
A CSV float column is exactly ``"%.17g" % v`` per value, made a block at
a time by the vectorized kernel ``_g17``, which hands the few values it
cannot decide exactly to Python's ``%`` one by one; JSON floats keep
``repr``, as ``json.dumps`` writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentsError, VotePowerError

_CURVE_HEADER = ("quota", "series-name", "mean", "standard-error", "samples")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# --------------------------------------------------------------------------
# "%.17g" in numpy
#
# |x| * 10**(16 - e), e = floor(log10 |x|), is computed in double-double
# arithmetic: 10**p is a pair hi + lo, the product |x| * hi is made exact by
# Veltkamp splitting (numpy has no fused multiply-add), and |x| * lo is
# added to its low part.  The product is at least 10**16 > 2**53, so its
# high part is an integer, and the 17 significant digits are that integer
# plus the rounded low part.  The error is below 2**-46, so rounding the
# low part to nearest is right unless its fraction lies within 2**-30 of
# 1/2; those values, true ties among them, go to Python's "%.17g" %, and so
# do NaN, infinities and |x| outside [1e-30, 1e30].  The digits become text
# by a table of 3-digit groups and are laid out by one byte template per
# class (fixed or exponent layout, digits kept, sign).

_G17_RANGE = (1e-30, 1e30)
_POW10_LOW = -16  # the table holds 10**p for p in [-16, 48]
_VELTKAMP = 134217729.0  # 2**27 + 1


@functools.cache  # built on first use, so commands that write no CSV floats skip it
def _pow10_table() -> np.ndarray:
    """Rows hi, lo, hi's high 26 bits and hi's low bits, one column per
    p, with hi + lo = 10**p to about 2**-106, from exact integer
    arithmetic."""
    rows = []
    for p in range(_POW10_LOW, 49):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        hi = num / den  # correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        rows.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(rows).T
    high = _VELTKAMP * hi - (_VELTKAMP * hi - hi)
    return np.stack([hi, lo, high, hi - high])


def _scaled(a: np.ndarray, e: np.ndarray):
    """The integer part and the fraction of a * 10**(16 - e)."""
    hi, lo, hi_high, hi_low = _pow10_table().take(16 - e - _POW10_LOW, axis=1)
    a_high = _VELTKAMP * a - (_VELTKAMP * a - a)
    a_low = a - a_high
    top = a * hi
    rest = ((a_high * hi_high - top) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest += a * lo
    whole = np.floor(rest)
    return top.astype(np.int64) + whole.astype(np.int64), rest - whole


def _digits_exponent(a: np.ndarray):
    """(d, e, exact): a is d * 10**(e - 16) rounded to nearest, with d in
    [10**16, 10**17), wherever ``exact``; elsewhere the caller falls back."""
    exact = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, fraction = _scaled(a, e)
    step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)  # log10 may be one off
    redo = np.flatnonzero(step)
    if redo.size:
        e[redo] += step[redo]
        whole[redo], fraction[redo] = _scaled(a[redo], e[redo])
    d = whole + (fraction > 0.5)
    exact &= (np.abs(fraction - 0.5) > 2.0 ** -30) & (whole >= 10 ** 16) & (d < 10 ** 17)
    return d, e, exact


def _ascii_words(texts) -> np.ndarray:
    """Each text, at most 8 ASCII bytes, NUL-padded into one uint64."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)


@functools.cache
def _group_words():
    """Each 3-digit group 0-999 as the word "d.d.d.", and its count of
    trailing zeros."""
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    text = np.zeros((1000, 8), dtype=np.uint8)
    text[:, 0:6:2] = digits
    text[:, 1:6:2] = ord(".")
    zeros = np.cumprod(digits[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    return text.view(np.uint64).ravel(), zeros


# A value's 64 bytes, as eight words: word 0 "-0.000" and two NULs, words
# 1-6 its six 3-digit groups as "d.d.d." (the first group's leading digit
# is always 0), word 7 "e+XX".  Its text is some of these bytes in order.
_LEAD_WORD = _ascii_words(["-0.000"])
_EXPONENT_WORDS = _ascii_words("e%+03d" % e for e in range(-31, 32))
_DIGIT_BYTE = 8 + 8 * (np.arange(1, 18) // 3) + 2 * (np.arange(1, 18) % 3)  # group digits 1-17
_EXPONENT_BYTE = 56
_NUL_BYTE = 7
_G17_WIDTH = 24  # the longest "%.17g" text, "-2.2250738585072014e-308" (a fallback's)


@functools.cache
def _layout_table() -> np.ndarray:
    """Byte positions of the text of every class, NUL-padded: classes are
    (layout, kept digits, sign), layout e + 4 for the fixed notation of
    exponent e in [-4, 16] and 21 for exponent notation."""
    layout, kept, neg = np.meshgrid(np.arange(22), np.arange(1, 18), [0, 1], indexing="ij")
    layout, kept, neg = layout.ravel(), kept.ravel(), neg.ravel()
    sci = layout == 21
    e = np.where(sci, 17, layout - 4)
    small = e < 0  # fixed notation below 1: "0." and -e - 1 zeros
    keep = np.zeros((layout.size, 64), dtype=bool)
    keep[:, 0] = neg
    keep[:, 1:3] = small[:, None]
    keep[:, 3:6] = np.arange(1, 4) <= np.where(small, -e - 1, 0)[:, None]
    last = np.where(sci | small, kept, np.maximum(kept, e + 1))  # integer digits stay
    keep[:, _DIGIT_BYTE] = np.arange(17) < last[:, None]
    dot = np.where(sci, 0, np.where(small, -1, e))  # the digit the point follows
    keep[:, _DIGIT_BYTE + 1] = (np.arange(17) == dot[:, None]) & (kept > dot + 1)[:, None]
    keep[:, _EXPONENT_BYTE:_EXPONENT_BYTE + 4] = sci[:, None]
    order = np.argsort(~keep, axis=1, kind="stable")[:, :_G17_WIDTH]
    order[np.arange(_G17_WIDTH) >= keep.sum(axis=1)[:, None]] = _NUL_BYTE
    return order


_G17_CHUNK = 4096  # values laid out at once, which keeps the temporaries small
_ROW_BYTES = np.arange(0, 64 * _G17_CHUNK, 64)[:, None]  # where each value's bytes start


def _g17(values: np.ndarray) -> list[str]:
    """``"%.17g" % v`` of every value."""
    text = []
    for start in range(0, values.size, _G17_CHUNK):
        text += _g17_chunk(values[start:start + _G17_CHUNK]).tolist()
    return text


def _g17_chunk(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of every value, as an array of ``str``."""
    a = np.abs(values)
    d, e, exact = _digits_exponent(a)
    d[~exact], e[~exact] = 0, 0  # zero is laid out as "0"; the rest falls back
    exact |= a == 0
    halves = np.stack(np.divmod(d, 10 ** 9), axis=1).astype(np.float64)
    top = np.floor(halves / 1e6)  # below 10**9, float floor division is exact
    rest = halves - top * 1e6
    middle = np.floor(rest / 1e3)
    groups = np.stack([top, middle, rest - middle * 1e3], axis=2).reshape(-1, 6).astype(np.intp)
    group_words, group_zeros = _group_words()
    zeros = group_zeros[groups[:, 5]]  # trailing zeros of the 17 digits
    for i in range(4, -1, -1):
        rows = np.flatnonzero(zeros == 15 - 3 * i)  # groups after i are all 000
        zeros[rows] += group_zeros[groups[rows, i]]
    words = np.empty((d.size, 8), dtype=np.uint64)
    words[:, 0] = _LEAD_WORD
    words[:, 1:7] = group_words[groups]
    words[:, 7] = _EXPONENT_WORDS[np.clip(e, -31, 31) + 31]
    layout = np.where((e < -4) | (e >= 17), 21, e + 4)
    kept = 17 - np.minimum(zeros, 16)
    positions = _layout_table().take((layout * 17 + kept - 1) * 2 + np.signbit(values), axis=0)
    positions += _ROW_BYTES[:d.size]
    chars = words.view(np.uint8).ravel().take(positions).astype(np.uint32)
    text = chars.view(f"U{_G17_WIDTH}").ravel()
    for i in np.flatnonzero(~exact).tolist():
        text[i] = "%.17g" % float(values[i])
    return text


def _float_text(values: np.ndarray, json_text: bool = False) -> list[str]:
    """``format(v, ".17g")`` of every value, or with ``json_text`` its
    ``repr``; a run of neighbours with equal bits is formatted once.
    Bits, not values, so -0.0 after 0.0 is not merged.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if json_text:
        text = list(map(float.__repr__, values[starts].tolist()))
    else:
        text = _g17(values[starts])
    if len(text) == values.size:
        return text
    return np.array(text, dtype=object)[np.cumsum(starts) - 1].tolist()


# json.dumps writes non-finite floats as JavaScript names, finite ones as repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column_text(column, start: int, stop: int, json_text: bool = False):
    """Text of rows [start, stop) of one ``_write_table`` column: CSV text,
    or with ``json_text`` the ``json.dumps`` of each value."""
    if isinstance(column, list):
        part = column[start:stop]
        if not json_text:
            return part
        text = {value: json.dumps(value) for value in set(part)}
        return map(text.__getitem__, part)
    if not isinstance(column, np.ndarray):
        return itertools.repeat(json.dumps(column) if json_text else _fmt(column))
    part = column[start:stop]
    if part.dtype.kind != "f":
        return map(json.dumps if json_text else str, part.tolist())
    text = _float_text(part, json_text)
    if not json_text:
        return text
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
    columns' Python values.  The two formats differ only in the head, the
    row formatter, the separator between rows and the tail.
    """
    rows = next((len(c) for c in columns if isinstance(c, (np.ndarray, list))), 0)
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


def _quota_grid_from_args(args) -> np.ndarray:
    from . import simplex

    if args.quotas:
        return simplex.as_quota_grid(_parse_floats(args.quotas))
    return simplex.default_quota_grid()


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
    bps = curve.breakpoints
    lefts = np.concatenate(([0.5], bps[:-1]))
    xs = np.column_stack([lefts, bps]).reshape(-1)
    values = np.atleast_2d(np.asarray(curve.values).T)
    return [(name, xs, np.repeat(ys, 2)) for name, ys in zip(names, values)]


def _row_columns(rows):
    """A small table's rows as ``_write_table`` columns: strings stay a
    list, numbers become an array (every column holds one type)."""
    return [list(c) if isinstance(c[0], str) else np.array(c) for c in zip(*rows)]


def _curve_columns(quotas, names, values):
    """The _CURVE_HEADER columns of an exact curve, quota by quota:
    ``values`` has one row per quota and one column per series name, and
    every row has standard error 0 and 0 samples."""
    return [
        np.repeat(quotas, len(names)),
        list(names) * len(quotas),
        np.asarray(values, dtype=np.float64).reshape(-1),
        0.0,
        0,
    ]


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
    from . import simplex

    draws = simplex.sample_uniform_simplex_batch(args.n, args.samples, _seed(args))
    header = tuple(f"w{i + 1}" for i in range(args.n))
    _write_table(args, header, list(draws.T))
    return 0


def _cmd_expected_weights(args):
    from . import weightdist

    values = weightdist.expected_ordered_weights(args.n)
    _write_table(args, ("k", "expected"), [np.arange(1, args.n + 1), values])
    return 0


def _cmd_weight_density(args):
    from . import weightdist

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
    _write_table(args, _CURVE_HEADER, _curve_columns(curve.breakpoints, names, curve.values))
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
        grid = simplex.as_quota_grid([args.quota])
    else:
        grid = _quota_grid_from_args(args)
    caption = f"expected Coleman index, n={args.n} method={args.method}"
    if args.method in ("inversion", "normal"):  # closed forms
        exact = args.method == "inversion"
        formula = analytic.expected_coleman if exact else analytic.expected_coleman_normal
        values = np.array([formula(args.n, q) for q in grid.tolist()])
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
        ts = np.array(_parse_floats(args.t)) if args.t else np.linspace(0.0, 20.0, 81)
        n = 3 if args.n is None else args.n
        _write_table(args, ("t", "value"), [ts, analytic.coalition_weight_cf(n, ts)])
    else:
        grid = _quota_grid_from_args(args)
        if what == "class-probs":
            table = analytic.class_table_n3()
            names = [f"class_{c.label}" for c in table.classes]
            values = [list(table.probabilities(q).values()) for q in grid.tolist()]
        else:
            formula = analytic.expected_beta_n2 if players == 2 else analytic.expected_beta_n3
            names = [f"beta_rank_{k}" for k in range(1, players + 1)]
            values = [formula(q) for q in grid.tolist()]
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
