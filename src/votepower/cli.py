"""Command-line interface: the parser, config files and ``main``.

One subcommand per task; results go to stdout or --output as CSV (default)
or JSON, written by the handlers in ``commands``.

Start-up is a large part of a short run.  This module imports only the
standard library, ``errors`` and ``svgplot``, so ``--help``, a config
error and any other usage error that argparse reports never load numpy.
``main`` imports ``commands`` once the arguments parse, and each handler
there imports the submodules it calls, so a run loads no others; the
closed forms, ``analytic`` too, load no numpy.  Before numpy is imported,
``OPENBLAS_NUM_THREADS`` defaults to 1 (a value that is already set is
kept), so no idle BLAS threads spin in the process.

Exit codes: 0 success, 1 I/O error, 2 usage error, 4 enumeration or
memory budget exceeded.  A reader that closes the pipe early
(``votepower ... | head``) ends the run with 1 and no message, as Unix
filters do.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import BudgetExceededError, VotePowerError
from .svgplot import emit_plot  # noqa: F401  (the handlers plot through cli.emit_plot)

# numpy starts OpenBLAS's thread pool on import, and its idle threads spin
# for about 100 ms of CPU per process; no BLAS call here is large enough to
# use a second thread.  A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


# --------------------------------------------------------------------------
# parser

def _add_output_args(sub):
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_seed_args(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--stream", type=int, default=0)


def _add_weight_args(sub, exact: bool = False):
    """One source of weights; with ``exact``, also integer weights and one
    of --quota and --quota-frac."""
    weights = sub.add_mutually_exclusive_group()
    weights.add_argument("--weights", help="comma-separated weights (normalized by their sum)")
    weights.add_argument("--weights-csv", help="CSV file with one weight per value")
    if exact:
        weights.add_argument("--weights-int", help="comma-separated integer weights (exact mode)")
        quota = sub.add_mutually_exclusive_group()
        quota.add_argument("--quota", type=float)
        quota.add_argument("--quota-frac", help="quota as a fraction of total weight, e.g. 11/20")


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

    sub = commands.add_parser("expected-weights", help="expected ordered weights")
    sub.add_argument("--n", type=int, required=True)
    _add_output_args(sub)

    sub = commands.add_parser("weight-density", help="density of the k-th largest weight")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--points", type=int, default=512)
    sub.add_argument("--plot", help="also write an SVG chart here")
    _add_output_args(sub)

    sub = commands.add_parser("moments", help="weight product and power-sum moments")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", help="comma-separated exponent vector")
    sub.add_argument("--power-sum", type=int, help="power-sum moment order m")
    sub.add_argument("--sum-sq", action="store_true", help="mean and variance of sum of squares")
    _add_output_args(sub)

    sub = commands.add_parser("indices", help="exact power indices of one game")
    _add_weight_args(sub, exact=True)
    _add_output_args(sub)
    sub.set_defaults(format="json")

    sub = commands.add_parser("fixed-curve", help="exact quota step-curve for fixed weights")
    _add_weight_args(sub)
    sub.add_argument("--functional", choices=("beta", "psi", "coleman"), default="beta")
    sub.add_argument("--plot")
    _add_output_args(sub)

    sub = commands.add_parser("power-curve", help="Monte Carlo mean ordered indices vs quota")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--samples", type=int, default=65536)
    sub.add_argument("--statistic", choices=("beta", "psi"), default="beta")
    sub.add_argument("--quotas", help="comma-separated quota grid")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--plot")
    _add_seed_args(sub)
    _add_output_args(sub)

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
    quota = sub.add_mutually_exclusive_group()
    quota.add_argument("--quota", type=float, help="single quota; prints one value")
    quota.add_argument("--quotas", help="comma-separated quota grid")
    sub.add_argument("--samples", type=int, default=65536)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--plot")
    _add_seed_args(sub)
    _add_output_args(sub)

    sub = commands.add_parser("classes", help="discover game classes by sampling")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--budget", type=int, default=10 ** 6)
    _add_seed_args(sub)
    _add_output_args(sub)

    sub = commands.add_parser("spline-fit", help="piecewise-polynomial fit of a curve CSV")
    sub.add_argument("--input", required=True)
    sub.add_argument("--series", help="series-name to fit (default: first)")
    sub.add_argument("--max-degree", type=int, required=True)
    sub.add_argument("--breakpoints", default="auto")
    sub.add_argument("--penalty", type=float, default=1e-8)
    sub.add_argument("--output")
    sub.set_defaults(format="json")

    sub = commands.add_parser("analytic", help="closed-form small-n curves and extrema")
    sub.add_argument(
        "--what", choices=("beta-n2", "beta-n3", "class-probs", "extrema"), required=True
    )
    sub.add_argument("--n", type=int, help="2 for beta-n2, 3 for the rest")
    sub.add_argument("--quotas", help="comma-separated quota grid")
    _add_output_args(sub)

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
    """The key=value lines of a config file; blank lines and lines that
    start with # are skipped, and any other line without = is an error."""
    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise argparse.ArgumentTypeError(
                    f"config line {number} is not key=value: {line!r}"
                )
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
        from . import commands  # the handlers come in once the arguments parse

        code = commands.HANDLERS[args.command](args)
        flush = getattr(sys.stdout, "flush", None)  # a table needs only write()
        if flush is not None:
            flush()  # so a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Quiet, as the Python docs advise for SIGPIPE: stdout goes to devnull
        # so that the interpreter's flush at exit cannot fail again.  An
        # in-process stream (StringIO, pytest's capture) has no descriptor.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (VotePowerError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    # Under ``python -m votepower.cli`` this module runs as __main__; listed
    # under its own name too, it is what the handlers' ``from . import cli``
    # finds, instead of a second copy compiled and run for every plot.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
