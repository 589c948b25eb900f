"""The traced run: per-layer metrics from an in-process replay.

Each workload's commands replay through ``votepower.cli.main`` inside a
``cli.main`` span, and their outputs are checked as in the untraced run.
For the replay, the public functions of each layer that the CLI calls
are wrapped so that every call gets its own span (a child of the
``cli.main`` span), and then restored.  The wrappers live in this file;
nothing inside ``src/`` is changed or instrumented.  Besides the replay,
the run draws each Monte Carlo command's sample chunks once more under a
``simplex`` span, runs each 2-worker estimator again on 1 worker, for
the scaling efficiency and the bit-identity check, and times
``power-curve`` at n = 12.  The requested workload's commands also run
once more each without instrumentation, for the tracing overhead.

The traced run replays every workload, the requested one first, so each
traced run reports the whole per-layer table.  Metric names end in the
case they measure, for example ``experiments.coleman_mc_s.n12-w2``.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import workloads
from run import ROOT, WORK_ROOT, child_env
from tracing import Tracer

sys.path.insert(0, str(ROOT / "src"))

from votepower import analytic, cli, experiments, games, simplex, weightdist  # noqa: E402

IMPORT_REPEATS = 3
TRACE_DEADLINE_S = 150.0  # leave margin under the 180 s a run may take
N12_POWER_SAMPLES = 512  # power-curve n = 12 cost probe; 3.8 ms a sample at the seed

# (module, attribute) pairs the CLI reaches each layer through.  cli binds
# emit_plot by name, so the plot is wrapped where cli looks it up.
WRAPPED = (
    (experiments, "mc_power_curve"), (experiments, "mc_coleman_curve"),
    (experiments, "mc_hoeffding_curve"), (experiments, "discover_classes"),
    (experiments, "fit_spline"),
    (analytic, "expected_coleman"), (analytic, "extrema_n3"),
    (games, "banzhaf"), (games, "dummies"), (games, "fixed_weight_quota_curve"),
    (weightdist, "ordered_weight_density"),
    (cli, "emit_plot"),
)


class Run:
    """State of one traced run: spans, metrics, results and the operation tally."""

    def __init__(self, work: Path):
        self.work = work
        self.tracer = Tracer()
        self.tally = checks.Tally()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.results: dict[str, object] = {}  # last return value per wrapped function
        self.workload = ""

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @contextmanager
    def span(self, name: str, **counters):
        with self.tracer.span(name, self.workload, **counters) as record:
            yield record

    def timed(self, name: str, func, *args, **kwargs):
        """Call ``func`` inside a span; (result, seconds)."""
        with self.span(name) as record:
            result = func(*args, **kwargs)
        return result, Tracer.duration(record)

    def children(self, parent: dict, name: str) -> float:
        """Total seconds of the direct children of ``parent`` called ``name``."""
        return sum(Tracer.duration(s) for s in self.tracer.spans
                   if s["parent"] == parent["id"] and s["name"] == name)

    def wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            self.results[name] = result
            return result

        return traced


@contextmanager
def instrumented(run: Run):
    """Wrap the layer entry points in spans for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr in WRAPPED]
    try:
        for module, attr, func in originals:
            setattr(module, attr, run.wrap(func))
        yield
    finally:
        for module, attr, func in originals:
            setattr(module, attr, func)


@contextmanager
def counting_cf_evaluations():
    """Count the points at which the inversion evaluates the CF."""
    original = analytic._cf_continuous
    evaluated = [0]

    def counted(n, t):
        evaluated[0] += t.size
        return original(n, t)

    analytic._cf_continuous = counted
    try:
        yield evaluated
    finally:
        analytic._cf_continuous = original


# --------------------------------------------------------------------------
# start-up: interpreter and imports, measured in fresh processes

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def _python_wall(args) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    return time.perf_counter() - start, done.stderr


def import_split(stderr: str) -> dict[str, float]:
    """Import seconds of ``votepower.cli`` and of numpy and scipy.

    Each is the cumulative time of the outermost entries of that package
    in ``-X importtime`` output, so it includes whatever they import.  A
    child line precedes its parent, and nesting shows as indentation.
    """
    out = {"cli.import_s": 0.0, "cli.import_numpy_s": 0.0, "cli.import_scipy_s": 0.0}
    enclosing: list[tuple[int, str]] = []  # (indent, package) of the lines around this one
    for line in reversed(stderr.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, indent, name = int(m[2]) / 1e6, len(m[3]), m[4]
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        package = name.split(".")[0]
        if name == "votepower.cli" and not enclosing:
            out["cli.import_s"] = cumulative
        if package in ("numpy", "scipy") and all(p != package for _, p in enclosing):
            out[f"cli.import_{package}_s"] += cumulative
        enclosing.append((indent, package))
    return out


def measure_startup(run: Run) -> None:
    with run.span("cli.startup"):
        bare = [_python_wall(["-c", "pass"])[0] for _ in range(IMPORT_REPEATS)]
        splits = [import_split(_python_wall(["-X", "importtime", "-c", "import votepower.cli"])[1])
                  for _ in range(IMPORT_REPEATS)]
    run.put("cli.interpreter_s", statistics.median(bare), "s")
    for name in splits[0]:
        run.put(name, statistics.median(s[name] for s in splits), "s")


# --------------------------------------------------------------------------
# per-case metrics, read from the spans of the replayed command

def _seed(p) -> simplex.RandomSeed:
    return simplex.RandomSeed(p["seed"], 0)


def sample_chunks(run: Run, label: str, p) -> None:
    """Draw the chunks a Monte Carlo command draws, as its kernels do."""
    chunks = math.ceil(p["samples"] / experiments.MC_CHUNK)
    base = _seed(p)
    with run.span("simplex.sample_uniform_simplex_batch", chunks=chunks) as record:
        for c in range(chunks):
            simplex.sample_uniform_simplex_batch(p["n"], experiments.MC_CHUNK, base.substream(c))
    seconds = Tracer.duration(record)
    run.put(f"simplex.sample_s.{label}", seconds, "s")
    run.put(f"simplex.draws_per_s.{label}", chunks * experiments.MC_CHUNK / seconds, "1/s")


def _curve_arrays(result) -> list[np.ndarray]:
    curves = result if isinstance(result, list) else [result]
    return [a for c in curves for a in (c.mean, c.stderr)]


def mc_metrics(run: Run, kind: str, estimator, cmd, span: dict) -> None:
    """Estimator time at the command's worker count, cell rate and scaling.

    With 2 workers the estimator runs again on 1 worker, for the scaling
    efficiency t(1) / (2 t(2)), and both results must be bit-identical.
    """
    p = cmd.params
    n, samples, workers = p["n"], p["samples"], p["workers"]
    name = f"experiments.{estimator.__name__}"
    label = f"n{n}" + (f"-w{workers}" if workers > 1 else "")
    family = kind.split("_")[0]
    seconds = run.children(span, name)
    grid = experiments.default_quota_grid()
    run.put(f"experiments.{kind}_s.{label}", seconds, "s")
    run.put(f"experiments.cells_per_s.{family}-{label}", 2 ** n * samples * grid.size / seconds,
            "1/s")
    serial_seconds = seconds
    if workers > 1:
        kwargs = {"statistic": "beta"} if estimator is experiments.mc_power_curve else {}
        serial, serial_seconds = run.timed(name, estimator, n, grid, samples=samples,
                                           seed=_seed(p), workers=1, **kwargs)
        run.put(f"experiments.scaling_eff.{family}-n{n}", serial_seconds / (workers * seconds),
                "ratio")
        same = all(a.tobytes() == b.tobytes() for a, b in
                   zip(_curve_arrays(run.results[name]), _curve_arrays(serial)))
        run.tally.record(f"{cmd.case}-determinism",
                         [] if same else ["1 and 2 workers give different bits"])
    if kind == "power_curve":
        run.put(f"experiments.power_ms_per_sample.n{n}", serial_seconds * 1e3 / samples, "ms")


def case_density(run, cmd, span, out):
    p = cmd.params
    run.put(f"weightdist.density_s.n{p['n']}-k{p['k']}",
            run.children(span, "weightdist.ordered_weight_density"), "s")
    run.put(f"svgplot.plot_s.density-n{p['n']}", run.children(span, "svgplot.emit_plot"), "s")


def case_power(run, cmd, span, out):
    sample_chunks(run, f"power-n{cmd.params['n']}", cmd.params)
    mc_metrics(run, "power_curve", experiments.mc_power_curve, cmd, span)


def case_coleman_mc(run, cmd, span, out):
    p = cmd.params
    sample_chunks(run, f"coleman-n{p['n']}", p)
    mc_metrics(run, "coleman_mc", experiments.mc_coleman_curve, cmd, span)
    if "plot" in p:
        run.put(f"svgplot.plot_s.coleman-n{p['n']}", run.children(span, "svgplot.emit_plot"),
                "s")


def case_hoeffding(run, cmd, span, out):
    p = cmd.params
    sample_chunks(run, f"hoeffding-n{p['n']}", p)
    run.put(f"experiments.hoeffding_s.n{p['n']}",
            run.children(span, "experiments.mc_hoeffding_curve"), "s")


def case_classes(run, cmd, span, out):
    n = cmd.params["n"]
    run.put(f"experiments.classes_s.n{n}", run.children(span, "experiments.discover_classes"),
            "s")
    run.put(f"experiments.classes_found.n{n}",
            run.results["experiments.discover_classes"].count, "count")


def case_spline(run, cmd, span, out):
    run.put(f"experiments.spline_fit_s.deg{cmd.params['max_degree']}",
            run.children(span, "experiments.fit_spline"), "s")


def case_extrema(run, cmd, span, out):
    run.put("analytic.extrema_s.n3", run.children(span, "analytic.extrema_n3"), "s")


def case_inversion(run, cmd, span, out):
    """Inversion time, CF evaluations and error against the Beta mixture."""
    n = cmd.params["n"]
    quotas, values, _, _ = checks.read_curve(out)["coleman"]
    seconds = run.children(span, "analytic.expected_coleman")
    run.put(f"analytic.coleman_inversion_s.n{n}", seconds, "s")
    run.put(f"analytic.coleman_ms_per_quota.n{n}", seconds * 1e3 / quotas.size, "ms")
    run.put(f"analytic.cf_evals_per_s.n{n}", span["cf_evals"] / seconds, "1/s")
    err, rel = checks.inversion_errors(n, quotas, values)
    run.put(f"analytic.coleman_max_abs_err.n{n}", np.max(err), "1")
    run.put(f"analytic.coleman_max_rel_err.n{n}", np.max(rel), "1")
    if n >= 30:  # the seed returns one negative value here and none at n = 12
        run.put(f"analytic.coleman_negatives.n{n}", np.count_nonzero(values < 0), "count")


def case_indices(run, cmd, span, out):
    n = len(cmd.params.get("weights") or cmd.params["int_weights"])
    kind = "int" if "int_weights" in cmd.params else "float"
    seconds = run.children(span, "games.banzhaf")
    run.put(f"games.mitm_{kind}_s.n{n}", seconds, "s")
    run.put(f"games.coalitions_per_s.n{n}-{kind}", 2 ** n / seconds, "1/s")
    run.put(f"cli.indices_over_banzhaf.n{n}-{kind}", Tracer.duration(span) / seconds, "ratio")


def case_fixed_curve(run, cmd, span, out):
    n = len(cmd.params["weights"])
    curve_s = run.children(span, "games.fixed_weight_quota_curve")
    breakpoints = run.results["games.fixed_weight_quota_curve"].breakpoints.size
    run.put(f"games.quota_curve_s.n{n}", curve_s, "s")
    run.put(f"games.quota_curve_breakpoints.n{n}", breakpoints, "count")
    run.put(f"cli.write_rows_per_s.n{n}", breakpoints * n / (Tracer.duration(span) - curve_s),
            "1/s")
    run.put(f"cli.output_bytes.n{n}", (run.work / cmd.params["output"]).stat().st_size, "count")


CASES = {
    "density-n4-k2": case_density,
    "power-n6": case_power,
    "coleman-mc-n9": case_coleman_mc,
    "classes-n4": case_classes,
    "spline-n6": case_spline,
    "extrema-n3": case_extrema,
    "power-n10-w2": case_power,
    "coleman-mc-n12-w2": case_coleman_mc,
    "coleman-inv-n12": case_inversion,
    "coleman-inv-n30": case_inversion,
    "hoeffding-n12": case_hoeffding,
    "classes-n6": case_classes,
    "indices-n38-float": case_indices,
    "indices-n38-int": case_indices,
    "fixed-curve-n16": case_fixed_curve,
}


# --------------------------------------------------------------------------
# replay

def replay(run: Run, cmd) -> tuple[dict, str]:
    """Run one command through ``cli.main`` in-process and check it.

    Returns the command's span and its stdout.
    """
    buffer = io.StringIO()
    with instrumented(run), counting_cf_evaluations() as evaluated:
        with run.span("cli.main", case=cmd.case) as record, redirect_stdout(buffer):
            code = cli.main(list(cmd.argv))
    record["cf_evals"] = evaluated[0]
    out = buffer.getvalue()
    problems = [f"exit code {code}"] if code else checks.check(cmd, out, run.work)
    run.tally.record(cmd.case, problems)
    return record, out


def replay_untraced(run: Run, cmd) -> None:
    """``replay`` without wrappers, CF counting or spans, for the overhead."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(cmd.argv))
    out = buffer.getvalue()
    problems = [f"exit code {code}"] if code else checks.check(cmd, out, run.work)
    run.tally.record(f"{cmd.case}-untraced", problems)


def replay_workload(run: Run, workload: str, seed: int, deadline: float,
                    measure_overhead: bool) -> None:
    """Replay the workload's commands traced and put their per-layer metrics.

    With ``measure_overhead`` each command is replayed once more right
    after, without any instrumentation, and ``trace.overhead_frac`` is the
    traced replay time over the untraced one, minus 1.  Both times include
    the output check.
    """
    run.workload = workload
    total = traced_s = untraced_s = 0.0
    with run.span("workload"):
        for cmd in workloads.commands(workload, seed):
            if time.perf_counter() > deadline:
                run.tally.record(cmd.case, ["not run: out of time"])
                continue
            start = time.perf_counter()
            span, out = replay(run, cmd)
            traced_s += time.perf_counter() - start
            total += Tracer.duration(span)
            if cmd.case in CASES:
                CASES[cmd.case](run, cmd, span, out)
            if measure_overhead:
                start = time.perf_counter()
                replay_untraced(run, cmd)
                untraced_s += time.perf_counter() - start
        if workload == "random-games":
            probe_seed = next(workloads.seed_stream("random-games:power-n12", seed))
            _, seconds = run.timed("experiments.mc_power_curve", experiments.mc_power_curve, 12,
                                   experiments.default_quota_grid(), samples=N12_POWER_SAMPLES,
                                   seed=simplex.RandomSeed(probe_seed, 0), workers=1)
            run.put("experiments.power_ms_per_sample.n12", seconds * 1e3 / N12_POWER_SAMPLES,
                    "ms")
    run.put(f"cli.replay_s.{workload}", total, "s")
    if measure_overhead:
        run.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "fraction")


def run_traced(workload: str, seed: int, work: Path, started: float):
    run = Run(work)
    order = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    run.workload = workload
    measure_startup(run)
    here = os.getcwd()
    os.chdir(work)  # the commands use paths relative to the work directory
    try:
        for name in order:
            replay_workload(run, name, seed, started + TRACE_DEADLINE_S, name == workload)
    finally:
        os.chdir(here)
    wall = time.perf_counter() - started
    run.put("trace.wall_s", wall, "s")
    run.put("trace.spans", len(run.tracer.spans), "count")
    spans_path = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
    run.tracer.write(spans_path)
    print(f"  spans written to {spans_path}", file=sys.stderr)
    return run.tally, dict(sorted(run.metrics.items()))
