"""Output checks, one per kind of command.

``check(command, stdout, work)`` returns a list of problems; an empty list
means the output is correct.  Each check parses what the CLI printed or
wrote and compares it with ``oracles``.  Tolerances follow what the
library documents: 1e-7 absolute for the CF inversion, 1e-9 for the
float density path, and for Monte Carlo curves 4 standard errors plus
1e-3 against the exact mixture.  Known defects outside those tolerances
are not failures here; the traced run counts them.
"""

from __future__ import annotations

import json
import math
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

CURVE_HEADER = ["quota", "series-name", "mean", "standard-error", "samples"]
CLASS_CEILINGS = {2: 2, 3: 5, 4: 14, 5: 62, 6: 566, 7: 11971}
INVERSION_TOLERANCE = 1e-7
MC_SIGMAS = 4.0
MC_SLACK = 1e-3


class CheckError(Exception):
    """The output could not be parsed into what the check expects."""


def _csv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckError(f"expected header {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise CheckError("ragged CSV row")
    return rows


def read_curve(text: str) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Curve CSV -> {series: (quotas, mean, stderr, samples)} in file order."""
    cols: dict[str, list[list[float]]] = {}
    for q, name, mean, se, count in _csv(text, CURVE_HEADER):
        cols.setdefault(name, []).append([float(q), float(mean), float(se), float(count)])
    return {
        name: tuple(np.array(c) for c in zip(*vals)) for name, vals in cols.items()
    }


def _close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= max(absolute, rel * abs(want))


def _grid_problems(quotas: np.ndarray, name: str) -> list[str]:
    grid = oracles.default_quota_grid()
    if quotas.shape != grid.shape or not np.array_equal(quotas, grid):
        return [f"{name}: quotas are not the default grid"]
    return []


def _svg_problems(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a readable SVG ({exc})"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}"]
    if not any(el.tag.endswith(("polyline", "path", "circle")) for el in root.iter()):
        return [f"{path.name}: no data drawn"]
    return []


# --------------------------------------------------------------------------
# random weights

def check_expected_weights(p, out, work):
    rows = _csv(out, ["k", "expected"])
    n = p["n"]
    if [int(r[0]) for r in rows] != list(range(1, n + 1)):
        return ["ranks are not 1..n"]
    return [
        f"E[W_({k})] = {v} != {float(oracles.expected_ordered_weight(n, k))}"
        for k, (_, v) in enumerate(rows, start=1)
        if not _close(float(v), float(oracles.expected_ordered_weight(n, k)), 1e-15)
    ]


def check_density(p, out, work):
    rows = _csv(out, ["x", "density"])
    n, k = p["n"], p["k"]
    problems = []
    if len(rows) != p["points"]:
        problems.append(f"{len(rows)} points, expected {p['points']}")
    xs = [float(r[0]) for r in rows]
    lo, hi = (1.0 / n, 1.0) if k == 1 else (0.0, 1.0 / k)
    if xs[0] != lo or not _close(xs[-1], hi, 1e-15):
        problems.append("x does not span the support")
    for x, (_, f) in zip(xs, rows):
        want = float(oracles.ordered_weight_density(n, k, x))
        if not _close(float(f), want, 1e-9, 1e-9):
            problems.append(f"density({x}) = {f}, expected {want}")
            break
    return problems + _svg_problems(work / p["plot"])


def check_moments(p, out, work):
    got = {name: float(v) for name, v in _csv(out, ["quantity", "value"])}
    mean, var = oracles.sum_sq_stats(p["n"])
    want = {
        "product_moment": oracles.dirichlet_moment(p["n"], p["m"]),
        "sum_sq_mean": mean,
        "sum_sq_variance": var,
    }
    if set(got) != set(want):
        return [f"quantities {sorted(got)}"]
    return [
        f"{name} = {got[name]}, expected {float(value)}"
        for name, value in want.items()
        if not _close(got[name], float(value), 1e-14)
    ]


def _mc_rows(curves, series, samples):
    problems = []
    q, mean, se, count = curves[series]
    problems += _grid_problems(q, series)
    if np.any(count != samples):
        problems.append(f"{series}: samples column is not {samples}")
    if np.any(se < 0) or not np.all(np.isfinite(mean)):
        problems.append(f"{series}: negative standard error or non-finite mean")
    return problems


def check_power_curve(p, out, work):
    text = (work / p["output"]).read_text() if "output" in p else out
    curves = read_curve(text)
    n, samples = p["n"], p["samples"]
    names = [f"beta_rank_{k}" for k in range(1, n + 1)]
    if list(curves) != names:
        return [f"series {list(curves)}, expected {names}"]
    problems = []
    for name in names:
        problems += _mc_rows(curves, name, samples)
    means = np.array([curves[name][1] for name in names])  # (rank, quota)
    ses = np.array([curves[name][2] for name in names])
    if np.any(means < 0) or np.any(means > 1):
        problems.append("a mean ordered beta lies outside [0, 1]")
    if np.any(np.diff(means, axis=0) > 1e-12):
        problems.append("mean ordered betas are not descending in rank")
    if np.max(np.abs(means.sum(axis=0) - 1.0)) > 1e-9:
        problems.append("mean ordered betas do not sum to 1 at every quota")
    # At q = 1 only the grand coalition wins: every beta is exactly 1/n.
    if np.any(means[:, -1] != 1.0 / n) or np.any(ses[:, -1] != 0):
        problems.append("q = 1 column is not exactly 1/n with zero error")
    if np.any(ses > 0.51 / math.sqrt(samples)):
        problems.append("standard error exceeds the [0, 1] range bound")
    return problems


def _against_mixture(n, q, mean, se, name):
    want = np.array([oracles.coleman_mixture(n, float(x)) for x in q])
    bad = np.abs(mean - want) > MC_SIGMAS * se + MC_SLACK
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"{name} at q={q[i]}: {mean[i]} vs mixture {want[i]} (se {se[i]})"]
    return []


def check_coleman_mc(p, out, work):
    curves = read_curve(out)
    if list(curves) != ["coleman"]:
        return [f"series {list(curves)}"]
    n = p["n"]
    q, mean, se, _ = curves["coleman"]
    problems = _mc_rows(curves, "coleman", p["samples"])
    if mean[-1] != 2.0 ** -n or se[-1] != 0:
        problems.append("q = 1 value is not exactly 2^-n")
    problems += _against_mixture(n, q, mean, se, "coleman")
    if "plot" in p:
        problems += _svg_problems(work / p["plot"])
    return problems


def check_hoeffding(p, out, work):
    curves = read_curve(out)
    if list(curves) != ["hoeffding_bound"]:
        return [f"series {list(curves)}"]
    n = p["n"]
    q, mean, se, _ = curves["hoeffding_bound"]
    problems = _mc_rows(curves, "hoeffding_bound", p["samples"])
    if np.any(mean > 1) or np.any(np.diff(mean) > 1e-15):
        problems.append("bound exceeds 1 or rises with the quota")
    mix = np.array([oracles.coleman_mixture(n, float(x)) for x in q])
    below = mean + MC_SIGMAS * se + MC_SLACK < mix
    if np.any(below):
        i = int(np.flatnonzero(below)[0])
        problems.append(f"bound {mean[i]} below expected Coleman {mix[i]} at q={q[i]}")
    return problems


def inversion_errors(n: int, quotas, values) -> tuple[np.ndarray, np.ndarray]:
    """(absolute, relative) errors of inversion values against the mixture."""
    want = np.array([oracles.coleman_mixture(n, float(x)) for x in quotas])
    err = np.abs(np.asarray(values) - want)
    return err, err / want


def check_coleman_inversion(p, out, work):
    curves = read_curve(out)
    if list(curves) != ["coleman"]:
        return [f"series {list(curves)}"]
    q, mean, se, count = curves["coleman"]
    problems = _grid_problems(q, "coleman")
    if np.any(se != 0) or np.any(count != 0):
        problems.append("exact curve carries standard errors or sample counts")
    err, _ = inversion_errors(p["n"], q, mean)
    if np.max(err) > INVERSION_TOLERANCE:
        i = int(np.argmax(err))
        problems.append(f"inversion at q={q[i]} off the mixture by {err[i]:.3g}")
    return problems


def check_coleman_single(p, out, work):
    got = float(out.strip())
    want = oracles.coleman_mixture(p["n"], p["quota"])
    return [] if got == want else [f"E[C] = {got}, expected {want}"]


def check_classes(p, out, work):
    rows = _csv(out, ["class-id", "beta-vector", "hit-count"])
    n, budget = p["n"], p["budget"]
    ceiling = CLASS_CEILINGS[n]
    problems = []
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("class ids are not 0..K-1")
    if len(rows) > ceiling or (n <= 4 and len(rows) != ceiling):
        problems.append(f"{len(rows)} classes for n={n}, ceiling {ceiling}")
    hits = [int(r[2]) for r in rows]
    if sum(hits) != budget or min(hits) < 1 or hits != sorted(hits, reverse=True):
        problems.append("hit counts do not partition the budget in descending order")
    for _, vector, _ in rows:
        beta = [float(b) for b in vector.split(";")]
        if (len(beta) != n or abs(math.fsum(beta) - 1.0) > 1e-12 or min(beta) < 0
                or any(a < b for a, b in zip(beta, beta[1:]))):
            problems.append(f"beta vector {vector} is not a ranked profile")
            break
    return problems


def _series(text: str, series: str) -> tuple[np.ndarray, np.ndarray]:
    q, mean, _, _ = read_curve(text)[series]
    order = np.argsort(q)
    return q[order], mean[order]


def check_spline(p, out, work):
    fit = json.loads(out)
    q, v = _series((work / p["input"]).read_text(), p["series"])
    bps = fit["interior_breakpoints"]
    pieces = fit["piece_coefficients"]
    degree = p["max_degree"]
    problems = []
    if fit["series"] != p["series"] or fit["degree"] != degree:
        problems.append("series or degree differs from the request")
    if len(pieces) != len(bps) + 1 or any(len(c) != degree + 1 for c in pieces):
        return problems + ["piece layout does not match the breakpoints"]
    if any(b <= q[0] or b >= q[-1] for b in bps) or sorted(bps) != bps:
        problems.append("breakpoints are not increasing inside the sample range")

    def poly(coeffs, x):
        return sum(c * x ** d for d, c in enumerate(coeffs))

    pred = np.array([poly(pieces[int(np.searchsorted(bps, x, side="left"))], x) for x in q])
    worst = float(np.max(np.abs(pred - v)))
    if abs(worst - fit["max_residual"]) > 1e-6:
        problems.append(f"pieces reproduce the data to {worst}, reported {fit['max_residual']}")
    if fit["max_residual"] > 0.02:
        problems.append(f"max residual {fit['max_residual']} is not a fit")
    for i, b in enumerate(bps):
        if abs(poly(pieces[i], b) - poly(pieces[i + 1], b)) > 1e-6:
            problems.append(f"fit is discontinuous at {b}")
    return problems


def check_extrema_n3(p, out, work):
    rows = _csv(out, ["rank", "quota", "quota-exact", "kind"])
    got = set()
    problems = []
    for rank, quota, exact, kind in rows:
        frac = Fraction(exact)
        if float(quota) != float(frac):
            problems.append(f"quota {quota} does not round {exact}")
        got.add((int(rank), frac, kind))
    want = oracles.n3_extrema()
    if got != want:
        problems.append(f"extrema {sorted(got)}, expected {sorted(want)}")
    return problems


# --------------------------------------------------------------------------
# fixed games

def _profile_problems(data, n, omega, member, weights, quota) -> list[str]:
    """Compare an ``indices`` JSON payload with known counts (if any)."""
    problems = []
    if data["n"] != n or len(data["member_counts"]) != n:
        return [f"payload is for n={data['n']}"]
    w_omega, w_member = data["winning_count"], data["member_counts"]
    if omega is not None and w_omega != omega:
        problems.append(f"winning count {w_omega}, expected {omega}")
    elif omega is not None and w_member != member:
        i = next(i for i, (a, b) in enumerate(zip(w_member, member)) if a != b)
        problems.append(f"player {i + 1} is in {w_member[i]} winning coalitions, expected {member[i]}")
    if not all(0 <= m <= w_omega for m in w_member) or not 0 < w_omega <= 2 ** n:
        problems.append("member counts are not within [0, omega]")
    swing = [2 * m - w_omega for m in w_member]
    if min(swing) < 0:
        problems.append("negative swing count")
    psi = [s / 2.0 ** (n - 1) for s in swing]
    beta = [s / sum(swing) for s in swing]
    if data["psi"] != psi or data["beta"] != beta:
        problems.append("psi or beta does not follow from the counts")
    if abs(math.fsum(data["beta"]) - 1.0) > 1e-12:
        problems.append("beta does not sum to 1")
    if data["coleman"] != w_omega / 2.0 ** n:
        problems.append("coleman is not omega / 2^n")
    if data["dummies"] != [i + 1 for i, s in enumerate(swing) if s == 0]:
        problems.append("dummies do not match zero swings")
    ssq = float(np.dot(weights, weights))
    bound = math.exp(-2.0 * (quota - 0.5) ** 2 / ssq)
    if not _close(data["hoeffding_bound"], bound, 1e-12) or bound < data["coleman"]:
        problems.append("Hoeffding bound is wrong or below the Coleman index")
    if not _close(data["optimal_quota_sqrt"], 0.5 * (1 + math.sqrt(ssq)), 1e-12):
        problems.append("optimal_quota_sqrt is wrong")
    printed = 0.5 * (1 + 1 / ssq)
    if (not _close(data["optimal_quota_printed"], printed, 1e-12)
            or data["optimal_quota_printed_exceeds_one"] != (data["optimal_quota_printed"] > 1)):
        problems.append("optimal_quota_printed is wrong")
    return problems


def _game(p):
    """(normalized float weights, quota, exact winning predicate on members)."""
    if "int_weights" in p:
        ints = p["int_weights"]
        num, den = p["quota_frac"]
        total = sum(ints)
        return (np.array(ints, dtype=np.float64) / total, num / den,
                lambda members: den * sum(ints[i] for i in members) >= num * total)
    w = oracles.normalized(p["weights"])
    exact = [Fraction(x) for x in w]
    n, q = w.size, Fraction(p["quota"])
    return (w, p["quota"],
            lambda members: len(members) == n or sum(exact[i] for i in members) >= q)


def check_indices_small(p, out, work):
    w, quota, wins = _game(p)
    omega, member = oracles.brute_counts_exact(w.tolist(), wins)
    return _profile_problems(json.loads(out), w.size, omega, member, w, quota)


def check_indices_large(p, out, work):
    w, quota, _ = _game(p)
    if "int_weights" in p:
        omega, member = oracles.integer_counts(p["int_weights"], *p["quota_frac"])
    else:
        omega = member = None  # float n = 38: structural checks only
    return _profile_problems(json.loads(out), w.size, omega, member, w, quota)


def check_fixed_curve(p, out, work):
    text = (work / p["output"]).read_text() if "output" in p else out
    w = oracles.normalized(p["weights"])
    n = w.size
    sums = oracles.contract_sums(w)
    breakpoints = np.unique(sums[(sums > 0.5) & (sums <= 1.0)])
    rows = _csv(text, CURVE_HEADER)
    if len(rows) != breakpoints.size * n:
        return [f"{len(rows)} rows, expected {breakpoints.size} breakpoints x {n}"]
    quotas = np.array([float(r[0]) for r in rows[::n]])
    if not np.array_equal(quotas, breakpoints):
        return ["breakpoints differ from the distinct coalition weights in (1/2, 1]"]
    names = [r[1] for r in rows[:n]]
    if names != [f"beta_player_{i}" for i in range(1, n + 1)]:
        return [f"series {names[:3]}..."]
    beta = np.array([float(r[2]) for r in rows]).reshape(-1, n)
    problems = []
    if any(r[3] != "0" or r[4] != "0" for r in rows):
        problems.append("exact curve carries standard errors or sample counts")
    if np.max(np.abs(beta.sum(axis=1) - 1.0)) > 1e-12:
        problems.append("betas do not sum to 1 at every breakpoint")
    if p.get("sampled") is None:
        picks = range(breakpoints.size)
    else:
        picks = sorted({int(u * breakpoints.size) for u in p["sampled"]} | {breakpoints.size - 1})
    for i in picks:
        omega, member = oracles.member_counts(sums >= breakpoints[i], n)
        want = oracles.beta_from_counts(omega, member)
        if beta[i].tolist() != want:
            problems.append(f"beta at q={breakpoints[i]} differs from enumeration")
            break
    return problems


CHECKS = {
    "expected_weights": check_expected_weights,
    "density": check_density,
    "moments": check_moments,
    "power_curve": check_power_curve,
    "coleman_mc": check_coleman_mc,
    "coleman_inversion": check_coleman_inversion,
    "coleman_single": check_coleman_single,
    "hoeffding": check_hoeffding,
    "classes": check_classes,
    "spline": check_spline,
    "extrema_n3": check_extrema_n3,
    "indices_small": check_indices_small,
    "indices_large": check_indices_large,
    "fixed_curve": check_fixed_curve,
}


def check(command, stdout: str, work: Path) -> list[str]:
    """Problems with one command's output; never raises."""
    try:
        return CHECKS[command.check](command.params, stdout, work)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:3]:
                print(f"  FAILED {label}: {problem}", file=sys.stderr)
