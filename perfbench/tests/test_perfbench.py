"""Tests of the benchmark itself: names, output checks, repeatable counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import oracles
import run
import workloads
from workloads import Command

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_spec_matches_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])


def test_baseline_covers_every_per_layer_metric():
    for path in sorted((ROOT / "perfbench" / "baselines").glob("BENCH_*.json")):
        recorded = json.loads(path.read_text())
        assert set(recorded["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}, path.name
        assert set(recorded["end_to_end"]) == set(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
    assert workloads.commands("exact-games", 7) != workloads.commands("exact-games", 8)


def _run_real(cmd: Command, work: Path) -> str:
    code, _, _, _ = run.run_cli(cmd.argv, work, work / "stdout.txt", timeout=60)
    assert code == 0
    return (work / "stdout.txt").read_text()


def _bump(text: str, column: int, delta: float) -> str:
    """Move ``delta`` from the first data row to the second in a computed field.

    The rows' total stays put, so a check of sums alone cannot see it.  In
    a ``;``-separated field (a class's beta vector) the first entry changes.
    """
    lines = text.splitlines(keepends=True)
    for row, change in ((1, -delta), (2, delta)):
        fields = lines[row].rstrip("\n").split(",")
        parts = fields[column].split(";")
        parts[0] = repr(float(parts[0]) + change)
        fields[column] = ";".join(parts)
        lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("cmd, column, delta", [
    # mean: an inversion value off the Beta mixture by 10x the tolerance
    (Command("coleman-inv-n6", ("coleman-curve", "--n", "6", "--method", "inversion"),
             "coleman_inversion", {"n": 6}), 2, 1e-6),
    # mean: a Monte Carlo value well beyond 4 standard errors of the mixture
    (Command("coleman-mc-n6",
             ("coleman-curve", "--n", "6", "--method", "mc", "--samples", "4096", "--seed", "5"),
             "coleman_mc", {"n": 6, "samples": 4096, "seed": 5, "workers": 1}), 2, 0.05),
    # betas of players 1 and 2 at the first breakpoint, against enumeration
    (Command("fixed-curve-n5",
             ("fixed-curve", "--weights", "0.3,0.25,0.2,0.15,0.1", "--output", "fc.csv"),
             "fixed_curve", {"weights": (0.3, 0.25, 0.2, 0.15, 0.1), "sampled": None,
                             "output": "fc.csv"}, ("fc.csv",)), 2, 1e-6),
    # first entries of two classes' beta vectors
    (Command("classes-n3", ("classes", "--n", "3", "--budget", "20000"),
             "classes", {"n": 3, "budget": 20000, "seed": 0}), 1, 1e-6),
], ids=lambda v: v.case if isinstance(v, Command) else None)
def test_corrupted_copy_of_a_real_output_counts_as_failed(cmd, column, delta, tmp_path):
    stdout = _run_real(cmd, tmp_path)
    tally = checks.Tally()
    tally.record(cmd.case, checks.check(cmd, stdout, tmp_path))
    assert (tally.attempted, tally.failed) == (1, 0)
    if cmd.outputs:
        target = tmp_path / cmd.outputs[0]
        target.write_text(_bump(target.read_text(), column, delta))
    else:
        stdout = _bump(stdout, column, delta)
    tally.record(cmd.case, checks.check(cmd, stdout, tmp_path))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_unparseable_output_is_a_failure_not_a_crash(tmp_path):
    cmd = workloads.commands("readme-session", 1)[0]
    assert checks.check(cmd, "garbage\n", tmp_path)


def test_integer_oracle_matches_enumeration():
    weights = (7, 5, 4, 3, 3, 2, 1)
    omega, member = oracles.integer_counts(weights, 3, 5)
    total = sum(weights)
    brute = oracles.brute_counts_exact(
        weights, lambda members: 5 * sum(weights[i] for i in members) >= 3 * total)
    assert (omega, member) == brute


def test_three_player_extrema_match_readme():
    found = oracles.n3_extrema()
    assert (3, oracles.Fraction(5, 9), "maximum") in found
    assert (3, oracles.Fraction(13, 18), "minimum") in found


def test_computed_counts_repeat_exactly(tmp_path, monkeypatch):
    import layers

    cmds = [c for c in workloads.commands("exact-games", 3) if c.case == "fixed-curve-n16"]
    cmds.append(Command("classes-n4", ("classes", "--n", "4", "--budget", "65536"),
                        "classes", {"n": 4, "budget": 65536, "seed": 0}))
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        monkeypatch.chdir(work)
        state = layers.Run(work)
        for cmd in cmds:
            span, out = layers.replay(state, cmd)
            layers.CASES[cmd.case](state, cmd, span, out)
        assert (state.tally.attempted, state.tally.failed) == (2, 0)
        counts.append({k: v for k, (v, unit) in state.metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"games.quota_curve_breakpoints.n16", "cli.output_bytes.n16",
                              "experiments.classes_found.n4"}


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-games", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_import_split_takes_outermost_entries_of_each_package():
    import layers

    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     numpy.core\n"
        "import time:        50 |        150 |   numpy\n"
        "import time:        10 |         10 |       numpy.linalg\n"
        "import time:        20 |         30 |     scipy.linalg\n"
        "import time:        40 |         70 |   scipy.optimize\n"
        "import time:         5 |        225 | votepower.cli\n"
    )
    split = layers.import_split(text)
    assert split == pytest.approx({"cli.import_s": 225e-6, "cli.import_numpy_s": 160e-6,
                                   "cli.import_scipy_s": 70e-6})


def test_child_max_rss_excludes_the_benchmark_s_own_peak(tmp_path):
    ballast = bytearray(300 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    code, _, _, rss = run.run_child([sys.executable, "-S", "-c", "pass"], {}, tmp_path,
                                    tmp_path / "out.txt", timeout=30)
    del ballast
    assert code == 0
    assert rss < 100
