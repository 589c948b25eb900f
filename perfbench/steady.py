"""Steadiness mode: repeat runs of the benchmark and summarize each metric.

    python3 perfbench/steady.py --workload NAME [--runs 10]

Runs ``run.py`` once per seed (1 to ``--runs``), as separate
processes one after another, and prints each end-to-end metric's median,
quartiles and spread: (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.  A spread below a third of the
metric's bound in ``BENCHMARK.json`` is marked steady.  ``--workload all``
covers every workload.  The last stdout line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "bound": bound, "steady": spread < bound / 3}


def steady(workload: str, seeds, seconds: int) -> dict:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in seeds:
        start = time.perf_counter()
        result = one_run(workload, seed, seconds, 0)
        results.append(result)
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    names = list(results[0]["metrics"])
    return {
        "workload": workload,
        "seeds": list(seeds),
        "all_correct": all(r["correct"] for r in results),
        "metrics": {
            name: summarize([r["metrics"][name]["value"] for r in results], bounds[name])
            for name in names
        },
    }


def print_table(summary: dict) -> None:
    print(f"{summary['workload']} (seeds {summary['seeds'][0]}..{summary['seeds'][-1]}, "
          f"all correct: {summary['all_correct']})")
    print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
    for name, m in summary["metrics"].items():
        print(f"  {name:40s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
              f"{m['spread']:8.4f} {m['bound']:.3g} {'ok' if m['steady'] else 'WIDE'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = load_spec()["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = range(1, args.runs + 1)
    summaries = [steady(name, seeds, seconds) for name in names]
    for summary in summaries:
        print_table(summary)
    print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
