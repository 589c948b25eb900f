"""Record a baseline: machine, end-to-end steadiness and the per-layer table.

    python3 perfbench/baseline.py --label NAME [--runs 10]

Makes two sets of untraced runs, one after the other: each set runs every
workload on seeds 1 to ``--runs`` (see ``steady.py``).  Then one traced
run.  Writes ``perfbench/baselines/BENCH_<label>.json`` with the machine
description; per workload, each set's medians and quartiles and the
ratio of the second set's median to the first's, which must stay within
the metric's bound; the per-layer metrics; and the headline numbers: the
import split, serial ``power-curve`` cost per sample at n = 6, 10 and 12,
and the n = 38 meet-in-the-middle time with float against integer weights.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy
import scipy

import steady
import workloads

HEADLINE = (
    "cli.interpreter_s", "cli.import_s", "cli.import_numpy_s", "cli.import_scipy_s",
    "experiments.power_ms_per_sample.n6", "experiments.power_ms_per_sample.n10",
    "experiments.power_ms_per_sample.n12",
    "games.mitm_float_s.n38", "games.mitm_int_s.n38",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def compare_sets(first: dict, second: dict) -> dict:
    """Second set's median over the first's, per metric, against its bound."""
    out = {}
    for name, a in first["metrics"].items():
        ratio = second["metrics"][name]["median"] / a["median"]
        out[name] = {"ratio": ratio, "bound": a["bound"], "agree": abs(ratio - 1) <= a["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = steady.load_spec()
    seeds = range(1, args.runs + 1)
    sets = []
    for _ in range(2):
        summaries = {}
        for name in workloads.WORKLOADS:
            summaries[name] = steady.steady(name, seeds, spec["run_seconds"])
            steady.print_table(summaries[name])
        sets.append(summaries)
    end_to_end = {
        name: {"sets": [s[name] for s in sets],
               "median_ratio": compare_sets(sets[0][name], sets[1][name])}
        for name in workloads.WORKLOADS
    }
    for name, record in end_to_end.items():
        for metric, c in record["median_ratio"].items():
            print(f"  {name:15s} {metric:12s} second/first median {c['ratio']:.4f} "
                  f"{'agree' if c['agree'] else 'DISAGREE'}")
    traced = steady.one_run(workloads.WORKLOADS[0], 1, spec["run_seconds"], 1)
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    record = {
        "label": args.label,
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "workloads": {w: workloads.WHY[w] for w in workloads.WORKLOADS},
        "end_to_end": end_to_end,
        "traced": {"seed": 1, "correct": traced["correct"],
                   "attempted": traced["attempted"], "failed": traced["failed"]},
        "headline": {name: layers[name] for name in HEADLINE},
        "per_layer": layers,
    }
    out = steady.HERE / "baselines" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
