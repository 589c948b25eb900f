"""Benchmark of the votepower command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload's commands
run as ``python -m votepower.cli ...`` subprocesses (``PYTHONPATH=src``),
one after another, cycling through the list until ``--seconds`` is used
up (at least one pass).  Every output is checked.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics, built from each command's median over its repetitions:

* ``wall_s``       wall time of one pass: the sum of the command medians
* ``cpu_s``        user + system CPU time of the command processes, likewise
* ``setup_s``      median wall time of 5 ``votepower --help`` runs (no work)
* ``peak_rss_mb``  largest median max-RSS of any one command (children start
                   from the small ``spawn.py``, so it is their own)
* ``ops_ok_frac``  commands that exited 0 and passed their check, per attempt

The three times are in reference seconds: each is multiplied by
``PROBE_REF_CPU_S`` over the median CPU time of a fixed probe program,
which runs no votepower code and is timed between the commands of the
same run (see ``probe_cpu``).  A shared host changes speed by tens of per
cent over minutes; the probe slows with it, so the scaled times follow the
program more than the host.  Raw seconds and the factor go to stderr.

With ``--trace 1`` the commands replay in-process with spans around each
layer call instead, and the JSON carries the per-layer metrics (see
``layers.py``).  The run exits non-zero without a result when the
library sources are missing.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# The probe: interpreter start, numpy import, bytecode and numpy work, as the
# commands do, but no votepower code, so no change to the library moves it.
PROBE_CODE = (
    "import numpy\n"
    "sum(i * i % 7 for i in range(300000))\n"
    "numpy.sort(numpy.random.default_rng(0).random(400000))\n"
)
PROBE_REF_CPU_S = 0.4  # the probe's CPU time on the machine times are scaled to
PROBE_EVERY_S = 1.5  # one probe per this much command wall time, at least one per command
RUN_DEADLINE_S = 165.0  # every run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("VOTEPOWER_WORKERS", None)  # CLI defaults: serial unless --workers
    return env


class Spawner:
    """The ``spawn.py`` helper: every child of a run starts from it.

    Started on first use and stopped at exit (it also ends when its input
    closes).  Children started from this process would report its peak
    RSS as theirs; see ``spawn.py``.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).resolve().parent / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawn.py ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


_spawner = None


def spawner() -> Spawner:
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
        atexit.register(_spawner.close)
    return _spawner


def run_child(args, env: dict, work: Path, stdout_path: Path, timeout: float):
    """Run one child process; (exit code, wall s, cpu s, max-RSS MB)."""
    stderr_path = stdout_path.with_suffix(".err")
    done = spawner().run({"args": list(args), "env": env, "cwd": str(work),
                          "stdout": str(stdout_path), "stderr": str(stderr_path),
                          "timeout": timeout})
    if done["code"] != 0:
        stderr = stderr_path.read_text(errors="replace")
        print(f"  exit {done['code']}: {stderr.strip()[-300:]}", file=sys.stderr)
    return done["code"], done["wall"], done["cpu"], done["rss_mb"]


def run_cli(argv, work: Path, stdout_path: Path, timeout: float):
    """Run one CLI command; (exit code, wall s, cpu s, max-RSS MB)."""
    return run_child([sys.executable, "-m", "votepower.cli", *argv], child_env(), work,
                     stdout_path, timeout)


def probe_cpu(work: Path, deadline: float) -> float:
    """CPU seconds of one run of the probe program, without ``src`` on the path."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    code, _, cpu, _ = run_child([sys.executable, "-c", PROBE_CODE], env, work,
                                work / "probe.txt", deadline - time.perf_counter())
    if code != 0:
        raise RuntimeError(f"the probe program exited {code}")
    return cpu


def help_wall(work: Path, tally: checks.Tally, deadline: float) -> float:
    """Wall time of one checked no-work invocation (``--help``)."""
    code, wall, _, _ = run_cli(["--help"], work, work / "help.txt", deadline - time.perf_counter())
    text = (work / "help.txt").read_text(errors="replace")
    tally.record("--help", [] if code == 0 and "usage: votepower" in text else [f"exit {code}"])
    return wall


def run_command(cmd, work: Path, tally: checks.Tally, deadline: float):
    """Run and check one command; (wall s, cpu s, max-RSS MB)."""
    stdout_path = work / f"{cmd.case}.out"
    code, wall, cpu, rss = run_cli(cmd.argv, work, stdout_path, deadline - time.perf_counter())
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        problems = checks.check(cmd, stdout_path.read_text(errors="replace"), work)
    tally.record(cmd.case, problems)
    print(f"  {cmd.case:20s} {wall:8.3f} s  cpu {cpu:7.3f} s  rss {rss:7.1f} MB"
          f"  {'ok' if not problems else 'FAILED'}", file=sys.stderr)
    return wall, cpu, rss


def run_untraced(workload: str, seed: int, seconds: float, work: Path, started: float):
    """Cycle through the commands in order for ``seconds`` (at least one pass).

    Each pass metric sums (or, for RSS, maxes) the per-command medians, so
    a command that ran twice counts with its median, not twice.  After
    each command come its probes, one per ``PROBE_EVERY_S`` of its wall
    time, so the probes sample the host's speed over the whole run.  The
    ``--help`` set-up samples are taken one after each command, and topped
    up at the end, so they too spread over the run.  Probes and set-up
    samples count against ``seconds``, so a run takes about ``seconds``.
    """
    deadline = started + RUN_DEADLINE_S
    commands = workloads.commands(workload, seed)
    tally = checks.Tally()
    help_wall(work, tally, deadline)  # warm-up: the first call also compiles bytecode
    probe_cpu(work, deadline)  # warm-up: brings numpy into the page cache
    setup = []
    probes = []
    samples = {cmd.case: [] for cmd in commands}
    begin = time.perf_counter()
    for i in itertools.count():
        cmd = commands[i % len(commands)]
        now = time.perf_counter()
        if i >= len(commands):
            last = samples[cmd.case][-1][0] if samples[cmd.case] else 0.0
            if now - begin + last > seconds or now + last >= deadline:
                break
        elif now >= deadline:
            tally.record(cmd.case, ["not run: out of time"])
            continue
        samples[cmd.case].append(run_command(cmd, work, tally, deadline))
        for _ in range(max(1, round(samples[cmd.case][-1][0] / PROBE_EVERY_S))):
            probes.append(probe_cpu(work, deadline))
        if len(setup) < SETUP_REPEATS:
            setup.append(help_wall(work, tally, deadline))
    while len(setup) < SETUP_REPEATS:
        setup.append(help_wall(work, tally, deadline))
    medians = [
        [statistics.median(column) for column in zip(*runs)] for runs in samples.values() if runs
    ]
    walls, cpus, rss = zip(*medians)
    scale = PROBE_REF_CPU_S / statistics.median(probes)
    print(f"  {i} command runs; raw wall {sum(walls):.3f} s, cpu {sum(cpus):.3f} s, "
          f"setup {statistics.median(setup):.3f} s (median of {SETUP_REPEATS}); "
          f"scale {scale:.4f} from {len(probes)} probes", file=sys.stderr)
    metrics = {
        "wall_s": (scale * sum(walls), "s"),
        "cpu_s": (scale * sum(cpus), "s"),
        "setup_s": (scale * statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ops_ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
    }
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "votepower" / "cli.py").is_file():
        print(f"error: no votepower sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import layers  # imports the library in-process; untraced runs never do

            tally, metrics = layers.run_traced(args.workload, args.seed, work, started)
        else:
            tally, metrics = run_untraced(args.workload, args.seed, args.seconds, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
