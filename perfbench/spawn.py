"""Child-process helper for ``run.py``: runs commands, reports their resource use.

    python3 -S perfbench/spawn.py

Reads one JSON request per line on stdin (``args``, ``env``, ``cwd``,
``stdout``, ``stderr``, ``timeout``) and answers each with one JSON line:
exit code, wall seconds, user + system CPU seconds and max-RSS in MB of
that child, from ``os.wait4``.  A timer kills a child that outlives its
timeout.  Exits at the end of its input.

It exists so that the commands start from a process that stays small.
Linux reports a child's max-RSS as at least the peak RSS of the process
that started it (``vfork`` shares the memory map until the ``exec``), and
``run.py`` grows by hundreds of MB while it checks large outputs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["args"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=err)
        killer = threading.Timer(max(request["timeout"], 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
