"""Run one command and write its exit code, wall seconds and peak RSS.

    python3 perfbench/child.py <report.json> <command> [args...]

perfbench/run.py starts every process it measures through this small
wrapper. A process's peak RSS (ru_maxrss) includes the resident set of
the process that forked it, up to its exec, so a child forked straight
from the benchmark's own Python process, which grows while it parses
stats JSON, would report that size instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main():
    report, cmd = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w") as f:
        json.dump({"code": proc.returncode, "wall_s": wall,
                   "maxrss_kb": usage.ru_maxrss}, f)


if __name__ == "__main__":
    main()
