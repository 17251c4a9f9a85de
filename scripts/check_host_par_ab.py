#!/usr/bin/env python3
"""Check that the --host-par point farm leaves results unchanged.

Runs a reduced fig18 credit sweep (sssp and bfs, credits 8 and 32)
serially and on four host threads, and requires the two --stats-json
files to be byte-identical: farmed points share no simulator state,
and results are recorded in point order after the join (DESIGN.md
section 5j). Under a TSan build this is also the race detector's
workload, since the farm is the simulator's only threaded code.

Usage: check_host_par_ab.py <path-to-fig18_mpki_credits-binary>
Exit status 0 on success; prints the failure otherwise.
"""

import os
import subprocess
import sys
import tempfile

ARGS = ["--workloads=sssp,bfs", "--threads=16", "--credits-list=8,32",
        "--scale=0.1"]


def fail(msg):
    print(f"check_host_par_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_sweep(fig, host_par, stats):
    cmd = [fig, *ARGS, f"--host-par={host_par}", f"--stats-json={stats}"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=1200)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    with open(stats, "rb") as f:
        return f.read()


def main():
    if len(sys.argv) != 2:
        fail("usage: check_host_par_ab.py <fig18_mpki_credits-binary>")
    with tempfile.TemporaryDirectory() as tmp:
        serial = run_sweep(sys.argv[1], 1,
                           os.path.join(tmp, "par1.json"))
        farmed = run_sweep(sys.argv[1], 4,
                           os.path.join(tmp, "par4.json"))
    if not serial:
        fail("--host-par=1 wrote an empty stats file")
    if serial != farmed:
        fail("stats JSON differs between --host-par=1 and --host-par=4")
    print(f"check_host_par_ab: OK ({len(serial)} bytes identical at"
          " --host-par=1 and 4)")


if __name__ == "__main__":
    main()
