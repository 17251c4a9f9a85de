#!/usr/bin/env python3
"""Check that one eval run prints what every figure binary prints.

Usage: eval_sections_test.py BENCH_DIR

Runs BENCH_DIR/eval at a reduced scale, at --host-par=1 and =2, and
each figure binary alone under those of the flags it takes (Table 3 and
Section 5.4 none, as eval runs them). Each "##### <name>" section of
eval's stdout must equal that binary's stdout byte for byte, in
document order. The flags make fig18, fig19 and fig20 declare one
credit sweep (and fig05/fig11 points of fig15), so eval's stderr
count must show fewer points simulated than declared. Exits nonzero
with the first differing line on a mismatch.
"""

import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMON = ["--workloads=sssp,bfs", "--threads=4", "--cores=4",
          "--scale=0.03"]
SWEEP = ["--credits-list=8,32"]
FLAGS = COMMON + SWEEP
# What each binary takes of FLAGS (the others take all of COMMON).
TAKES = {"table3_machine_config": [], "sec54_area_model": [],
         "fig18_mpki_credits": FLAGS, "fig19_speedup_credits": FLAGS,
         "fig20_prefetch_efficiency": FLAGS}
COUNT = re.compile(r"^eval: (\d+) points declared, (\d+) simulated$",
                   re.M)


def run(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc


def sections(text):
    """[(name, stdout)] of eval's output, in order."""
    parts = re.split(r"(?:^|\n)##### (\S+)\n", text)
    return list(zip(parts[1::2], parts[2::2]))


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: eval {x!r} vs binary {y!r}"
    return f"lengths {len(a)} vs {len(b)} bytes"


def main():
    bench = Path(sys.argv[1])
    errors = []
    evals = {}
    for par in (1, 2):
        proc = run([str(bench / "eval"), *FLAGS, f"--host-par={par}"])
        m = COUNT.search(proc.stderr)
        if not m:
            sys.exit(f"eval --host-par={par} printed no point count:\n"
                     f"{proc.stderr}")
        declared, simulated = int(m[1]), int(m[2])
        print(f"eval --host-par={par}: {declared} points declared,"
              f" {simulated} simulated")
        if simulated >= declared:
            errors.append(f"--host-par={par}: no point was shared")
        evals[par] = sections(proc.stdout)

    names = [name for name, _ in evals[1]]

    def alone(name):
        return run([str(bench / name), *TAKES.get(name, COMMON)]).stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        binaries = dict(zip(names, pool.map(alone, names)))
    for par, found in evals.items():
        if [name for name, _ in found] != names:
            errors.append(f"--host-par={par}: sections"
                          f" {[n for n, _ in found]}, want {names}")
            continue
        for name, text in found:
            if text != binaries[name]:
                errors.append(f"--host-par={par} {name}: "
                              + first_difference(text, binaries[name]))
    print(f"{len(names)} sections compared at --host-par=1 and =2")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
