#!/usr/bin/env python3
"""Regenerate the evaluation: one eval run, spliced into EXPERIMENTS.md.

EXPERIMENTS.md is its own template. Each figure's measured output is
the fenced block after its "Measured (`bench/<name>`):" line; the
splice rewrites those blocks and nothing else, so the prose around
them is edited in EXPERIMENTS.md itself.

Usage:
  make_experiments_md.py --build-dir build [--host-par N]
                         [--record BENCH_eval_suite.json]
      runs DIR/bench/eval (every figure at its defaults, each
      distinct point simulated once, farmed over N host threads),
      writes its stdout to bench_output.txt, then splices
      EXPERIMENTS.md. --record appends the wall time and eval's
      point counts to a JSON history file.
  make_experiments_md.py
      re-splices EXPERIMENTS.md from an existing bench_output.txt.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import time

# One figure's measured block: the header line, the fence, the body.
BLOCK = re.compile(r"^(Measured \(`bench/(\S+)`\):\n\n```\n)(.*?)(\n```)$",
                   re.M | re.S)
# One figure's section of eval's output (bench_output.txt).
SECTION = re.compile(r"^##### (\S+)\n(.*?)(?=^##### |\Z)", re.M | re.S)
COUNT = re.compile(r"^eval: (\d+) points declared, (\d+) simulated$",
                   re.M)


def sections(bench_output):
    """{figure: its stdout, stripped} of eval's output."""
    return {m[1]: m[2].strip() for m in SECTION.finditer(bench_output)}


def splice(md, bench_output):
    """@md with each Measured block replaced by its figure's output."""
    found = sections(bench_output)
    blocks = [m[2] for m in BLOCK.finditer(md)]
    if sorted(blocks) != sorted(found):
        sys.exit(f"EXPERIMENTS.md has Measured blocks for {blocks};"
                 f" the eval output has sections {sorted(found)}")
    return BLOCK.sub(lambda m: m[1] + found[m[2]] + m[4], md)


def extract(md):
    """The Measured blocks of @md, as eval prints them."""
    return "\n".join(f"##### {m[2]}\n{m[3]}\n" for m in BLOCK.finditer(md))


def run_eval(build_dir, host_par):
    """Run eval into bench_output.txt; return (seconds, declared,
    simulated)."""
    cmd = [os.path.join(build_dir, "bench", "eval"),
           f"--host-par={host_par}"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    seconds = round(time.monotonic() - t0, 3)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    with open("bench_output.txt", "w") as f:
        f.write(proc.stdout)
    print(f"eval: {seconds:.1f} s", flush=True)
    m = COUNT.search(proc.stderr)
    return seconds, int(m[1]), int(m[2])


def record(path, build_dir, host_par, seconds, declared, simulated):
    """Append one regeneration's wall time to a JSON history."""
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["schema"] = "minnow-eval-suite-2"
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            capture_output=True, text=True)
    doc["runs"].append({
        "schema": "minnow-eval-suite-2",
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": commit.stdout.strip() or None,
        "hostPar": host_par,
        "host": {"cpus": os.cpu_count(),
                 "machine": platform.machine(),
                 "platform": platform.platform()},
        "buildType": m[1] if m else "",
        "totalSeconds": seconds,
        "pointsDeclared": declared,
        "pointsSimulated": simulated,
    })
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", help="run DIR/bench/eval first")
    ap.add_argument("--host-par", type=int, default=1)
    ap.add_argument("--record", metavar="JSON",
                    help="append the wall time and point counts here")
    args = ap.parse_args()
    if args.build_dir:
        run = run_eval(args.build_dir, args.host_par)
        if args.record:
            record(args.record, args.build_dir, args.host_par, *run)
    elif args.record:
        sys.exit("--record needs --build-dir")

    with open("bench_output.txt") as f:
        bench = f.read()
    with open("EXPERIMENTS.md") as f:
        md = f.read()
    with open("EXPERIMENTS.md", "w") as f:
        f.write(splice(md, bench))
    print("wrote EXPERIMENTS.md,", len(sections(bench)), "sections")


if __name__ == "__main__":
    sys.exit(main())
