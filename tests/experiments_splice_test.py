#!/usr/bin/env python3
"""EXPERIMENTS.md is its own template, checked without simulating.

Extracts the Measured blocks of the committed EXPERIMENTS.md in eval's
output form (bench_output.txt), splices them back with
scripts/make_experiments_md.py, and requires the file byte for byte.
Then splices one changed section and requires that only its block
changed, so a splice that wrote nothing could not pass.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "make_experiments_md.py"
    spec = importlib.util.spec_from_file_location("make_experiments_md",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main():
    mx = load_script()
    md = (ROOT / "EXPERIMENTS.md").read_text()
    bench_output = mx.extract(md)
    found = mx.sections(bench_output)
    if len(found) != 20:
        print(f"FAIL: {len(found)} Measured blocks, want 20")
        return 1
    again = mx.splice(md, bench_output)
    if again != md:
        for i, (a, b) in enumerate(zip(again.splitlines(),
                                       md.splitlines())):
            if a != b:
                print(f"FAIL: line {i + 1}: {a!r} vs {b!r}")
                return 1
        print(f"FAIL: {len(again)} bytes spliced, {len(md)} committed")
        return 1

    changed = bench_output.replace("##### fig19_speedup_credits\n",
                                   "##### fig19_speedup_credits\nX\n")
    spliced = mx.splice(md, changed)
    if mx.sections(mx.extract(spliced)) != mx.sections(changed) or \
            len(spliced) != len(md) + 2:
        print("FAIL: splicing a changed fig19 section did not change"
              " exactly its block")
        return 1
    print(f"{len(found)} Measured blocks round-trip byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
