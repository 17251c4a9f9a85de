#!/usr/bin/env python3
"""bench_obs_sinks.py's --attribution ceiling, checked without timing.

Feeds the script's ceiling check synthetic wall-time samples: 1.10x
over no sinks passes the 1.15x ceiling, 1.30x fails with a message
that names the build, the sink, the ratio and the ceiling, and no-sink
samples whose IQR is 0.2 of their median widen the ceiling to 1.4x.
"""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    path = ROOT / "scripts" / "bench_obs_sinks.py"
    spec = importlib.util.spec_from_file_location("bench_obs_sinks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def walls(none, ratio):
    return {"change": {"none": none,
                       "attribution": [ratio * x for x in none]}}


def main():
    bos = load_script()
    quiet = [1.0] * 10
    errors = []

    if bos.ceiling_failures(walls(quiet, 1.10)):
        errors.append("1.10x failed the 1.15x ceiling")

    failures = bos.ceiling_failures(walls(quiet, 1.30))
    if len(failures) != 1:
        errors.append(f"1.30x gave {len(failures)} failures, want 1")
    else:
        for part in ("change", "attribution", "1.30x", "1.15x"):
            if part not in failures[0]:
                errors.append(f"failure {failures[0]!r} lacks {part!r}")

    # Quartiles 0.9 and 1.1 around a median of 1.0: IQR/median 0.2.
    noisy = [0.8, 0.9, 0.9, 1.0, 1.0, 1.0, 1.1, 1.1, 1.2]
    median, iqr = bos.median_iqr(noisy)
    if not math.isclose(iqr / median, 0.2):
        errors.append(f"noisy samples read IQR/median {iqr / median}")
    ratio, ceiling = bos.attribution_ceiling(walls(noisy, 1.30)["change"])
    if not math.isclose(ceiling, 1.4) or not math.isclose(ratio, 1.3):
        errors.append(f"noisy ceiling {ceiling}, ratio {ratio}:"
                      " want 1.4 and 1.3")
    if bos.ceiling_failures(walls(noisy, 1.30)):
        errors.append("1.30x failed the widened 1.4x ceiling")
    if not bos.ceiling_failures(walls(noisy, 1.45)):
        errors.append("1.45x passed the widened 1.4x ceiling")

    for e in errors:
        print(f"FAIL: {e}")
    if not errors:
        print("attribution ceiling: 1.10x passes, 1.30x fails,"
              " noise widens it to 1.4x")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
