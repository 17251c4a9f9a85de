#!/usr/bin/env python3
"""Check every byte-identity contract from one table.

The table is rows x variants x artifacts. A row runs one bench binary
once per variant, each in a fresh directory; each run must exit as
expected and leave exactly the row's files. Every artifact (stdout of
the figure benches, plus the files) must equal the first variant's
byte for byte. When one does not, both sides are parsed and the first
difference in document order is named: a JSON key path with both
values and the count of differing leaves (plus the runs[i]
workload/config/credits of stats, or both traceEvents[i] of a
timeline), or the first differing line of text.

  ckpt *        point_runner saves at anchor 0 and at cycles/3,
                restores both, and restores a file with one flipped
                byte (must warn "CRC mismatch"); all match the cold
                run, and only the two restores report "restored" (5i)
  attribution   --attribution off vs on, its group stripped (5k)
  faults        two runs with the same --faults and --seed, where the
                faults fired (DESIGN.md 5d)
  host-par *    --host-par=1 vs 4: fig18 with --timeline, fig15, fig03
                with timeouts and --diag-json, fig04 (5j)
  rob-control   negative control: --rob=200 must differ at the named
                path, or the comparator is blind
  sigint-farm   SIGINT mid-farm: exit 130 once, the points that ran
                recorded in point order, some cut short
  sigint-bsp    SIGINT in a BSP point: interrupted, not timed out

No run may warn "witness mismatch". Rows run concurrently; under a
TSan build they are the race detector's workload, since the point
farm is the simulator's only threaded code.

Usage: check_equivalence.py <bench-binary-directory> [row-prefix ...]
Prefixes pick the rows whose names start with one (ctest: one test per
contract). Exit status 0 when every row run passes; prints each
failure otherwise.
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Output file -> the flag that writes it.
FILE_FLAGS = {"stats.json": "--stats-json", "timeline.json": "--timeline",
              "diag.json": "--diag-json"}
CKPT_POINT = ["--scale=0.1", "--threads=4", "--cores=4", "--seed=7"]
FAULTS = ("engine_stall:core=0,at=20000,dur=40000;"
          "dram_delay:p=0.2,add=150;noc_delay:p=0.05,add=80;"
          "drop_prefetch:p=0.3")
FIG16_WORKLOADS = ["sssp", "bfs", "pr"]
ABSENT = "<absent>"  # a key, list item or line only one side has


class Divergence(Exception):
    """A row failed; the message names where."""


def corrupt(rowdir):
    blob = bytearray(Path(rowdir, "a0.ckpt").read_bytes())
    blob[len(blob) // 2] ^= 0x40
    Path(rowdir, "bad.ckpt").write_bytes(blob)


def marked(marker=None):
    """Row check: the cold run verified and its stats hold @marker."""
    def check(outs):
        if not outs[0]["doc"]["verified"]:
            return "cold run failed verification"
        if marker and marker not in outs[0]["stats.json"]:
            return f"no {marker.decode()} in the cold run's stats"
    return check


def faults_fired(outs):
    runs = json.loads(outs[0]["stats.json"])["runs"]
    if not any(r["stats"]["groups"].get("faults", {}).get("clauses", 0)
               > 0 for r in runs):
        return "no run has faults.clauses > 0 (spec not applied?)"


def timeouts(outs):
    if outs[0]["stdout"].count(b"TIMEOUT") < 2:
        return "fewer than 2 TIMEOUT points: --diag-json needs writers"


def stopped_in_point_order(outs):
    if outs[0]["stderr"].count("interrupted by signal") != 1:
        return f"did not report the stop once:\n{outs[0]['stderr']}"
    runs = json.loads(outs[0]["stats.json"])["runs"]
    it = iter([(w, c) for w in FIG16_WORKLOADS
               for c in ("obim", "minnow", "minnow-pf")])
    if not all((r["workload"], r["config"]) in it for r in runs):
        return f"recorded {[(r['workload'], r['config']) for r in runs]}:" \
            " not in point order"
    if all(r["verified"] for r in runs):
        return "recorded no cut-short point"


# A variant is (label, extra flags, expectations): rc (exit status,
# default 0), restored (in the point JSON), warns/quiet (text stderr
# must/must not hold), sigint (seconds to SIGINT), setup (run first,
# on the row directory), differs (path of the first difference). A
# row check returns an error or None. point_runner's stdout holds host
# seconds, so it is parsed, not compared.
def row(name, binary, args, variants, files=("stats.json",), check=None,
        strip=None):
    compared = [*files, *(["stdout"] if binary != "point_runner" else [])]
    return {"name": name, "binary": binary, "args": args,
            "variants": variants, "files": list(files),
            "compared": compared, "check": check, "strip": strip}


CKPT_LEGS = [
    ("cold", [], {"restored": False}),
    ("save at anchor 0", ["--checkpoint-out=../a0.ckpt"],
     {"restored": False}),
    ("save at cycles/3",
     ["--checkpoint-out=../a3.ckpt", "--checkpoint-after={third}"],
     {"restored": False}),
    ("restore at anchor 0", ["--checkpoint-in=../a0.ckpt"],
     {"restored": True}),
    ("restore at cycles/3", ["--checkpoint-in=../a3.ckpt"],
     {"restored": True}),
    ("corrupt file", ["--checkpoint-in=../bad.ckpt"],
     {"restored": False, "warns": "CRC mismatch", "setup": corrupt}),
]
HOST_PAR = [("--host-par=1", ["--host-par=1"], {}),
            ("--host-par=4", ["--host-par=4"], {})]

ROWS = [
    row("host-par fig18", "fig18_mpki_credits",
        ["--workloads=sssp,bfs", "--threads=16",
         "--credits-list=8,32,64,128", "--scale=0.1"], HOST_PAR,
        files=["stats.json", "timeline.json"]),
    row("sigint-farm", "fig16_overall_speedup",
        [f"--workloads={','.join(FIG16_WORKLOADS)}", "--threads=16",
         "--scale=1", "--host-par=4"],
        [("SIGINT after 1 s", [], {"sigint": 1.0, "rc": 130})],
        check=stopped_in_point_order),
    row("sigint-bsp", "point_runner",
        ["--workload=sssp", "--config=bsp", "--scale=2", "--threads=16"],
        [("SIGINT after 0.7 s", [],
          {"sigint": 0.7, "rc": 130, "warns": "interrupted by signal",
           "quiet": "timed out"})], files=[]),
    row("host-par fig15", "fig15_scalability",
        ["--workloads=sssp,bfs", "--threads=8", "--scale=0.1"], HOST_PAR),
    row("host-par fig03", "fig03_scheduler_zoo",
        ["--workloads=sssp,cc", "--threads=4", "--scale=0.1",
         "--max-events=4000"], HOST_PAR,
        files=["stats.json", "diag.json"], check=timeouts),
    row("host-par fig04", "fig04_rob_sweep",
        ["--workloads=sssp", "--threads=4", "--scale=0.05"], HOST_PAR),
    row("ckpt sssp/minnow-pf", "point_runner",
        ["--workload=sssp", "--config=minnow-pf", *CKPT_POINT,
         "--stats-interval=500"], CKPT_LEGS,
        files=["stats.json", "timeline.json"],
        check=marked(b'"intervals":[')),
    row("ckpt pr/obim", "point_runner",
        ["--workload=pr", "--config=obim", *CKPT_POINT], CKPT_LEGS,
        check=marked()),
    row("ckpt sssp/minnow-pf --attribution", "point_runner",
        ["--workload=sssp", "--config=minnow-pf", *CKPT_POINT,
         "--attribution"], CKPT_LEGS, check=marked(b'"attribution":{')),
    row("attribution", "point_runner",
        ["--workload=sssp", "--config=minnow-pf", "--scale=0.05",
         "--threads=8", "--cores=8", "--seed=7"],
        [("off", [], {}), ("on", ["--attribution"], {})],
        strip="attribution"),
    row("faults", "fig18_mpki_credits",
        ["--workloads=sssp", "--scale=0.05", "--threads=4", "--cores=4",
         "--credits-list=4", "--seed=42", f"--faults={FAULTS}"],
        [("run 1", [], {}), ("run 2", [], {})], check=faults_fired),
    row("rob-control", "point_runner",
        ["--workload=sssp", "--config=minnow-pf", "--scale=0.1",
         "--seed=7"],
        [("default", [], {}),
         ("--rob=200", ["--rob=200"],
          {"differs": "runs[0].stats.groups.core45.robStallCycles"})]),
]


def leaf_diffs(a, b, path=""):
    """Yield (path, a, b) for each differing leaf, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in [*a, *(k for k in b if k not in a)]:
            yield from leaf_diffs(a.get(k, ABSENT), b.get(k, ABSENT),
                                  f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from leaf_diffs(a[i] if i < len(a) else ABSENT,
                                  b[i] if i < len(b) else ABSENT,
                                  f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def first_difference(name, a, b):
    """Where artifact @name first differs between bytes @a and @b."""
    try:
        da, db = json.loads(a), json.loads(b)
    except ValueError:
        la, lb = a.decode().splitlines(), b.decode().splitlines()
        i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                 min(len(la), len(lb)))
        line = lambda ls: repr(ls[i]) if i < len(ls) else ABSENT
        return f"{name} first differs at line {i + 1}: {line(la)} vs" \
            f" {line(lb)}"
    diffs = list(leaf_diffs(da, db))
    if not diffs:
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        return f"{name} parses equal but first differs at byte {i}"
    path, x, y = diffs[0]
    where = ""
    m = re.match(r"(runs|traceEvents)\[(\d+)\]", path)
    if m and m[1] == "runs" and int(m[2]) < len(da["runs"]):
        r = da["runs"][int(m[2])]
        where = f" ({r.get('workload')}/{r.get('config')}" \
            f" credits={r.get('credits')})"
    elif m:
        ev = [d["traceEvents"][int(m[2])]
              if int(m[2]) < len(d["traceEvents"]) else ABSENT
              for d in (da, db)]
        where = f" (event {json.dumps(ev[0])} vs {json.dumps(ev[1])})"
    return f"{name} first differs at {path}{where}: {x!r} vs {y!r};" \
        f" {len(diffs)} leaf(s) differ"


def run_variant(r, bench_dir, rowdir, i, fmt):
    """Run variant @i of row @r; return its outputs by artifact."""
    label, flags, want = r["variants"][i]
    vdir = os.path.join(rowdir, str(i))
    os.mkdir(vdir)
    if want.get("setup"):
        want["setup"](rowdir)
    cmd = [os.path.join(bench_dir, r["binary"]), *r["args"],
           *(f.format(**fmt) for f in flags),
           *(f"{FILE_FLAGS[f]}={f}" for f in r["files"])]
    proc = subprocess.Popen(cmd, cwd=vdir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    if want.get("sigint"):
        time.sleep(want["sigint"])
        proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=1200)
    err = stderr.decode()
    tag = f"{r['name']}: {label}"
    last = (err.strip().splitlines() or ["(no stderr)"])[-1]
    if proc.returncode != want.get("rc", 0):
        raise Divergence(f"{tag} exited {proc.returncode}, expected"
                         f" {want.get('rc', 0)}: {last}")
    if "witness mismatch" in err:
        raise Divergence(f"{tag}: witness mismatch:\n{err}")
    if want.get("warns", "") not in err:
        raise Divergence(f"{tag} did not warn '{want['warns']}':\n{err}")
    if want.get("quiet") and want["quiet"] in err:
        raise Divergence(f"{tag} warned '{want['quiet']}': {last}")
    left = sorted(os.listdir(vdir))
    if left != sorted(r["files"]):
        raise Divergence(f"{tag} left {left}, expected {r['files']}")
    out = {f: Path(vdir, f).read_bytes() for f in left}
    out |= {"stdout": stdout, "stderr": err, "doc": None}
    if r["binary"] == "point_runner" and proc.returncode == 0:
        out["doc"] = json.loads(stdout)
        if "restored" in want and \
                out["doc"]["restored"] != want["restored"]:
            raise Divergence(f"{tag} reported restored="
                             f"{out['doc']['restored']}, expected"
                             f" {want['restored']}: {last}")
    for name in r["compared"]:
        if not out[name]:
            raise Divergence(f"{tag} wrote an empty {name}")
    return out


def artifact(r, name, out):
    """@name's bytes in @out, with the row's stats group stripped."""
    if not r["strip"] or name != "stats.json":
        return out[name]
    doc = json.loads(out[name])
    for run in doc["runs"]:
        run["stats"]["groups"].pop(r["strip"], None)
    return json.dumps(doc).encode()


def check_row(r, bench_dir, tmp):
    """Run row @r; return its OK line, or raise Divergence."""
    rowdir = os.path.join(tmp, re.sub(r"\W+", "_", r["name"]))
    os.mkdir(rowdir)
    outs = [run_variant(r, bench_dir, rowdir, 0, {})]
    fmt = {"third": max(1, outs[0]["doc"]["cycles"] // 3)} \
        if outs[0]["doc"] else {}
    outs += [run_variant(r, bench_dir, rowdir, i, fmt)
             for i in range(1, len(r["variants"]))]
    err = r["check"](outs) if r["check"] else None
    if err:
        raise Divergence(f"{r['name']}: {err}")
    names = r["compared"]
    base = [artifact(r, n, outs[0]) for n in names]
    notes = []
    for (label, _, want), out in zip(r["variants"][1:], outs[1:]):
        diffs = [first_difference(n, a, b) for n, a, b in
                 zip(names, base, (artifact(r, n, out) for n in names))
                 if a != b]
        if "differs" in want:
            if not any(want["differs"] in d for d in diffs):
                raise Divergence(
                    f"{r['name']}: {label} must differ at"
                    f" {want['differs']}, found {diffs or 'no difference'}"
                    ": the comparator is blind")
            notes.append(f"{label} differs as it must: {diffs[0]}")
        elif diffs:
            raise Divergence(f"{r['name']}: {label} vs"
                             f" {r['variants'][0][0]}: {diffs[0]}")
    sizes = "".join(f", {n} {len(outs[0][n])} B" for n in names)
    return f"{r['name']} OK ({len(outs)} variant(s){sizes})" + \
        "".join(f"\n  {n}" for n in notes)


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: check_equivalence.py <bench-binary-directory>"
                 " [row-prefix ...]")
    bench_dir = os.path.abspath(sys.argv[1])
    prefixes = tuple(sys.argv[2:])
    rows = [r for r in ROWS if r["name"].startswith(prefixes or "")]
    if not all(any(r["name"].startswith(p) for r in rows) for p in prefixes):
        sys.exit(f"check_equivalence: a prefix of {prefixes} picks no row")
    failed = False
    with tempfile.TemporaryDirectory() as tmp, \
            ThreadPoolExecutor(max_workers=4) as pool:
        jobs = [pool.submit(check_row, r, bench_dir, tmp) for r in rows]
        for job in jobs:
            try:
                print(f"check_equivalence: {job.result()}")
            except Divergence as e:
                failed = True
                print(f"check_equivalence: FAIL: {e}", file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
