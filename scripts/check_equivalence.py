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
timeline), or the first differing line of text. A row may also name
pairs of checkpoint witnesses its runs save; each pair must be byte
for byte alike, and when it is not, the container's section table is
walked to name the first differing section and the byte in it.

  ckpt *        point_runner saves at anchor 0 twice and at cycles/3
                twice, each save in its own process: every run's
                stats and timeline match the run without checkpoint
                flags, and the two witnesses at each anchor are
                byte-identical (DESIGN.md 5i)
  attribution   --attribution off vs on, its group stripped (5k)
  faults        two runs with the same --faults and --seed, where the
                faults fired (DESIGN.md 5d)
  host-par *    --host-par=1 vs 4: fig18 with --timeline and
                --stats-interval (stats entries of several MB), fig15,
                fig03 with timeouts and --diag-json, fig04 (5j)
  rob-control   negative control: --rob=200 must differ at the named
                path, and its anchor-0 witness first in section
                config, or the comparators are blind
  sigint-farm   SIGINT mid-farm, sent once the first point reports its
                termination (--debug-flags=Monitor): exit 130 once, the
                points that ran recorded in point order, some cut short
  sigint-bsp    SIGINT in a BSP point, sent once its first superstep ends
                (--debug-flags=Bsp): interrupted, not timed out

Rows run concurrently; under a TSan build they are the race detector's
workload, since the point farm is the simulator's only threaded code.

Usage: check_equivalence.py <bench-binary-directory> [row-prefix ...]
Prefixes pick the rows whose names start with one (ctest: one test per
contract). Exit status 0 when every row run passes; prints each
failure otherwise.
"""

import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
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
CKPT_MAGIC = b"minnow-ckpt-4\n"


class Divergence(Exception):
    """A row failed; the message names where."""


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
# default 0), warns/quiet (text stderr must/must not hold), sigint
# (the stderr text to send SIGINT after), differs (path of the first
# difference). A row check returns an error or None. A witness pair
# is (file, file, section): two checkpoints the variants save in the
# row directory, which must be byte-identical, or, when section is
# set, must first differ in that section. point_runner's stdout holds
# host seconds, so it is parsed, not compared.
def row(name, binary, args, variants, files=("stats.json",), check=None,
        strip=None, witnesses=()):
    compared = [*files, *(["stdout"] if binary != "point_runner" else [])]
    return {"name": name, "binary": binary, "args": args,
            "variants": variants, "files": list(files),
            "compared": compared, "check": check, "strip": strip,
            "witnesses": list(witnesses)}


def save(label, ckpt, *flags):
    """A variant that saves a witness to @ckpt in the row directory."""
    return (label, [f"--checkpoint-out=../{ckpt}", *flags], {})


# One run without checkpoint flags, then each anchor saved twice,
# each save in its own process.
CKPT_LEGS = [
    ("cold", [], {}),
    save("save at anchor 0", "a0.1.ckpt"),
    save("save at anchor 0 again", "a0.2.ckpt"),
    save("save at cycles/3", "a3.1.ckpt", "--checkpoint-after={third}"),
    save("save at cycles/3 again", "a3.2.ckpt",
         "--checkpoint-after={third}"),
]
CKPT_WITNESSES = [("a0.1.ckpt", "a0.2.ckpt", None),
                  ("a3.1.ckpt", "a3.2.ckpt", None)]
HOST_PAR = [("--host-par=1", ["--host-par=1"], {}),
            ("--host-par=4", ["--host-par=4"], {})]

ROWS = [
    row("host-par fig18", "fig18_mpki_credits",
        ["--workloads=sssp,bfs", "--threads=16",
         "--credits-list=8,32,64,128", "--scale=0.1",
         "--stats-interval=2000"], HOST_PAR,
        files=["stats.json", "timeline.json"]),
    row("sigint-farm", "fig16_overall_speedup",
        [f"--workloads={','.join(FIG16_WORKLOADS)}", "--threads=16",
         "--scale=1", "--host-par=4", "--debug-flags=Monitor"],
        [("SIGINT after the first point ends", [],
          {"sigint": "termination:", "rc": 130})],
        check=stopped_in_point_order),
    row("sigint-bsp", "point_runner",
        ["--workload=sssp", "--config=bsp", "--scale=2", "--threads=16",
         "--debug-flags=Bsp"],
        [("SIGINT after the first superstep", [],
          {"sigint": "superstep", "rc": 130,
           "warns": "interrupted by signal", "quiet": "timed out"})],
        files=[]),
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
        check=marked(b'"intervals":['), witnesses=CKPT_WITNESSES),
    row("ckpt pr/obim", "point_runner",
        ["--workload=pr", "--config=obim", *CKPT_POINT], CKPT_LEGS,
        check=marked(), witnesses=CKPT_WITNESSES),
    row("ckpt sssp/minnow-pf --attribution", "point_runner",
        ["--workload=sssp", "--config=minnow-pf", *CKPT_POINT,
         "--attribution"], CKPT_LEGS, check=marked(b'"attribution":{'),
        witnesses=CKPT_WITNESSES),
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
        [save("default", "default.ckpt"),
         ("--rob=200", ["--rob=200", "--checkpoint-out=../rob200.ckpt"],
          {"differs": "runs[0].stats.groups.core45.robStallCycles"})],
        witnesses=[("default.ckpt", "rob200.ckpt", "config")]),
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


def ckpt_sections(blob):
    """[(name, payload)] of a checkpoint image (sim/checkpoint.hh):
    the magic, a u32 section count, then per section a u32 name
    length, the name, a u64 payload length, the payload and a u32
    CRC; a u32 file CRC closes the image. Integers are little-endian.
    """
    if not blob.startswith(CKPT_MAGIC):
        raise ValueError(f"does not start with {CKPT_MAGIC!r}")
    pos = len(CKPT_MAGIC)

    def take(n):
        nonlocal pos
        if pos + n > len(blob) - 4:
            raise ValueError(f"truncated at byte {pos}")
        pos += n
        return blob[pos - n:pos]

    out = []
    for _ in range(struct.unpack("<I", take(4))[0]):
        name = take(struct.unpack("<I", take(4))[0]).decode()
        out.append((name, take(struct.unpack("<Q", take(8))[0])))
        take(4)
    if pos != len(blob) - 4:
        raise ValueError(f"{len(blob) - 4 - pos} bytes after the last"
                         " section")
    return out


def witness_difference(a, b):
    """(section, where) two checkpoint images @a, @b first differ in,
    or None when they are byte-identical."""
    if a == b:
        return None
    sa, sb = ckpt_sections(a), ckpt_sections(b)
    for i in range(max(len(sa), len(sb))):
        na, pa = sa[i] if i < len(sa) else (ABSENT, b"")
        nb, pb = sb[i] if i < len(sb) else (ABSENT, b"")
        if na != nb:
            return na, f"section {i} is {na!r} vs {nb!r}"
        if pa != pb:
            j = next((j for j, (x, y) in enumerate(zip(pa, pb))
                      if x != y), min(len(pa), len(pb)))
            return na, f"section {na!r} first differs at byte {j}" \
                f" (of {len(pa)} vs {len(pb)} B)"
    return ABSENT, "sections equal, CRC bytes differ"


def check_witnesses(r, rowdir):
    """Compare row @r's witness pairs; return notes or raise."""
    notes = []
    for fa, fb, want in r["witnesses"]:
        missing = [f for f in (fa, fb) if not Path(rowdir, f).exists()]
        if missing:
            raise Divergence(f"{r['name']}: no run saved {missing}")
        a, b = (Path(rowdir, f).read_bytes() for f in (fa, fb))
        try:
            diff = witness_difference(a, b)
        except ValueError as e:
            raise Divergence(f"{r['name']}: {fa} or {fb} is no"
                             f" checkpoint: {e}")
        if want is None and diff:
            raise Divergence(f"{r['name']}: witness {fa} vs {fb}:"
                             f" {diff[1]}")
        if want is not None and (not diff or diff[0] != want):
            raise Divergence(
                f"{r['name']}: witness {fa} vs {fb} must first differ in"
                f" section {want!r}, found"
                f" {f'{diff[0]!r}: {diff[1]}' if diff else 'no difference'}"
                ": the section walker is blind")
        notes.append(f"{fa} vs {fb}: {diff[1]}, as it must" if diff
                     else f"{fa} = {fb} ({len(a)} B)")
    return notes


def run_variant(r, bench_dir, rowdir, i, fmt):
    """Run variant @i of row @r; return its outputs by artifact."""
    label, flags, want = r["variants"][i]
    vdir = os.path.join(rowdir, str(i))
    os.mkdir(vdir)
    cmd = [os.path.join(bench_dir, r["binary"]), *r["args"],
           *(f.format(**fmt) for f in flags),
           *(f"{FILE_FLAGS[f]}={f}" for f in r["files"])]
    # Unbuffered, so reading stderr up to a line leaves the rest
    # for communicate().
    proc = subprocess.Popen(cmd, cwd=vdir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    head = b""
    sigint = want.get("sigint")
    if sigint:
        # Signal once the text appears, however slow the host: a
        # fixed delay can land before any point has started.
        while line := proc.stderr.readline():
            head += line
            if sigint.encode() in line:
                break
        proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=1200)
    err = (head + stderr).decode()
    tag = f"{r['name']}: {label}"
    last = (err.strip().splitlines() or ["(no stderr)"])[-1]
    if proc.returncode != want.get("rc", 0):
        raise Divergence(f"{tag} exited {proc.returncode}, expected"
                         f" {want.get('rc', 0)}: {last}")
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
    notes += check_witnesses(r, rowdir)
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
