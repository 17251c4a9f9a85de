#!/usr/bin/env python3
"""Check checkpoint/restore A/B equivalence (DESIGN.md section 5i).

Drives point_runner through one table of points x legs. Every point
first runs cold; every leg then reruns it in a fresh process and must
leave --stats-json (and, for the timeline point, --timeline)
byte-identical to the cold run, with no witness mismatch:

  save at anchor 0     --checkpoint-out at the default anchor, before
                       the first event; saving must not perturb
  save at cycles/3     --checkpoint-after=<cold cycles / 3>
  restore at anchor 0  must report "restored"
  restore at cycles/3  must report "restored"
  corrupt file         one flipped byte in the anchor-0 file: the run
                       must warn about the CRC, report not restored
                       and run cold ("warn, never wrong")

Points: sssp/minnow-pf with --timeline and --stats-interval (so the
interval samples are compared too), pr/obim, and sssp/minnow-pf with
--attribution (its tracker state rides in a checkpoint section).

Usage: check_checkpoint_ab.py <path-to-point_runner-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

POINTS = [
    # (workload, config, flags for every run of the point, timeline?)
    ("sssp", "minnow-pf", ["--stats-interval=500"], True),
    ("pr", "obim", [], False),
    ("sssp", "minnow-pf", ["--attribution"], False),
]
SCALE = "0.1"
THREADS = "4"
SEED = "7"


def corrupt(d):
    blob = bytearray(read(os.path.join(d, "a0.ckpt")))
    blob[len(blob) // 2] ^= 0x40
    with open(os.path.join(d, "bad.ckpt"), "wb") as f:
        f.write(blob)


LEGS = [
    # (leg, checkpoint flags, restored?, required stderr, setup)
    ("save at anchor 0", ["--checkpoint-out=a0.ckpt"], False, None,
     None),
    ("save at cycles/3",
     ["--checkpoint-out=a3.ckpt", "--checkpoint-after={third}"], False,
     None, None),
    ("restore at anchor 0", ["--checkpoint-in=a0.ckpt"], True, None,
     None),
    ("restore at cycles/3", ["--checkpoint-in=a3.ckpt"], True, None,
     None),
    ("corrupt file", ["--checkpoint-in=bad.ckpt"], False,
     "CRC mismatch", corrupt),
]


def fail(msg):
    print(f"check_checkpoint_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def run_point(runner, d, workload, config, extra):
    """Run one leg in @d; return (result JSON, stderr)."""
    cmd = [
        runner,
        f"--workload={workload}",
        f"--config={config}",
        f"--scale={SCALE}",
        f"--threads={THREADS}",
        f"--cores={THREADS}",
        f"--seed={SEED}",
    ] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=d,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"point_runner exited {proc.returncode} for "
             f"{workload}/{config} {extra}:\n{proc.stdout}\n"
             f"{proc.stderr}")
    doc = json.loads(proc.stdout)
    if doc.get("schema") != "minnow-point-1":
        fail(f"bad point schema: {proc.stdout!r}")
    if "witness mismatch" in proc.stderr:
        fail(f"{workload}/{config} {extra}: witness mismatch:\n"
             f"{proc.stderr}")
    return doc, proc.stderr


def outputs(run, timeline):
    """Output flags of one run, and the files they name by kind."""
    files = {"stats JSON": f"{run}.json"}
    if timeline:
        files["timeline"] = f"{run}.tl.json"
    flag = {"stats JSON": "--stats-json", "timeline": "--timeline"}
    return [f"{flag[k]}={f}" for k, f in files.items()], files


def check_point(runner, d, workload, config, flags, timeline):
    tag = " ".join([f"{workload}/{config}", *flags])
    out, files = outputs("cold", timeline)
    cold, _ = run_point(runner, d, workload, config, flags + out)
    if cold["restored"]:
        fail(f"{tag}: cold run reported restored")
    if not cold["verified"]:
        fail(f"{tag}: cold run failed verification")
    want = {k: read(os.path.join(d, f)) for k, f in files.items()}
    for flag, marker in (("--stats-interval", b'"intervals":['),
                         ("--attribution", b'"attribution":{')):
        if any(f.startswith(flag) for f in flags) and \
                marker not in want["stats JSON"]:
            fail(f"{tag}: {flag} left no {marker.decode()} in the stats")

    third = max(1, int(cold["cycles"]) // 3)
    for i, (leg, ckpt, restored, needs, setup) in enumerate(LEGS):
        if setup:
            setup(d)
        ckpt = [f.format(third=third) for f in ckpt]
        out, files = outputs(f"leg{i}", timeline)
        doc, err = run_point(runner, d, workload, config,
                             flags + ckpt + out)
        if doc["restored"] != restored:
            fail(f"{tag}: {leg} reported restored={doc['restored']}"
                 f":\n{err}")
        if needs and needs not in err:
            fail(f"{tag}: {leg} did not warn '{needs}':\n{err}")
        for kind, f in files.items():
            if read(os.path.join(d, f)) != want[kind]:
                fail(f"{tag}: {leg} changed the {kind}")

    print(f"check_checkpoint_ab: {tag} OK ({len(want['stats JSON'])}"
          f" bytes; {len(LEGS)} legs byte-identical, anchor {third})")


def main():
    if len(sys.argv) != 2:
        fail("usage: check_checkpoint_ab.py <point_runner-binary>")
    runner = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        for i, (workload, config, flags, timeline) in enumerate(POINTS):
            d = os.path.join(tmp, str(i))
            os.mkdir(d)
            check_point(runner, d, workload, config, flags, timeline)
    print("check_checkpoint_ab: OK")


if __name__ == "__main__":
    main()
