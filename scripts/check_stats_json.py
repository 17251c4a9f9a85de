#!/usr/bin/env python3
"""Validate the --stats-json output of a bench binary.

Runs a small fig18 credit sweep with --stats-json, then checks the
emitted document against the "minnow-bench-stats-1" schema: every run
entry must carry its identifying parameters plus a full
"minnow-stats-1" registry snapshot, and the minnow-pf runs must
expose the acceptance metrics (per-core L2 MPKI, prefetch
coverage/accuracy, credit-stall counters).

Every run must carry the always-on "tasks" group (the popWait,
dequeue, execute and push histograms with P50/P95/P99 each; DESIGN.md
5c) with one dequeue per executed task, and on Galois runs one per
worklist pop; point_runner adds an obim and a bsp point so those
executors are checked too (BSP executes without dequeues).

The sweep runs with --host-profile=true, --timeline and
--attribution, so the snapshot must also carry the observability
groups: "hostprof" (host wall-clock attribution), "timeline" (record
counts), and "attribution" (the five prefetch lifecycle classes, the
derived coverage and pollution rates, lineage conservation (every
assigned lineage dequeued, none live at exit), and the six latency
histograms with P50/P95/P99), all numeric and non-negative.

Every "minnow<N>" engine group must satisfy the spec-slot
conservation invariant specDeposits == specHits + specReclaims
(DESIGN.md 5h). The point runs twice: once with the default offload
protocol and once with --dequeue-batch=4 --spec-slot, so the bundled
dequeue path and the speculative slot are exercised end to end; the
second run must show bundled tasks and spec deposits.

offload_breakdown's --dequeue-batch sweep then gates two simulated
values: k=4 bundling must pull the worker dequeue P95 strictly below
the k=1 value (the round-trip amortization the batched-dequeue path
exists for), and the k=4 spec-slot point must record specHits > 0.

Usage: check_stats_json.py <path-to-fig18-binary>
                           <path-to-offload_breakdown-binary>
                           <path-to-point_runner-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile


RUN_KEYS = {
    "workload": str,
    "config": str,
    "threads": int,
    "scale": (int, float),
    "seed": int,
    "credits": int,
    "timedOut": bool,
    "verified": bool,
    "cycles": int,
    "instructions": int,
    "l2Mpki": (int, float),
    "stats": dict,
}


def fail(msg):
    print(f"check_stats_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_run_entry(run, i):
    for key, ty in RUN_KEYS.items():
        if key not in run:
            fail(f"runs[{i}] missing key '{key}'")
        ok = isinstance(run[key], ty)
        if ok and ty is int and isinstance(run[key], bool):
            ok = False  # bool is an int subclass; reject it.
        if not ok:
            fail(
                f"runs[{i}].{key} has type "
                f"{type(run[key]).__name__}, wanted {ty}"
            )
    stats = run["stats"]
    if stats.get("schema") != "minnow-stats-1":
        fail(f"runs[{i}].stats.schema != minnow-stats-1")
    groups = stats.get("groups")
    if not isinstance(groups, dict) or not groups:
        fail(f"runs[{i}].stats.groups missing or empty")
    for gname, group in groups.items():
        if not isinstance(group, dict):
            fail(f"runs[{i}] group '{gname}' is not an object")
        for sname, sval in group.items():
            if isinstance(sval, dict):
                if sval.get("type") != "histogram":
                    fail(
                        f"runs[{i}] {gname}.{sname}: object stat "
                        "that is not a histogram"
                    )
                counts = sval.get("counts")
                if not isinstance(counts, list) or not counts:
                    fail(f"runs[{i}] {gname}.{sname}: bad counts")
                if sum(counts) != sval.get("total"):
                    fail(
                        f"runs[{i}] {gname}.{sname}: counts sum "
                        f"{sum(counts)} != total {sval.get('total')}"
                    )
            elif not isinstance(sval, (int, float)):
                fail(f"runs[{i}] {gname}.{sname}: non-numeric stat")
    return groups


def check_minnow_pf_groups(groups, i):
    """The acceptance metrics for an engine+prefetch run."""
    l2 = [g for g in groups if g.startswith("l2_")]
    if not l2:
        fail(f"runs[{i}]: no l2_<N> groups")
    for g in l2:
        if "mpki" not in groups[g]:
            fail(f"runs[{i}]: group {g} lacks mpki")
    mem = groups.get("mem")
    if mem is None:
        fail(f"runs[{i}]: no mem group")
    for key in ("prefetchCoverage", "prefetchAccuracy"):
        if key not in mem:
            fail(f"runs[{i}]: mem group lacks {key}")
    engines = [g for g in groups if g.startswith("minnow")]
    if not engines:
        fail(f"runs[{i}]: no minnow<N> engine groups")
    for g in engines:
        if "creditStalls" not in groups[g]:
            fail(f"runs[{i}]: group {g} lacks creditStalls")


ENGINE_GROUP = re.compile(r"minnow\d+$")


def check_spec_conservation(groups, i):
    """specDeposits == specHits + specReclaims on every engine."""
    engines = [g for g in groups if ENGINE_GROUP.match(g)]
    for g in engines:
        e = groups[g]
        for key in ("specDeposits", "specHits", "specReclaims"):
            if key not in e:
                fail(f"runs[{i}]: group {g} lacks {key}")
        if e["specDeposits"] != e["specHits"] + e["specReclaims"]:
            fail(
                f"runs[{i}]: {g}.specDeposits {e['specDeposits']} != "
                f"specHits {e['specHits']} + specReclaims "
                f"{e['specReclaims']}"
            )
    return engines


def check_attribution_group(groups, i):
    """The --attribution group (prefetch provenance + lineage)."""
    g = groups.get("attribution")
    if g is None:
        fail(f"runs[{i}]: no attribution group")
    for cls in ("timely", "late", "earlyEvicted", "redundant",
                "polluting"):
        if not isinstance(g.get(cls), (int, float)):
            fail(f"runs[{i}]: attribution lacks class '{cls}'")
    for key in ("fills", "stallCyclesCovered", "missAfterEvict",
                "demandMisses", "coveredPct", "pollutionPct",
                "lineageAssigned", "lineageDequeued", "lineageLive",
                "lineageFanout"):
        if key not in g:
            fail(f"runs[{i}]: attribution lacks '{key}'")
    if not (0 <= g["coveredPct"] <= 100):
        fail(f"runs[{i}]: coveredPct out of range")
    if g["lineageLive"] != 0:
        fail(f"runs[{i}]: lineage leak ({g['lineageLive']} live)")
    if g["lineageAssigned"] != g["lineageDequeued"]:
        fail(f"runs[{i}]: lineage not conserved (assigned"
             f" {g['lineageAssigned']}, dequeued {g['lineageDequeued']})")
    for hist in ("issueToFill", "fillToUse", "issueToUse",
                 "pushToEnqueue", "enqueueToDequeue",
                 "dequeueToFirstMiss"):
        h = g.get(hist)
        if not isinstance(h, dict) or h.get("type") != "histogram":
            fail(f"runs[{i}]: attribution lacks histogram {hist}")
        for pct in ("P50", "P95", "P99"):
            if f"{hist}{pct}" not in g:
                fail(f"runs[{i}]: attribution lacks {hist}{pct}")


TASK_METRICS = ("popWait", "dequeue", "execute", "push")


def check_tasks_group(run, groups, i):
    """The per-task probe: one definition under every executor."""
    g = groups.get("tasks")
    if g is None:
        fail(f"runs[{i}]: no tasks group")
    for metric in TASK_METRICS:
        h = g.get(metric)
        if not isinstance(h, dict) or h.get("type") != "histogram":
            fail(f"runs[{i}]: tasks lacks histogram {metric}")
        for pct in ("P50", "P95", "P99"):
            if f"{metric}{pct}" not in g:
                fail(f"runs[{i}]: tasks lacks {metric}{pct}")
    executed = g["execute"]["total"]
    dequeued = g["dequeue"]["total"]
    if executed <= 0:
        fail(f"runs[{i}]: tasks.execute recorded no task")
    if run["config"].startswith("bsp"):
        return  # BSP has no queue: no dequeues, pushes or parks.
    if executed != dequeued:
        fail(f"runs[{i}]: tasks.execute.total {executed} !="
             f" tasks.dequeue.total {dequeued}")
    if not run["config"].startswith("minnow"):
        pops = groups.get("worklist", {}).get("pops")
        if dequeued != pops:
            fail(f"runs[{i}]: tasks.dequeue.total {dequeued} !="
                 f" worklist.pops {pops}")


def check_observability_groups(groups, i):
    """The --host-profile / --timeline groups (PR 4)."""
    for gname in ("hostprof", "timeline"):
        g = groups.get(gname)
        if g is None:
            fail(f"runs[{i}]: no {gname} group")
        for sname, sval in g.items():
            if isinstance(sval, dict):
                continue  # histograms checked by check_run_entry.
            if not isinstance(sval, (int, float)):
                fail(f"runs[{i}] {gname}.{sname}: non-numeric")
            if sval < 0:
                fail(f"runs[{i}] {gname}.{sname}: negative ({sval})")
    tl = groups["timeline"]
    for key in ("events", "droppedEvents", "bufferCapacity"):
        if key not in tl:
            fail(f"runs[{i}]: timeline group lacks {key}")
    if tl["events"] <= 0:
        fail(f"runs[{i}]: timeline recorded no events")


def run_point(cmd):
    """Run a bench with --stats-json; return the stats doc."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "stats.json")
        cmd = [*cmd, f"--stats-json={out}"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=600
        )
        if proc.returncode != 0:
            fail(
                f"bench exited {proc.returncode}:\n{proc.stdout}"
                f"\n{proc.stderr}"
            )
        try:
            with open(out) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot parse {out}: {e}")


def run_fig18(bench, extra):
    """Run the fig18 point with @extra flags; return the stats doc."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        return run_point([
            bench,
            "--workloads=sssp",
            "--scale=0.05",
            "--threads=4",
            "--cores=4",
            "--credits-list=4",
            "--host-profile=true",
            "--attribution",
            f"--timeline={trace}",
            *extra,
        ])


def check_executors(runner):
    """The tasks group of a Galois (obim) and a BSP point."""
    for config in ("obim", "bsp"):
        doc = run_point([runner, "--workload=sssp", f"--config={config}",
                         "--scale=0.05", "--threads=4", "--cores=4"])
        runs = doc.get("runs")
        if not runs:
            fail(f"point_runner --config={config}: no runs")
        for i, run in enumerate(runs):
            check_tasks_group(run, check_run_entry(run, i), i)


def check_doc(doc, label):
    """Validate one stats document; return its engine-group totals."""
    if doc.get("schema") != "minnow-bench-stats-1":
        fail(f"{label}: top-level schema != minnow-bench-stats-1")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{label}: runs missing or empty")

    saw_pf = False
    totals = {"dequeueBundleTasks": 0, "specDeposits": 0}
    for i, run in enumerate(runs):
        groups = check_run_entry(run, i)
        check_tasks_group(run, groups, i)
        for g in check_spec_conservation(groups, i):
            for key in totals:
                totals[key] += groups[g].get(key, 0)
        if run["config"] == "minnow-pf":
            saw_pf = True
            check_minnow_pf_groups(groups, i)
            check_observability_groups(groups, i)
            check_attribution_group(groups, i)
    if not saw_pf:
        fail(f"{label}: no minnow-pf run in the sweep output")
    return len(runs), totals


def check_offload(offload):
    """k=4 dequeue P95 below k=1, and a delivering spec slot.

    k=1 pops pay a full engine round-trip per task, so a meaningful
    share of them wait >= one dequeue histogram bucket; k=4 bundles
    amortize the round-trip and must pull the P95 strictly below the
    k=1 value on the same workload point.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "offload.json")
        cmd = [
            offload,
            "--workloads=sssp",
            "--scale=0.05",
            "--threads=4",
            "--cores=4",
            "--seed=42",
            "--batch-list=1,2,4,8,4s",
            f"--json={out}",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            fail(f"offload_breakdown exited {proc.returncode}:"
                 f"\n{proc.stdout}\n{proc.stderr}")
        with open(out) as f:
            doc = json.load(f)
    points = {(p["batch"], p.get("specSlot", False)): p
              for p in doc.get("points", [])}
    k1, k4 = points.get((1, False)), points.get((4, False))
    spec = points.get((4, True))
    if not k1 or not k4:
        fail("offload_breakdown output missing the k=1/k=4 points")
    if not spec:
        fail("offload_breakdown output missing the k=4 spec-slot"
             " point (--batch-list '4s' entry)")
    for p in (k1, k4, spec):
        if p["timedOut"]:
            fail(f"offload point k={p['batch']} timed out")
    if k4["dequeueP95"] >= k1["dequeueP95"]:
        fail(f"dequeue batching regression: k=4 dequeueP95"
             f" {k4['dequeueP95']} not below k=1's"
             f" {k1['dequeueP95']}")
    if spec["specHits"] <= 0:
        fail("spec-slot point recorded zero specHits: the core-side"
             " slot is not delivering (or the sweep lost the"
             " --spec-slot plumbing again)")
    return k1["dequeueP95"], k4["dequeueP95"], spec["specHits"]


def main():
    if len(sys.argv) != 4:
        fail("usage: check_stats_json.py <fig18-binary>"
             " <offload_breakdown-binary> <point_runner-binary>")
    bench = sys.argv[1]

    nruns, _ = check_doc(run_fig18(bench, []), "default")
    bundled = ["--dequeue-batch=4", "--spec-slot"]
    nb, totals = check_doc(run_fig18(bench, bundled), " ".join(bundled))
    for key, total in totals.items():
        if total <= 0:
            fail(f"{' '.join(bundled)}: no engine recorded {key}")

    check_executors(sys.argv[3])
    p95_k1, p95_k4, hits = check_offload(sys.argv[2])
    print(f"check_stats_json: OK ({nruns} + {nb} runs validated;"
          f" dequeueP95 k=1 {p95_k1:.0f} -> k=4 {p95_k4:.0f},"
          f" specHits {hits:.0f})")


if __name__ == "__main__":
    main()
