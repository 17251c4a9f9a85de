#!/usr/bin/env python3
"""Validate the --timeline output of a bench binary.

Runs a small fig16 configuration twice with --timeline and checks the
emitted Chrome trace_event JSON ("minnow-timeline-1"):

  * the document parses and carries the expected otherData block;
  * metadata ("M") events name every process and thread;
  * non-metadata timestamps are monotonically non-decreasing (the
    exporter emits one globally time-sorted stream);
  * every "B" has a matching "E" on the same (pid, tid) — the
    begin/end stream forms balanced, properly nested stacks;
  * instants use the thread scope ("s": "t") and counters carry a
    numeric args.value;
  * the trace contains the load-bearing content: task spans on a core
    track, threadlet lifetime spans, and at least one credit counter
    track;
  * flow events ("s"/"t"/"f") form complete arrows: every flow id
    opens with exactly one start, closes with exactly one end
    (carrying "bp": "e"), keeps one name across its legs, and its
    timestamps are monotonically non-decreasing — no dangling
    starts, no orphan steps;
  * a third run with --attribution contains both prefetch and
    lineage flow arrows (the causal-attribution layer), and
    scripts/trace_summary.py reads it, exits 0 and prints its flow
    table;
  * two runs with the same seed produce byte-identical files
    (determinism contract).

Usage: check_trace_json.py <path-to-fig16-binary>
Exit status 0 on success; prints the first failure otherwise.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"check_trace_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bench(bench, trace_path, extra=()):
    cmd = [
        bench,
        "--workloads=sssp",
        "--scale=0.04",
        "--threads=4",
        "--cores=4",
        f"--timeline={trace_path}",
    ] + list(extra)
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        fail(
            f"bench exited {proc.returncode}:\n{proc.stdout}"
            f"\n{proc.stderr}"
        )


def check_summary(trace):
    """trace_summary.py reads the --attribution trace."""
    summary = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_summary.py")
    proc = subprocess.run([sys.executable, summary, trace],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"trace_summary.py exited {proc.returncode}:"
             f"\n{proc.stderr}")
    if "flows (causal arrows, --attribution):" not in \
            proc.stdout.splitlines():
        fail("trace_summary.py printed no flow table")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")


def check_document(doc):
    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail("otherData missing")
    for key in ("droppedEvents", "recordedEvents", "capacity"):
        v = other.get(key)
        if not isinstance(v, int) or v < 0:
            fail(f"otherData.{key} missing or negative")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    return events


def check_events(events):
    named_pids = set()
    named_tids = set()
    stacks = {}
    last_ts = -1
    saw_task_begin = False
    saw_threadlet = False
    credit_tracks = set()
    flows = {}

    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "process_name":
                named_pids.add(e.get("pid"))
            if e.get("name") == "thread_name":
                named_tids.add((e.get("pid"), e.get("tid")))
            continue
        ts = e.get("ts")
        if not isinstance(ts, int) or ts < 0:
            fail(f"event {i}: bad ts {ts!r}")
        if ts < last_ts:
            fail(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
        key = (e.get("pid"), e.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(i)
            if e.get("name") == "task":
                saw_task_begin = True
            if e.get("cat") == "threadlet":
                saw_threadlet = True
        elif ph == "E":
            st = stacks.get(key)
            if not st:
                fail(f"event {i}: E with empty stack on {key}")
            st.pop()
        elif ph == "i":
            if e.get("s") != "t":
                fail(f"event {i}: instant without thread scope")
        elif ph == "C":
            value = e.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(f"event {i}: counter without numeric value")
            if e.get("name", "").endswith(".credits"):
                credit_tracks.add(key)
        elif ph in ("s", "t", "f"):
            fid = e.get("id")
            if not isinstance(fid, int):
                fail(f"event {i}: flow leg without integer id")
            if ph == "f" and e.get("bp") != "e":
                fail(f"event {i}: flow end without bp=e binding")
            flows.setdefault(fid, []).append(
                (ts, ph, e.get("name"), i)
            )
        else:
            fail(f"event {i}: unknown phase {ph!r}")

    for key, st in stacks.items():
        if st:
            fail(f"{len(st)} unterminated B events on {key}")
    for key in stacks:
        if key not in named_tids:
            fail(f"span track {key} has no thread_name metadata")
    if not saw_task_begin:
        fail("no task span in the trace")
    if not saw_threadlet:
        fail("no threadlet-category span in the trace")
    if not credit_tracks:
        fail("no *.credits counter track in the trace")

    flow_names = set()
    for fid, legs in flows.items():
        phases = [ph for _, ph, _, _ in legs]
        if phases[0] != "s":
            fail(f"flow {fid}: first leg is {phases[0]!r}, not 's'")
        if phases[-1] != "f":
            fail(f"flow {fid}: dangling start (no 'f' leg)")
        if phases.count("s") != 1 or phases.count("f") != 1:
            fail(f"flow {fid}: unbalanced s/f legs {phases}")
        if any(ph != "t" for ph in phases[1:-1]):
            fail(f"flow {fid}: non-step leg in the middle {phases}")
        names = {name for _, _, name, _ in legs}
        if len(names) != 1:
            fail(f"flow {fid}: mixed names {sorted(names)}")
        ts_list = [ts for ts, _, _, _ in legs]
        if ts_list != sorted(ts_list):
            fail(f"flow {fid}: non-monotonic timestamps {ts_list}")
        flow_names.add(names.pop())
    return flow_names


def main():
    if len(sys.argv) != 2:
        fail("usage: check_trace_json.py <fig16-binary>")
    bench = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.json")
        b = os.path.join(tmp, "b.json")
        attr = os.path.join(tmp, "attr.json")
        run_bench(bench, a)
        run_bench(bench, b)
        if not filecmp.cmp(a, b, shallow=False):
            fail("same-seed runs produced different trace files")
        events = check_document(load(a))
        check_events(events)

        run_bench(bench, attr, ["--attribution"])
        attr_events = check_document(load(attr))
        flow_names = check_events(attr_events)
        for name in ("prefetch", "lineage"):
            if name not in flow_names:
                fail(
                    f"--attribution trace has no '{name}' flow "
                    f"arrows (saw {sorted(flow_names)})"
                )
        check_summary(attr)

    print(
        f"check_trace_json: OK ({len(events)} events, "
        f"{len(attr_events)} with attribution flows validated)"
    )


if __name__ == "__main__":
    main()
