#!/usr/bin/env python3
"""Host-speed benchmark of the Minnow simulator.

Builds the simulator from source into .bench_build/, runs one
workload (a fixed set of simulation points) repeatedly for
--seconds, checks every point, and prints each metric by name and
unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload engine-sssp --seed 1 \
        --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with
host times scaled by a fixed reference kernel (host_ref.cc) timed on
the same CPU around every process; --trace 1 is a separate run that
reports the per-layer metrics.
--workload all runs every workload in turn. See perfbench/README.md
for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RECORDS = ROOT / ".bench_build" / "records.jsonl"

BENCH_TARGETS = ["point_runner", "fig16_overall_speedup",
                 "fig18_mpki_credits", "fig19_speedup_credits",
                 "fig20_prefetch_efficiency", "micro_substrate"]
HOST_TIME_BUILD_TYPES = ("Release", "RelWithDebInfo")
STEP_TIMEOUT_S = 60
MIN_REPS = 3
# Seconds of repeated set-up before each repetition, shared by the
# input classes; each class is built at least three times.
SETUP_BUDGET_S = 0.25
# host_ref (host_ref.cc) runs after every process of the untraced run.
# Host times are divided by the host slowness it measures and reported
# in seconds of a host on which it takes REF_NOMINAL_S, about its time
# on a quiet 4-CPU host, so the shared host's changes in speed cancel.
REF_ITERS = 500000
REF_NOMINAL_S = 0.1
SMOKE_SCALE = 0.1  # --smoke multiplies every scale by this

# A step is one process: a bench binary, its flags (without --scale,
# --seed and --stats-json, which run_rep adds) and the number of
# simulation points its stats JSON must hold.
Step = namedtuple("Step", "label binary args points")
Workload = namedtuple("Workload", "scale apps steps")

SINKS = ["--timeline={work}/timeline.json", "--attribution",
         "--stats-interval=2000"]
SWEEP = ["--workloads=sssp,bfs", "--threads=16", "--credits-list=8,32"]


def point(app, config, extra=(), label="point"):
    return Step(label, "point_runner",
                [f"--workload={app}", f"--config={config}",
                 "--threads=64", *extra], 1)


# Scales are set so that one repetition takes about 2-3 s on a 4-CPU
# host: many repetitions give a steadier median, and a process shorter
# than about 2 s is tracked poorly by the host_ref passes around it.
WORKLOADS = {
    "engine-sssp": Workload(3.0, ["sssp"], [point("sssp", "minnow-pf")]),
    "galois-pr": Workload(0.6, ["pr"], [point("pr", "obim")]),
    "eval-slice": Workload(0.15, ["bfs", "g500", "cc", "tc", "bc", "sssp"], [
        Step("fig16", "fig16_overall_speedup",
             ["--workloads=bfs,g500,cc,tc,bc", "--threads=16"], 15),
        Step("fig18", "fig18_mpki_credits", SWEEP, 6),
        Step("fig19", "fig19_speedup_credits", SWEEP, 6),
        Step("fig20", "fig20_prefetch_efficiency", SWEEP, 10),
    ]),
    "observed-sssp": Workload(0.5, ["sssp"],
                              [point("sssp", "minnow-pf", SINKS)]),
}

# Cross-workload probes, run identically in every traced run.
OBS_SCALE = WORKLOADS["observed-sssp"].scale
OBS_PROBE = Workload(OBS_SCALE, [], [point("sssp", "minnow-pf",
                                           label="obs-off")])
OBS_PROBE_ON = Workload(OBS_SCALE, [], [point("sssp", "minnow-pf", SINKS,
                                              label="obs-on")])
FARM_PROBE_SCALE = 0.25

# Which end-to-end metric, on which workload, each per-layer metric
# should move (README.md explains each row).
LAYER_MOVES = {
    "sim.eq_ns_per_event": ("wall_s", "engine-sssp"),
    "sim.eq_far_ns_per_event": ("wall_s", "engine-sssp"),
    "mem.cache_lookup_ns": ("wall_s", "galois-pr"),
    "mem.access_load_ns": ("wall_s", "galois-pr"),
    "mem.access_shared_write_ns": ("wall_s", "galois-pr"),
    "cpu.load_ns": ("wall_s", "engine-sssp"),
    "graph.generate_s": ("setup_s", "eval-slice"),
    "hostprof.ns_per_event": ("wall_s", "engine-sssp"),
    "hostprof.events": ("wall_s", "engine-sssp"),
    "hostprof.overhead": ("wall_s", "engine-sssp"),
    "cpu.host_share": ("wall_s", "engine-sssp"),
    "mem.host_share": ("wall_s", "galois-pr"),
    "minnow.host_share": ("wall_s", "engine-sssp"),
    "worklist.host_share": ("wall_s", "galois-pr"),
    "unattributed.host_share": ("wall_s", "engine-sssp"),
    "cpu.ns_per_call": ("wall_s", "engine-sssp"),
    "mem.ns_per_call": ("wall_s", "galois-pr"),
    "minnow.ns_per_call": ("wall_s", "engine-sssp"),
    "worklist.ns_per_call": ("wall_s", "galois-pr"),
    "mem.l2_mpki": ("sim_cycles", "galois-pr"),
    "mem.noc_messages": ("wall_s", "galois-pr"),
    "mem.dram_accesses": ("sim_cycles", "galois-pr"),
    "mem.invalidations_sent": ("wall_s", "galois-pr"),
    "mem.prefetch_fills": ("sim_cycles", "engine-sssp"),
    "mem.prefetch_accuracy": ("sim_cycles", "engine-sssp"),
    "minnow.dequeues": ("wall_s", "engine-sssp"),
    "minnow.dequeue_local_hit_rate": ("sim_cycles", "engine-sssp"),
    "minnow.threadlets_spawned": ("wall_s", "engine-sssp"),
    "minnow.credit_stalls": ("sim_cycles", "engine-sssp"),
    "worklist.spills": ("wall_s", "engine-sssp"),
    "worklist.software_pops": ("wall_s", "galois-pr"),
    "obs.overhead": ("wall_s", "observed-sssp"),
    "parallel.farm_speedup": ("wall_s", "eval-slice"),
}

# micro_substrate benchmark -> per-layer metric (ns per item).
MICRO = {
    "BM_EventQueueScheduleRun": "sim.eq_ns_per_event",
    "BM_EventQueueFarFutureMix": "sim.eq_far_ns_per_event",
    "BM_CacheLookupHit": "mem.cache_lookup_ns",
    "BM_MemorySystemAccess": "mem.access_load_ns",
    "BM_OooCoreLoad": "cpu.load_ns",
}

# hostprof class -> (ns stat, calls stat) in the "hostprof" group.
HOST_CLASSES = {"cpu": ("coreNs", "coreCalls"),
                "mem": ("memoryNs", "memoryCalls"),
                "minnow": ("engineNs", "engineCalls"),
                "worklist": ("worklistNs", "worklistCalls")}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit nonzero, no JSON)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Configure and build every binary the benchmark drives."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    # Configuring every time keeps the target list current when a
    # CMakeLists.txt changes; a configured tree takes about a second.
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DMINNOW_SANITIZE="],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "layer_probe", "host_ref", *BENCH_TARGETS]]
    t0 = time.perf_counter()
    with open(build_log, "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out,
                              stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    log(f"build: {time.perf_counter() - t0:.1f} s ({build_log})")


def binary(name):
    return BUILD / name if name in ("layer_probe", "host_ref") else \
        BUILD / "minnow" / "bench" / name


def provenance():
    """Commit, host and build settings stamped on every record."""
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = subprocess.run([cache["CMAKE_CXX_COMPILER"], "--version"],
                              capture_output=True, text=True,
                              check=True).stdout.splitlines()[0]
    tree = hashlib.sha256()
    for path in sorted(p for d in ("src", "bench", "perfbench")
                       for p in (ROOT / d).rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"commit": commit, "source_sha256": tree.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": compiler,
            "sanitizer": cache.get("MINNOW_SANITIZE", "")}


def check_provenance(prov):
    """Host time from a sanitizer or unoptimised build is not reported."""
    if prov["build_type"] not in HOST_TIME_BUILD_TYPES:
        raise BenchError(f"refusing to report host time from a "
                         f"'{prov['build_type']}' build")
    if prov["sanitizer"]:
        raise BenchError(f"refusing to report host time from a "
                         f"{prov['sanitizer']}-sanitizer build")


# ------------------------------------------------------------ processes

def run_child(cmd, out):
    """Run @p cmd to completion; return (exit code, wall s, peak RSS MiB).

    The command runs under child.py in its own session, which the
    timer kills whole after STEP_TIMEOUT_S.
    """
    report = WORK / "child.json"
    report.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             str(report), *map(str, cmd)],
                            stdout=out, stderr=subprocess.STDOUT, cwd=WORK,
                            start_new_session=True)
    kill = lambda: os.killpg(proc.pid, signal.SIGKILL)  # noqa: E731
    timer = threading.Timer(STEP_TIMEOUT_S, kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if not report.exists():
        return proc.returncode or -1, 0.0, 0.0
    r = json.loads(report.read_text())
    return r["code"], r["wall_s"], r["maxrss_kb"] / 1024.0


def run_probe(args):
    """Run a probe binary and parse the JSON it prints last."""
    out = WORK / "probe.out"
    with open(out, "wb") as f:
        code, _, _ = run_child(args, f)
    text = out.read_text(errors="replace")
    if code:
        raise BenchError(f"{' '.join(map(str, args))} exited {code}:\n"
                         f"{text[-2000:]}")
    return json.loads(text.strip().splitlines()[-1])


def digest(run):
    """Hash of a point's deterministic output: everything in its stats
    JSON entry except the hostprof group (host time)."""
    det = dict(run)
    det["stats"] = {k: v for k, v in run["stats"]["groups"].items()
                    if k != "hostprof"}
    return hashlib.sha256(json.dumps(det, sort_keys=True)
                          .encode()).hexdigest()[:16]


class Rep:
    """One pass over a workload's steps."""

    def __init__(self):
        self.wall = 0.0
        self.step_walls = []
        self.rss = 0.0
        self.attempted = 0
        self.failed = 0
        self.runs = []      # stats JSON entries of the points
        self.digests = []   # (point key, digest)


def run_rep(wl, seed, extra=(), smoke=False, after_step=None):
    """Run every step of @p wl once, calling @p after_step after each."""
    rep = Rep()
    scale = wl.scale * (SMOKE_SCALE if smoke else 1)
    for i, step in enumerate(wl.steps):
        stats = WORK / f"stats{i}.json"
        stats.unlink(missing_ok=True)
        args = [a.format(work=WORK) for a in step.args]
        cmd = [str(binary(step.binary)), *args, f"--scale={scale:g}",
               f"--seed={seed}", f"--stats-json={stats}", *extra]
        with open(WORK / f"step{i}.log", "wb") as out:
            code, wall, rss = run_child(cmd, out)
        if after_step:
            after_step()
        rep.wall += wall
        rep.step_walls.append(wall)
        rep.rss = max(rep.rss, rss)
        rep.attempted += step.points
        runs = []
        if code == 0 and stats.exists():
            runs = json.loads(stats.read_text())["runs"]
        if len(runs) != step.points:
            log(f"FAILED: {' '.join(cmd)} exited {code} with "
                f"{len(runs)}/{step.points} points")
            rep.failed += step.points
            continue
        seen = Counter()
        for r in runs:
            key = (step.label, r["workload"], r["config"], r["credits"],
                   r["threads"], r["scale"])
            seen[key] += 1
            rep.digests.append((key + (seen[key],), digest(r)))
            if r["timedOut"] or not r["verified"]:
                log(f"FAILED: {step.label} point {key} timedOut="
                    f"{r['timedOut']} verified={r['verified']}")
                rep.failed += 1
        rep.runs += runs
    return rep


def digest_failures(reps):
    """Points whose digest differs from the most common digest of the
    same point across every rep of the run."""
    by_key = defaultdict(list)
    for rep in reps:
        for key, d in rep.digests:
            by_key[key].append(d)
    failed = 0
    for key, ds in by_key.items():
        modal = Counter(ds).most_common(1)[0][1]
        if modal != len(ds):
            log(f"FAILED: nondeterministic point {key}: {Counter(ds)}")
            failed += len(ds) - modal
    return failed, by_key


def ref_seconds(iters=REF_ITERS):
    """Wall seconds of one host_ref pass: the host's slowness now."""
    return run_probe([binary("host_ref"), f"--iters={iters}"])["seconds"]


def fastest_cpu():
    """The CPU on which host_ref runs fastest right now. The virtual
    CPUs of a shared host differ in speed from moment to moment, so
    the workload and host_ref are pinned to the same one: host_ref
    then measures the CPU the workload runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    took = {}
    try:
        for c in cpus:
            os.sched_setaffinity(0, {c})
            took[c] = ref_seconds(REF_ITERS // 2)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(cpus, key=took.get)


def generate_seconds(wl, seed, smoke):
    scale = wl.scale * (SMOKE_SCALE if smoke else 1)
    budget = 0.01 if smoke else SETUP_BUDGET_S / len(wl.apps)
    per_class = run_probe([binary("layer_probe"), "generate",
                           f"--workloads={','.join(wl.apps)}",
                           f"--scale={scale:g}", f"--seed={seed}",
                           f"--min-seconds={budget}"])
    return sum(per_class.values())


# -------------------------------------------------------------- metrics

def group_sum(runs, prefix, stat):
    """Sum of @p stat over every stats group named @p prefix or
    @p prefix followed by an index (minnow0, minnow1, ...)."""
    total = 0
    for r in runs:
        for name, group in r["stats"]["groups"].items():
            if name == prefix or (name.startswith(prefix) and
                                  name[len(prefix):].isdigit()):
                total += group.get(stat, 0)
    return total


def ratio(num, den):
    return num / den if den else 0.0


def sim_counts(runs):
    instr = sum(r["instructions"] for r in runs)
    return {
        "mem.l2_mpki": ratio(sum(r["l2Mpki"] * r["instructions"]
                                 for r in runs), instr),
        "mem.noc_messages": group_sum(runs, "mem", "nocMessages"),
        "mem.dram_accesses": group_sum(runs, "mem", "dramAccesses"),
        "mem.invalidations_sent": group_sum(runs, "mem",
                                            "invalidationsSent"),
        "mem.prefetch_fills": group_sum(runs, "mem", "prefetchFills"),
        "mem.prefetch_accuracy": ratio(
            group_sum(runs, "mem", "prefetchUsed"),
            group_sum(runs, "mem", "prefetchFills")),
        "minnow.dequeues": group_sum(runs, "minnow", "dequeues"),
        "minnow.dequeue_local_hit_rate": ratio(
            group_sum(runs, "minnow", "dequeueLocalHits"),
            group_sum(runs, "minnow", "dequeues")),
        "minnow.threadlets_spawned": group_sum(runs, "minnow",
                                               "threadletsSpawned"),
        "minnow.credit_stalls": group_sum(runs, "minnow", "creditStalls"),
        "worklist.spills": group_sum(runs, "worklist", "spills"),
        # Minnow's software fallback pops plus the Galois executor's.
        "worklist.software_pops": group_sum(runs, "worklist",
                                            "softwarePops") +
        group_sum(runs, "worklist", "pops"),
    }


def host_split(runs):
    """hostprof shares of run() wall time; they sum to 1 because the
    profiler's attribution is exclusive and otherNs is the rest."""
    hp = lambda stat: group_sum(runs, "hostprof", stat)  # noqa: E731
    wall = hp("wallNs")
    out = {"hostprof.events": hp("events"),
           "hostprof.ns_per_event": ratio(wall, hp("events")),
           "unattributed.host_share":
               ratio(hp("otherNs") + hp("barrierWaitNs"), wall)}
    for cls, (ns, calls) in HOST_CLASSES.items():
        out[f"{cls}.host_share"] = ratio(hp(ns), wall)
        out[f"{cls}.ns_per_call"] = ratio(hp(ns), hp(calls))
    return out


def micro_metrics(smoke):
    names = "|".join(MICRO)
    out = WORK / "micro.json"
    with open(WORK / "micro.log", "wb") as f:
        code, _, _ = run_child(
            [str(binary("micro_substrate")),
             f"--benchmark_filter=^({names})$",
             f"--benchmark_min_time={0.01 if smoke else 0.05}",
             "--benchmark_repetitions=3",
             "--benchmark_report_aggregates_only=true",
             f"--benchmark_out={out}", "--benchmark_out_format=json"], f)
    if code:
        raise BenchError(f"micro_substrate exited {code}")
    metrics = {}
    for b in json.loads(out.read_text())["benchmarks"]:
        if b.get("aggregate_name") == "median":
            metrics[MICRO[b["run_name"]]] = 1e9 / b["items_per_second"]
    return metrics


# ------------------------------------------------------------ measuring

HARD_LIMIT_S = 140  # stop repeating well before the 180 s run limit

FARM_SERIAL = Workload(FARM_PROBE_SCALE, [], [Step(
    "farm", "fig18_mpki_credits",
    SWEEP + ["--host-par=1"], 6)])
FARM_PARALLEL = Workload(FARM_PROBE_SCALE, [], [Step(
    "farm", "fig18_mpki_credits", SWEEP + ["--host-par=2"], 6)])


def keep_going(start, seconds, reps_done, next_rep_s, min_reps=MIN_REPS):
    elapsed = time.perf_counter() - start
    if elapsed + next_rep_s > HARD_LIMIT_S:
        return False
    return reps_done < min_reps or elapsed + next_rep_s <= seconds


def measure_end_to_end(name, seed, seconds, smoke):
    """Untraced run, pinned to one CPU: repeat set-up and workload for
    --seconds. See end_to_end_reps."""
    start = time.perf_counter()
    every_cpu = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {fastest_cpu()})
    try:
        return end_to_end_reps(WORKLOADS[name], seed, seconds, smoke, start)
    finally:
        os.sched_setaffinity(0, every_cpu)


def end_to_end_reps(wl, seed, seconds, smoke, start):
    """A host_ref pass runs first and after every process. Each host
    time is divided by the host slowness that the two passes around it
    measure; each timing is a list with one sample per repetition."""
    refs = [ref_seconds()]
    slow = lambda i: (refs[i] + refs[i + 1]) / 2 / REF_NOMINAL_S  # noqa: E731
    setups, walls, reps, cycle_s = [], [], [], []
    while not reps or keep_going(start, seconds, len(reps),
                                 statistics.median(cycle_s)):
        t0 = time.perf_counter()
        first = len(refs) - 1
        setup = generate_seconds(wl, seed, smoke)
        rep = run_rep(wl, seed, smoke=smoke,
                      after_step=lambda: refs.append(ref_seconds()))
        # The set-up shares the first step's pair of passes.
        setups.append(setup / slow(first))
        walls.append(sum(w / slow(first + i)
                         for i, w in enumerate(rep.step_walls)))
        reps.append(rep)
        cycle_s.append(time.perf_counter() - t0)
    metrics = {
        "wall_s": walls,
        "sim_kips": [sum(x["instructions"] for x in r.runs) / w / 1e3
                     for r, w in zip(reps, walls)],
        "setup_s": setups,
        "host_wall_s": [r.wall for r in reps],
        "host_ref_s": refs,
        # Peak over the run: the largest process of any repetition.
        "peak_rss_mb": [max(r.rss for r in reps)],
        "sim_cycles": [sum(x["cycles"] for x in r.runs) for r in reps],
    }
    return metrics, reps


def measure_layers(name, seed, seconds, smoke):
    """Traced run: layer probes, cross-workload probes, then
    alternating untraced and --host-profile repetitions."""
    wl = WORKLOADS[name]
    start = time.perf_counter()
    metrics = {k: [v] for k, v in micro_metrics(smoke).items()}
    write = run_probe([binary("layer_probe"), "shared-write",
                       f"--accesses={20000 if smoke else 200000}"])
    metrics["mem.access_shared_write_ns"] = [write["ns_per_access"]]
    metrics["graph.generate_s"] = [generate_seconds(wl, seed, smoke)]

    obs_off = run_rep(OBS_PROBE, seed, smoke=smoke)
    obs_on = run_rep(OBS_PROBE_ON, seed, smoke=smoke)
    metrics["obs.overhead"] = [obs_on.wall / obs_off.wall]
    farm1 = run_rep(FARM_SERIAL, seed, smoke=smoke)
    farm2 = run_rep(FARM_PARALLEL, seed, smoke=smoke)
    metrics["parallel.farm_speedup"] = [farm1.wall / farm2.wall]
    reps = [obs_off, obs_on, farm1, farm2]

    plain, traced = [], []
    while not plain or keep_going(start, seconds, len(plain),
                                  plain[-1].wall + traced[-1].wall,
                                  min_reps=1):
        plain.append(run_rep(wl, seed, smoke=smoke))
        traced.append(run_rep(wl, seed, ["--host-profile"], smoke))
    reps += plain + traced
    metrics["hostprof.overhead"] = [
        statistics.median(t.wall for t in traced) /
        statistics.median(p.wall for p in plain)]
    # Shares come from one traced repetition (the median one), so
    # they sum to 1; the simulated counts are the same in every rep.
    mid = sorted(traced, key=lambda r: r.wall)[len(traced) // 2]
    for k, v in {**host_split(mid.runs), **sim_counts(mid.runs)}.items():
        metrics[k] = [v]
    return metrics, reps


# -------------------------------------------------------------- reports

def summarise(values):
    """(median, first quartile, third quartile, sample count)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def run_workload(name, args, spec, prov):
    trace = args.trace == 1
    listed = spec["per_layer" if trace else "end_to_end"]
    measure = measure_layers if trace else measure_end_to_end
    print(f"== {name} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if trace else 'untraced'}"
          f"{', smoke scale' if args.smoke else ''})")
    samples, reps = measure(name, args.seed, args.seconds, args.smoke)
    unstable, by_key = digest_failures(reps)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps) + unstable

    metrics = {}
    for m in listed:
        if m["name"] not in samples:
            raise BenchError(f"metric {m['name']} was not measured")
        med, q1, q3, n = summarise(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:<30} {med:>16.6f} {m['unit']:<10} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    if "host_ref_s" in samples:
        print(f"  unscaled: host wall median "
              f"{statistics.median(samples['host_wall_s']):.6f} s, host_ref "
              f"median {statistics.median(samples['host_ref_s']):.6f} s "
              f"(times above are scaled to host_ref = {REF_NOMINAL_S} s)")
    print(f"  points: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); simulated caches "
          f"start empty in every point")
    point_digests = {"/".join(map(str, k)): Counter(v).most_common(1)[0][0]
                     for k, v in sorted(by_key.items())}
    combined = hashlib.sha256(json.dumps(point_digests).encode())
    print(f"  stats digest {combined.hexdigest()[:16]} over "
          f"{len(point_digests)} distinct points")
    with open(RECORDS, "a") as f:
        f.write(json.dumps({"provenance": prov, "workload": name,
                            "seed": args.seed, "seconds": args.seconds,
                            "trace": args.trace, "smoke": args.smoke,
                            "attempted": attempted, "failed": failed,
                            "samples": samples,
                            "digests": point_digests}) + "\n")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    spec = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"scale every input by {SMOKE_SCALE} "
                         "(for perfbench/smoke_test.py)")
    args = ap.parse_args()

    build()
    prov = provenance()
    check_provenance(prov)
    print("provenance: " + json.dumps(prov))
    WORK.mkdir(parents=True, exist_ok=True)
    todo = names if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args, spec, prov) for n in todo}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
