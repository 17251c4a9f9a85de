/**
 * @file
 * Shared driver code for the per-figure/table bench binaries.
 *
 * Every bench accepts:
 *   --scale=<f>     input scale factor (default per bench)
 *   --threads=<n>   worker count for the headline runs
 *   --workloads=a,b comma list (default: all seven)
 *   --seed=<n>      generator seed
 *   --max-events=<n> timeout knob
 *   --stats-json=<path> machine-readable per-run stats dump
 *                   (schema "minnow-bench-stats-1"; every run's
 *                   full StatsRegistry snapshot rides along)
 * plus the machine overrides understood by
 * MachineConfig::applyOptions (--rob=, --credits=, --mem-channels=,
 * ...). The credit-sweep benches (18/19/20) additionally take
 * --credits-list=a,b to override the swept credit counts.
 *
 * Offload round-trip knobs (applyOptions; see DESIGN.md section 5h):
 *   --dequeue-batch=<k>  one engine round-trip returns up to k tasks
 *                        (default 1: single-task calls, bit-for-bit
 *                        with earlier builds).
 *   --spec-slot          engine speculatively delivers the next task
 *                        into a core-side slot so a hitting dequeue
 *                        skips the round-trip entirely.
 *   offload_breakdown additionally takes --batch-list=a,b and
 *   --json=<path> (schema "minnow-offload-1").
 *
 * Host parallelism (DESIGN.md section 5j):
 *   --host-par=<n>    run a bench's independent points on n host
 *                     threads (default 1). Every output — stdout,
 *                     --stats-json, --timeline — is byte-identical
 *                     to a serial run.
 * SIGINT/SIGTERM stop every running point at its next event
 * boundary; once all have stopped, --stats-json and the panic hooks
 * are flushed and the bench exits 128+signal. (point_runner also
 * writes a rescue checkpoint; its checkpoint flags are its own.)
 *
 * Robustness knobs (also via applyOptions; see DESIGN.md "Fault
 * model"):
 *   --faults=<spec>   deterministic fault injection, e.g.
 *                     --faults="engine_stall:core=3,at=50000,dur=20000;
 *                               noc_delay:p=0.01,add=200"
 *                     Replays are reproduced by the same spec plus
 *                     the same --seed.
 *   --watchdog=<n>    check forward progress every n cycles; after
 *                     --watchdog-checks (default 4) stale checks the
 *                     run dumps a diagnostic and aborts.
 *   --diag-json=<path>   write the watchdog/budget diagnostic
 *                        (schema "minnow-diag-1") to a file too.
 *   --panic-stats=<path> best-effort stats snapshot on panic()
 *                        (default minnow-panic-stats.json).
 *
 * Observability knobs:
 *   --debug-file=<path>  route DPRINTF debug-flag records to a file
 *                        instead of stderr (fatal if unwritable).
 *   --timeline=<path>    record simulated-time span/instant/counter
 *                        events and write a Chrome trace_event JSON
 *                        (open in Perfetto) at the end of the run;
 *                        a multi-point bench leaves the last
 *                        point's trace. Adds a "timeline" stats group
 *                        with record counts (the task-latency
 *                        percentiles are always in "tasks").
 *   --timeline-buffer=<n>  ring-buffer capacity in events (default
 *                        262144); on overflow the oldest events are
 *                        dropped and counted.
 *   --timeline-tracks=a,b  category filter, from task, engine,
 *                        threadlet, credit, worklist, mem, sim
 *                        (default all).
 *   --timeline-interval=<n>  counter-track sampling period in cycles
 *                        (default 1024; 0 disables sampling).
 *
 * Driver shape: a bench declares its points (workload, config,
 * threads, machine) as a std::vector<Point>, calls runPoints() and
 * renders its table from the results, which come back in
 * declaration order. Each bench prints the paper's rows/series as a
 * fixed-width table, with the paper's published value alongside
 * where one exists, so shape comparisons are one glance.
 */

#ifndef MINNOW_BENCH_BENCH_COMMON_HH
#define MINNOW_BENCH_BENCH_COMMON_HH

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/options.hh"
#include "base/trace.hh"
#include "base/table.hh"
#include "harness/workloads.hh"
#include "sim/parallel/task_farm.hh"

namespace minnow::bench
{

/**
 * Graceful-stop plumbing: the handler only sets a flag; the event
 * loop polls it at event boundaries, so an interrupted run's
 * simulated prefix stays bit-identical to an uninterrupted one.
 * The flags are atomic because the handler and the farm threads
 * reading them are different host threads; lock-free atomics are
 * async-signal-safe.
 */
static_assert(std::atomic<int>::is_always_lock_free);
inline std::atomic<int> gStopRequested{0};
inline std::atomic<int> gStopSignal{0};

extern "C" inline void
benchSignalHandler(int sig)
{
    gStopSignal = sig;
    gStopRequested = 1;
}

/** Install SIGINT/SIGTERM handlers (called by parseArgs). */
inline void
installSignalHandlers()
{
    std::signal(SIGINT, benchSignalHandler);
    std::signal(SIGTERM, benchSignalHandler);
}

/**
 * Accumulates one JSON entry per benchmark run and writes the whole
 * log as {"schema":"minnow-bench-stats-1","runs":[...]} — each run
 * carries its identifying parameters plus the machine's full
 * StatsRegistry snapshot (schema "minnow-stats-1") under "stats".
 *
 * Each entry keeps its small parameter header and the stats string
 * side by side; add() takes the stats string by rvalue, so the log
 * holds the one copy the run produced and never concatenates it.
 * flush() writes header, stats ("{}" if empty) and the closing
 * brace of each entry in turn.
 *
 * Held by BenchArgs through a shared_ptr, so every run of the
 * process lands in one file. The destructor flushes, so a bench
 * needs no explicit final call.
 */
class StatsJsonLog
{
  public:
    explicit StatsJsonLog(std::string path) : path_(std::move(path))
    {
    }

    ~StatsJsonLog() { flush(); }

    StatsJsonLog(const StatsJsonLog &) = delete;
    StatsJsonLog &operator=(const StatsJsonLog &) = delete;

    /** Append one run; @p statsJson is RunResult::statsJson. */
    void
    add(const std::string &workload, const std::string &config,
        std::uint32_t threads, double scale, std::uint64_t seed,
        std::uint32_t credits, bool timedOut, bool verified,
        Cycle cycles, std::uint64_t instructions, double l2Mpki,
        std::string &&statsJson)
    {
        char buf[64];
        std::string e;
        e += "{\"workload\":\"";
        e += workload;
        e += "\",\"config\":\"";
        e += config;
        e += "\",\"threads\":";
        json::appendU64(e, threads);
        std::snprintf(buf, sizeof buf, "%.6g", scale);
        e += ",\"scale\":";
        e += buf;
        e += ",\"seed\":";
        json::appendU64(e, seed);
        e += ",\"credits\":";
        json::appendU64(e, credits);
        e += ",\"timedOut\":";
        e += timedOut ? "true" : "false";
        e += ",\"verified\":";
        e += verified ? "true" : "false";
        e += ",\"cycles\":";
        json::appendU64(e, cycles);
        e += ",\"instructions\":";
        json::appendU64(e, instructions);
        std::snprintf(buf, sizeof buf, "%.6g", l2Mpki);
        e += ",\"l2Mpki\":";
        e += buf;
        e += ",\"stats\":";
        entries_.push_back(Entry{std::move(e), std::move(statsJson)});
        dirty_ = true;
    }

    /** Write (or rewrite) the log file. */
    void
    flush()
    {
        if (!dirty_)
            return;
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (!f) {
            std::fprintf(stderr,
                         "WARNING: cannot write stats json %s\n",
                         path_.c_str());
            return;
        }
        std::fputs("{\"schema\":\"minnow-bench-stats-1\","
                   "\"runs\":[",
                   f);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            if (i)
                std::fputc(',', f);
            std::fwrite(e.head.data(), 1, e.head.size(), f);
            if (e.stats.empty())
                std::fputs("{}", f);
            else
                std::fwrite(e.stats.data(), 1, e.stats.size(), f);
            std::fputc('}', f);
        }
        std::fputs("]}\n", f);
        std::fclose(f);
        dirty_ = false;
    }

  private:
    /** One run: its parameters up to "stats":, and the stats. */
    struct Entry
    {
        std::string head;
        std::string stats;
    };

    std::string path_;
    std::vector<Entry> entries_;
    bool dirty_ = true; //!< start true: an empty log still writes.
};

/** Parsed common flags. */
struct BenchArgs
{
    double scale = 1.0;
    std::uint32_t threads = 64;
    std::uint64_t seed = 1;
    std::uint64_t maxEvents = 400'000'000;
    std::vector<std::string> workloads;
    std::shared_ptr<StatsJsonLog> statsJson; //!< --stats-json log.
    std::uint32_t hostPar = 1; //!< --host-par: runPoints' threads.
    MachineConfig machine;

    BenchArgs() : machine(scaledMachine()) {}
};

/** Parse common flags; @p defaultScale tunes per-bench run time. */
inline BenchArgs
parseArgs(const Options &opts, double defaultScale = 1.0,
          std::uint32_t defaultThreads = 64)
{
    BenchArgs a;
    a.scale = opts.getDouble("scale", defaultScale);
    a.threads =
        std::uint32_t(opts.getUint("threads", defaultThreads));
    a.seed = opts.getUint("seed", 1);
    a.maxEvents = opts.getUint("max-events", a.maxEvents);
    std::string dbg = opts.getString("debug-file", "");
    if (!dbg.empty())
        trace::setOutputFile(dbg);
    trace::enableList(opts.getString("debug-flags", ""));
    std::string sj = opts.getString("stats-json", "");
    if (!sj.empty())
        a.statsJson = std::make_shared<StatsJsonLog>(sj);
    a.hostPar = std::uint32_t(opts.getUint("host-par", 1));
    fatal_if(a.hostPar == 0, "--host-par must be at least 1");
    installSignalHandlers();
    a.machine.applyOptions(opts);
    if (a.machine.numCores < a.threads)
        a.machine.numCores = a.threads;

    a.workloads = opts.getList("workloads", "");
    if (a.workloads.empty())
        a.workloads = harness::workloadNames();
    return a;
}

/** Build a workload cold at the bench's --scale and --seed. */
inline harness::Workload
makeWorkload(const std::string &name, const BenchArgs &a)
{
    return harness::makeWorkload(name, a.scale, a.seed);
}

/** One simulation point of a bench. */
struct Point
{
    Point(std::string workload_, harness::Config config_,
          std::uint32_t threads_, const MachineConfig &machine_)
        : workload(std::move(workload_)), config(config_),
          threads(threads_), machine(machine_)
    {
    }

    std::string workload;
    harness::Config config;
    std::uint32_t threads;
    MachineConfig machine;

    /**
     * Adjusts or reads the workload before the run (fig03's OBIM
     * bucket interval, abl_task_split's splitting app, table2's
     * input description). A point that has one always runs on a
     * workload built for it alone.
     */
    std::function<void(harness::Workload &)> prepare;

    /** Config name in --stats-json ("" = harness::configName). */
    std::string statsConfig;
};

/** The RunSpec of one point, polling the bench's stop flag. */
inline harness::RunSpec
specOf(const Point &p, const BenchArgs &a)
{
    harness::RunSpec spec;
    spec.config = p.config;
    spec.threads = p.threads;
    spec.machine = p.machine;
    spec.maxEvents = a.maxEvents;
    spec.interruptFlag = &gStopRequested;
    return spec;
}

/**
 * Append one finished point to the --stats-json log, if any. The
 * log takes over r.run.statsJson, which is left empty.
 */
inline void
logRun(const BenchArgs &a, const Point &p,
       harness::ExperimentResult &r)
{
    if (!a.statsJson)
        return;
    a.statsJson->add(p.workload,
                     p.statsConfig.empty()
                         ? harness::configName(p.config)
                         : p.statsConfig,
                     p.threads, a.scale, a.seed,
                     p.machine.minnow.prefetchCredits, r.run.timedOut,
                     r.run.verified, r.run.cycles, r.run.instructions,
                     r.run.l2Mpki, std::move(r.run.statsJson));
}

/**
 * Clean signal exit: everything a crashed run would leave behind
 * (diag/stats via the panic-hook registry, the bench's own JSON
 * log) is flushed before exiting nonzero so callers can tell this
 * from success.
 */
[[noreturn]] inline void
exitInterrupted(const BenchArgs &a, bool rescueWritten = false)
{
    std::fprintf(stderr,
                 "interrupted by signal %d: stopped at an event"
                 " boundary, output flushed%s\n",
                 int(gStopSignal),
                 rescueWritten ? ", rescue checkpoint written" : "");
    if (a.statsJson)
        a.statsJson->flush();
    flushPanicHooks();
    std::exit(128 + int(gStopSignal));
}

/** Warn loudly if a finished run failed verification. */
inline void
checkVerified(const harness::ExperimentResult &r,
              const std::string &label)
{
    if (!r.run.timedOut && !r.run.interrupted && !r.run.verified) {
        std::fprintf(stderr,
                     "WARNING: %s failed output verification\n",
                     label.c_str());
    }
}

/**
 * Run every point, each on a fresh machine, and return the results
 * in declaration order.
 *
 * --host-par=N farms the points over N host threads; each farmed
 * point then builds a private workload from the same deterministic
 * generator. A serial run builds each workload once and reuses it
 * for consecutive points of that workload (a run resets the app and
 * reassigns addresses, so reuse changes no result). Recording
 * happens after the join, in point order — verification warnings,
 * --stats-json entries, then the interrupt exit — so every output
 * is byte-identical at any --host-par.
 *
 * Only the last point tracing to a given --timeline path writes it;
 * the others trace to /dev/null. A serial run would overwrite their
 * files anyway, and farmed points must not race on one file. Which
 * points write a --diag-json file is known only after they ran, so
 * farmed points write private files ("<path>.point<i>"), and after
 * the join they are renamed onto the path in point order: the last
 * point that wrote one wins, as in a serial run.
 */
inline std::vector<harness::ExperimentResult>
runPoints(const BenchArgs &a, std::vector<Point> points)
{
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string &path = points[i].machine.timelinePath;
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            if (!path.empty() && points[j].machine.timelinePath == path)
                path = "/dev/null";
        }
    }

    // One task per farmed point; serially, one task per run of
    // consecutive points sharing a workload. A point with a prepare
    // hook is a task of its own.
    const bool farmed = a.hostPar > 1;
    std::vector<std::string> diagPaths(points.size());
    for (std::size_t i = 0; farmed && i < points.size(); ++i) {
        std::string &path = points[i].machine.diagnosticPath;
        if (!path.empty()) {
            diagPaths[i] = path;
            path += ".point" + std::to_string(i);
        }
    }
    std::vector<std::pair<std::size_t, std::size_t>> tasks;
    for (std::size_t i = 0; i < points.size();) {
        std::size_t j = i + 1;
        while (!farmed && !points[i].prepare && j < points.size() &&
               !points[j].prepare &&
               points[j].workload == points[i].workload)
            ++j;
        tasks.emplace_back(i, j);
        i = j;
    }

    std::vector<harness::ExperimentResult> results(points.size());
    std::vector<char> ran(points.size(), 0);
    parallel::runTaskFarm(tasks.size(), a.hostPar, [&](std::size_t t) {
        auto [first, last] = tasks[t];
        if (gStopRequested)
            return; // interrupted: start no further points.
        // Built in place: the app points into this object's graph.
        harness::Workload w = makeWorkload(points[first].workload, a);
        if (points[first].prepare)
            points[first].prepare(w);
        for (std::size_t i = first; i < last && !gStopRequested; ++i) {
            results[i] = harness::runExperiment(w, specOf(points[i], a));
            ran[i] = 1;
        }
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
        // Fails harmlessly for a point that wrote no diagnostic.
        if (!diagPaths[i].empty())
            std::rename(points[i].machine.diagnosticPath.c_str(),
                        diagPaths[i].c_str());
    }

    bool stopped = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!ran[i]) {
            stopped = true;
            continue;
        }
        harness::ExperimentResult &r = results[i];
        checkVerified(r, points[i].workload + "/" +
                             harness::configName(points[i].config) +
                             " (point " + std::to_string(i) + ")");
        logRun(a, points[i], r);
        stopped = stopped || r.run.interrupted;
    }
    if (stopped)
        exitInterrupted(a);
    return results;
}

/** "12.34" or "TIMEOUT". */
inline std::string
cyclesOrTimeout(const galois::RunResult &r, double norm = 1.0)
{
    if (r.timedOut)
        return "TIMEOUT";
    return TextTable::num(double(r.cycles) / norm, 2);
}

/** Header banner naming the figure/table reproduced. */
inline void
banner(const std::string &what, const std::string &paperNote)
{
    std::printf("=== %s ===\n", what.c_str());
    if (!paperNote.empty())
        std::printf("paper: %s\n", paperNote.c_str());
}

} // namespace minnow::bench

#endif // MINNOW_BENCH_BENCH_COMMON_HH
