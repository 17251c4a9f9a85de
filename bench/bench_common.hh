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
 * Checkpoint knobs (DESIGN.md section 5i):
 *   --checkpoint-out=<path>   write a checkpoint (when depends on
 *                        --checkpoint-after; also written as a
 *                        rescue on SIGINT/SIGTERM).
 *   --checkpoint-in=<path>    warm-start from a checkpoint; any
 *                        validation failure warns and degrades to
 *                        a cold start, never wrong results.
 *   --checkpoint-after=<when> "warmup" (default: save at the warm
 *                        boundary, before simulated time starts) or
 *                        a cycle count (save a mid-run rescue
 *                        anchor at the first event boundary at or
 *                        after that cycle).
 * SIGINT/SIGTERM always stop cleanly at the next event boundary:
 * stats/diag JSON are flushed, a rescue checkpoint is written when
 * --checkpoint-out is set, and the bench exits 128+signal.
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
 *                        (open in Perfetto) when the machine is torn
 *                        down. Adds a "timeline" stats group with
 *                        task-latency percentiles.
 *   --timeline-buffer=<n>  ring-buffer capacity in events (default
 *                        262144); on overflow the oldest events are
 *                        dropped and counted.
 *   --timeline-tracks=a,b  category filter, from task, engine,
 *                        threadlet, credit, worklist, mem, sim
 *                        (default all).
 *   --timeline-interval=<n>  counter-track sampling period in cycles
 *                        (default 1024; 0 disables sampling).
 *
 * Output convention: each bench prints the paper's rows/series as a
 * fixed-width table, with the paper's published value alongside where
 * one exists, so shape comparisons are one glance.
 */

#ifndef MINNOW_BENCH_BENCH_COMMON_HH
#define MINNOW_BENCH_BENCH_COMMON_HH

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/options.hh"
#include "base/trace.hh"
#include "base/table.hh"
#include "harness/workloads.hh"

namespace minnow::bench
{

/**
 * Graceful-stop plumbing: the handler only sets a flag; the event
 * loop polls it at event boundaries, so an interrupted run's
 * simulated prefix stays bit-identical to an uninterrupted one.
 */
inline volatile std::sig_atomic_t gStopRequested = 0;
inline volatile std::sig_atomic_t gStopSignal = 0;

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
 * Shared by value-copied BenchArgs (e.g. inside credit sweeps) via
 * shared_ptr, so every run of the process lands in one file. The
 * destructor flushes, so a bench needs no explicit final call.
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
        const std::string &statsJson)
    {
        char buf[64];
        std::string e;
        e.reserve(statsJson.size() + workload.size() + config.size() +
                  256);
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
        e += statsJson.empty() ? std::string_view("{}")
                               : std::string_view(statsJson);
        e += '}';
        entries_.push_back(std::move(e));
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
            if (i)
                std::fputc(',', f);
            std::fwrite(entries_[i].data(), 1, entries_[i].size(), f);
        }
        std::fputs("]}\n", f);
        std::fclose(f);
        dirty_ = false;
    }

  private:
    std::string path_;
    std::vector<std::string> entries_;
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
    std::string statsDir; //!< dump per-run .stats files here.
    std::shared_ptr<StatsJsonLog> statsJson; //!< --stats-json log.
    std::string checkpointOut;   //!< --checkpoint-out.
    std::string checkpointIn;    //!< --checkpoint-in.
    std::string checkpointAfter = "warmup"; //!< --checkpoint-after.

    /**
     * Host task-farm width for independent sweep points
     * (--host-par=N, default 1 = serial). Sweep drivers farm their
     * per-point loop over N host threads; every farmed point runs
     * its own Machine and workload, and shared outputs
     * (--stats-json, --stats-dir) are replayed in point order after
     * the join, so all files stay byte-identical to a serial sweep.
     */
    std::uint32_t hostPar = 1;
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
    a.statsDir = opts.getString("stats-dir", "");
    std::string sj = opts.getString("stats-json", "");
    if (!sj.empty())
        a.statsJson = std::make_shared<StatsJsonLog>(sj);
    a.checkpointOut = opts.getString("checkpoint-out", "");
    a.checkpointIn = opts.getString("checkpoint-in", "");
    a.checkpointAfter =
        opts.getString("checkpoint-after", "warmup");
    a.hostPar = std::uint32_t(opts.getUint("host-par", 1));
    fatal_if(a.hostPar == 0, "--host-par must be at least 1");
    installSignalHandlers();
    a.machine.applyOptions(opts);
    if (a.machine.numCores < a.threads)
        a.machine.numCores = a.threads;

    std::string list = opts.getString("workloads", "");
    if (list.empty()) {
        a.workloads = harness::workloadNames();
    } else {
        std::size_t pos = 0;
        while (pos != std::string::npos) {
            std::size_t comma = list.find(',', pos);
            a.workloads.push_back(list.substr(
                pos, comma == std::string::npos ? comma
                                                : comma - pos));
            pos = comma == std::string::npos ? comma : comma + 1;
        }
    }
    return a;
}

/**
 * Build a workload honoring --checkpoint-in: warm-loads the graph
 * from the checkpoint when one was given (degrading to cold
 * generation on any validation failure), else generates cold.
 */
inline harness::Workload
makeWorkload(const std::string &name, const BenchArgs &a)
{
    if (!a.checkpointIn.empty()) {
        return harness::makeWorkloadWarm(name, a.scale, a.seed,
                                         a.checkpointIn);
    }
    return harness::makeWorkload(name, a.scale, a.seed);
}

/** Run one workload/config and return the result (fresh machine). */
inline harness::ExperimentResult
run(harness::Workload &w, harness::Config config,
    std::uint32_t threads, const BenchArgs &a, bool verify = true)
{
    harness::RunSpec spec;
    spec.config = config;
    spec.threads = threads;
    spec.machine = a.machine;
    spec.verify = verify;
    spec.maxEvents = a.maxEvents;
    spec.checkpointOut = a.checkpointOut;
    spec.checkpointIn = a.checkpointIn;
    spec.checkpointAfter = a.checkpointAfter;
    spec.interruptFlag = &gStopRequested;
    harness::ExperimentResult r = harness::runExperiment(w, spec);
    if (a.statsJson) {
        a.statsJson->add(w.name, harness::configName(config),
                         threads, a.scale, a.seed,
                         a.machine.minnow.prefetchCredits,
                         r.run.timedOut, r.run.verified,
                         r.run.cycles, r.run.instructions,
                         r.run.l2Mpki, r.run.statsJson);
    }
    if (!a.statsDir.empty()) {
        std::string path = a.statsDir + "/" + w.name + "-" +
                           harness::configName(config) + "-t" +
                           std::to_string(threads) + ".stats";
        if (std::FILE *f = std::fopen(path.c_str(), "w")) {
            r.run.report.dump(f);
            std::fclose(f);
        }
    }
    if (r.run.interrupted) {
        // Clean signal exit: everything a crashed run would leave
        // behind (diag/stats via the panic-hook registry, the
        // bench's own JSON log, a rescue checkpoint — already
        // written by the harness) is flushed before exiting
        // nonzero so callers can distinguish this from success.
        std::fprintf(stderr,
                     "interrupted by signal %d: stopped at an event"
                     " boundary, output flushed%s\n",
                     int(gStopSignal),
                     a.checkpointOut.empty()
                         ? ""
                         : ", rescue checkpoint written");
        if (a.statsJson)
            a.statsJson->flush();
        flushPanicHooks();
        std::exit(128 + int(gStopSignal));
    }
    return r;
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

/** Warn loudly if a run failed verification. */
inline void
checkVerified(const harness::ExperimentResult &r,
              const std::string &label)
{
    if (!r.run.timedOut && !r.run.verified) {
        std::fprintf(stderr,
                     "WARNING: %s failed output verification\n",
                     label.c_str());
    }
}

} // namespace minnow::bench

#endif // MINNOW_BENCH_BENCH_COMMON_HH
