/**
 * @file
 * Shared driver code for the figure binaries, eval and point_runner.
 *
 * Every bench accepts:
 *   --scale=<f>     input scale factor (default per bench)
 *   --threads=<n>   worker count for the headline runs
 *   --workloads=a,b comma list (default: all seven)
 *   --seed=<n>      generator seed
 *   --max-events=<n> timeout knob
 *   --stats-json=<path> machine-readable per-run stats dump
 *                   (schema "minnow-bench-stats-1"; every run's
 *                   full StatsRegistry snapshot rides along; it
 *                   streams to "<path>.point<i>" during the run and
 *                   is appended to the file once every earlier
 *                   point has finished; <path> must be a regular
 *                   file in a writable directory: a spool that
 *                   cannot be written is fatal)
 * plus the machine overrides understood by
 * MachineConfig::applyOptions: --cores=, --rob=, --credits= and
 * --prefetcher=none|stride|imp (a hardware L2 prefetcher under any
 * config). The other machine parameters are set in code by the
 * figures that vary them. The credit-sweep benches (18/19/20)
 * additionally take --credits-list=a,b to override the swept credit
 * counts.
 *
 * Host parallelism (DESIGN.md section 5j):
 *   --host-par=<n>    run a bench's independent points on n host
 *                     threads (default 1). Every output — stdout,
 *                     --stats-json, --timeline — is byte-identical
 *                     to a serial run.
 * SIGINT/SIGTERM stop every running point at its next event
 * boundary; once all have stopped, the points that ran are recorded,
 * --stats-json is closed, the panic hooks are flushed and the bench
 * exits 128+signal. (point_runner's checkpoint flags are its
 * own.)
 *
 * Robustness knobs (also via applyOptions; see DESIGN.md "Fault
 * model"):
 *   --faults=<spec>   deterministic fault injection, e.g.
 *                     --faults="engine_stall:core=3,at=50000,dur=20000;
 *                               noc_delay:p=0.01,add=200"
 *                     Replays are reproduced by the same spec plus
 *                     the same --seed.
 *   --watchdog=<n>    check forward progress every n cycles; after
 *                     kWatchdogStaleChecks (4) stale checks in a row
 *                     the run dumps a diagnostic and aborts.
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
 *                        dropped and counted. Every category is
 *                        recorded; counters are sampled every 1024
 *                        cycles.
 *
 * Driver shape: a figure (figure.hh) declares its points (workload,
 * config, threads, machine, scale, seed, budget) as a
 * std::vector<Point> and renders its table from the results, which
 * runPoints() returns in declaration order. Each figure prints the
 * paper's rows/series as a fixed-width table, with the paper's
 * published value alongside where one exists, so shape comparisons
 * are one glance.
 */

#ifndef MINNOW_BENCH_BENCH_COMMON_HH
#define MINNOW_BENCH_BENCH_COMMON_HH

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
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
 * The --stats-json log, {"schema":"minnow-bench-stats-1","runs":[...]}:
 * each run carries its identifying parameters plus the machine's full
 * StatsRegistry snapshot (schema "minnow-stats-1") under "stats".
 *
 * No run's stats document is ever whole in memory. During the run,
 * spooler() streams it through one chunk into the point's spool file
 * beside the log (spoolPath(): "<path>.point<i>"), so the log's
 * directory must be writable; a spool that cannot be written is
 * fatal rather than a silently empty entry. add() appends the entry
 * to the log file: the small parameter header, the spool's bytes
 * copied a chunk at a time ("{}" when the spool is missing or
 * empty), the entry's closing brace; then it deletes the spool.
 * close() ends the document with "]}\n".
 *
 * The file is opened by the first add() or close(), so a bench that
 * fails before it records a run leaves none. Held by BenchArgs
 * through a shared_ptr, so every run of the process lands in one
 * file. The destructor closes, so a bench needs no explicit final
 * call. A panic hook closes the file too, so a crashed bench leaves a
 * valid log of the runs it recorded. runPoints records in order
 * through the farm, so add() runs one call at a time, but the hook
 * closes on whichever thread panics, maybe while another thread is
 * inside add(): the log's mutex makes each add() and close() whole,
 * so an entry is either all in the log or not in it.
 */
class StatsJsonLog
{
  public:
    explicit StatsJsonLog(std::string path)
        : path_(std::move(path)),
          panicHookId_(addPanicHook(&StatsJsonLog::panicHook, this))
    {
    }

    ~StatsJsonLog()
    {
        removePanicHook(panicHookId_);
        close();
    }

    StatsJsonLog(const StatsJsonLog &) = delete;
    StatsJsonLog &operator=(const StatsJsonLog &) = delete;

    /** The spool file of the bench's point @p i. */
    std::string
    spoolPath(std::size_t i) const
    {
        return path_ + ".point" + std::to_string(i);
    }

    /**
     * A RunSpec::statsHook that streams the registry's document to
     * point @p i's spool; fatal if the spool cannot be written.
     */
    std::function<void(const StatsRegistry &)>
    spooler(std::size_t i) const
    {
        return [spool = spoolPath(i)](const StatsRegistry &stats) {
            auto write = [&](json::ChunkSink &s) { stats.writeJson(s); };
            if (!json::writeFile(spool, write)) {
                std::remove(spool.c_str());
                fatal("cannot write stats spool %s: --stats-json must"
                      " name a file in a writable directory",
                      spool.c_str());
            }
        };
    }

    /** Append one run, point @p i, whose stats are in its spool. */
    void
    add(const std::string &workload, const std::string &config,
        std::uint32_t threads, double scale, std::uint64_t seed,
        std::uint32_t credits, bool timedOut, bool verified,
        Cycle cycles, std::uint64_t instructions, double l2Mpki,
        std::size_t i)
    {
        // No panic or fatal below, so the hook cannot deadlock on mu_.
        const std::lock_guard<std::mutex> lock(mu_);
        char buf[64];
        std::string e = runs_++ ? "," : "";
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
        write(e.data(), e.size());
        const std::string spool = spoolPath(i);
        bool copied = false;
        if (std::FILE *in = std::fopen(spool.c_str(), "rb")) {
            // Not zero-filled: a small entry touches only its bytes.
            constexpr std::size_t kChunk = json::ChunkSink::kChunk;
            auto chunk = std::make_unique_for_overwrite<char[]>(kChunk);
            std::size_t n;
            while ((n = std::fread(chunk.get(), 1, kChunk, in)) > 0) {
                write(chunk.get(), n);
                copied = true;
            }
            std::fclose(in);
            std::remove(spool.c_str());
        }
        if (!copied)
            write("{}", 2);
        write("}", 1);
    }

    /** End the document and close the file (idempotent). */
    void
    close()
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return;
        write("]}\n", 3);
        closed_ = true;
        if (f_ && std::fclose(f_) != 0)
            failed_ = true;
        f_ = nullptr;
        if (failed_) {
            std::fprintf(stderr,
                         "WARNING: cannot write stats json %s\n",
                         path_.c_str());
        }
    }

  private:
    /**
     * Close the log on panic, on whichever thread panics. With
     * --host-par, a point finishing on another thread may be
     * appending an entry meanwhile: close() waits for it to end (once
     * closed, the log takes no more bytes).
     */
    static void
    panicHook(void *self)
    {
        static_cast<StatsJsonLog *>(self)->close();
    }

    /**
     * Append @p n bytes, opening the file and its prefix first. The
     * caller holds mu_.
     */
    void
    write(const char *data, std::size_t n)
    {
        if (closed_)
            return;
        if (!f_ && !failed_) {
            f_ = std::fopen(path_.c_str(), "w");
            static const char kHead[] =
                "{\"schema\":\"minnow-bench-stats-1\",\"runs\":[";
            failed_ = !f_ || std::fwrite(kHead, 1, sizeof kHead - 1,
                                          f_) != sizeof kHead - 1;
        }
        if (f_ && std::fwrite(data, 1, n, f_) != n)
            failed_ = true;
    }

    std::string path_;
    int panicHookId_;
    std::mutex mu_; //!< guards everything below.
    std::FILE *f_ = nullptr;
    std::size_t runs_ = 0;
    bool failed_ = false; //!< an open or write failed: warn at close.
    bool closed_ = false;
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
    fatal_if(!std::isfinite(a.scale) || a.scale <= 0,
             "--scale=%g must be a finite number above 0", a.scale);
    a.threads = opts.getU32("threads", defaultThreads);
    a.seed = opts.getUint("seed", 1);
    a.maxEvents = opts.getUint("max-events", a.maxEvents);
    std::string dbg = opts.getString("debug-file", "");
    if (!dbg.empty())
        trace::setOutputFile(dbg);
    trace::enableList(opts.getString("debug-flags", ""));
    std::string sj = opts.getString("stats-json", "");
    if (!sj.empty())
        a.statsJson = std::make_shared<StatsJsonLog>(sj);
    a.hostPar = opts.getU32("host-par", 1);
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

/**
 * One simulation point of a bench: everything its run depends on.
 * Two points without a prepare hook that compare equal field by
 * field (sameRun) have the same result.
 */
struct Point
{
    /** A point of the bench's @p a: its machine, scale, seed, budget. */
    Point(const BenchArgs &a, std::string workload_,
          harness::Config config_, std::uint32_t threads_)
        : workload(std::move(workload_)), config(config_),
          threads(threads_), machine(a.machine), scale(a.scale),
          seed(a.seed), maxEvents(a.maxEvents)
    {
    }

    std::string workload;
    harness::Config config;
    std::uint32_t threads;
    MachineConfig machine;
    double scale;            //!< input scale factor (--scale).
    std::uint64_t seed;      //!< generator seed (--seed).
    std::uint64_t maxEvents; //!< event budget (--max-events).

    /**
     * Adjusts the workload before the run (fig03's OBIM bucket
     * interval, abl_task_split's splitting app). A point that has
     * one always runs on a workload built for it alone.
     */
    std::function<void(harness::Workload &)> prepare;
};

/** @p p and @p q run alike, so one run gives both their result. */
inline bool
sameRun(const Point &p, const Point &q)
{
    return !p.prepare && !q.prepare && p.workload == q.workload &&
           p.config == q.config && p.threads == q.threads &&
           p.scale == q.scale && p.seed == q.seed &&
           p.maxEvents == q.maxEvents && p.machine == q.machine;
}

/**
 * The RunSpec of the bench's point @p i, polling the bench's stop
 * flag; with --stats-json its stats stream to the point's spool.
 */
inline harness::RunSpec
specOf(const Point &p, const BenchArgs &a, std::size_t i)
{
    harness::RunSpec spec;
    spec.config = p.config;
    spec.threads = p.threads;
    spec.machine = p.machine;
    spec.maxEvents = p.maxEvents;
    spec.interruptFlag = &gStopRequested;
    if (a.statsJson)
        spec.statsHook = a.statsJson->spooler(i);
    return spec;
}

/** Append the bench's finished point @p i to the --stats-json log. */
inline void
logRun(const BenchArgs &a, const Point &p, std::size_t i,
       const harness::ExperimentResult &r)
{
    if (!a.statsJson)
        return;
    a.statsJson->add(p.workload, harness::configName(p.config),
                     p.threads, p.scale, p.seed,
                     p.machine.minnow.prefetchCredits, r.run.timedOut,
                     r.run.verified, r.run.cycles, r.run.instructions,
                     r.run.l2Mpki, i);
}

/**
 * Clean signal exit: everything a crashed run would leave behind
 * (diag/stats via the panic-hook registry, the bench's own JSON
 * log) is flushed before exiting nonzero so callers can tell this
 * from success.
 */
[[noreturn]] inline void
exitInterrupted(const BenchArgs &a)
{
    std::fprintf(stderr,
                 "interrupted by signal %d: stopped at an event"
                 " boundary, output flushed\n",
                 int(gStopSignal));
    if (a.statsJson)
        a.statsJson->close();
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
 * in declaration order. Each point carries its own scale, seed and
 * event budget; @p a gives the farm's width and the --stats-json log.
 *
 * --host-par=N farms the points over N host threads; each farmed
 * point then builds a private workload from the same deterministic
 * generator. A serial run builds each workload once and reuses it
 * for consecutive points of that workload, scale and seed (a run
 * resets the app and reassigns addresses, so reuse changes no
 * result); a point with a prepare hook gets a workload of its own.
 * Every output is byte-identical at any --host-par because it is
 * recorded in point order. A point's --stats-json entry is
 * appended, and its spool file (StatsJsonLog) deleted, by the
 * farm's in-order callback: as
 * soon as it and every earlier point have finished, serially right
 * after its run. So a spool exists only for a point that is running
 * or, farmed, waits on an earlier one. Verification warnings and
 * the interrupt exit follow the join.
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

    const bool farmed = a.hostPar > 1;
    std::vector<std::string> diagPaths(points.size());
    for (std::size_t i = 0; farmed && i < points.size(); ++i) {
        std::string &path = points[i].machine.diagnosticPath;
        if (!path.empty()) {
            diagPaths[i] = path;
            path += ".point" + std::to_string(i);
        }
    }

    std::vector<harness::ExperimentResult> results(points.size());
    std::vector<char> ran(points.size(), 0);
    // Serially, a point reuses the previous point's workload when
    // both are of one workload, scale and seed, and neither has a
    // prepare hook.
    std::unique_ptr<harness::Workload> serialWorkload;
    auto run = [&](std::size_t i) {
        const Point &p = points[i];
        std::unique_ptr<harness::Workload> own;
        std::unique_ptr<harness::Workload> &w =
            farmed ? own : serialWorkload;
        if (!gStopRequested &&
            (!w || p.prepare || points[i - 1].prepare ||
             points[i - 1].workload != p.workload ||
             points[i - 1].scale != p.scale ||
             points[i - 1].seed != p.seed)) {
            w.reset(); // one workload in memory at a time.
            // Built in place: the app points into this object's graph.
            w.reset(new harness::Workload(
                harness::makeWorkload(p.workload, p.scale, p.seed)));
            if (p.prepare)
                p.prepare(*w);
        }
        if (gStopRequested)
            return; // interrupted: start no further points.
        results[i] = harness::runExperiment(*w, specOf(p, a, i));
        ran[i] = 1;
    };
    auto record = [&](std::size_t i) {
        if (ran[i])
            logRun(a, points[i], i, results[i]);
    };
    parallel::runTaskFarm(points.size(), a.hostPar, run, record);
    serialWorkload.reset();
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
