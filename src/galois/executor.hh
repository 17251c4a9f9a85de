/**
 * @file
 * Galois-like parallel foreach executor.
 *
 * Drives N worker threads (one per simulated core) over a software
 * worklist: pop a task, run the application operator, repeat; park on
 * the work monitor when empty; exit on distributed termination. This
 * is the software baseline of the paper — every scheduler operation
 * executes on the worker's own core and is exposed to all its
 * latency, contention and serialization.
 */

#ifndef MINNOW_GALOIS_EXECUTOR_HH
#define MINNOW_GALOIS_EXECUTOR_HH

#include <cstdint>
#include <functional>

#include "apps/app.hh"
#include "base/stats.hh"
#include "mem/memory_system.hh"
#include "runtime/machine.hh"
#include "worklist/worklist.hh"

namespace minnow::galois
{

/** Run parameters. */
struct RunConfig
{
    std::uint32_t threads = 1;
    bool verify = true;

    /**
     * Serial-baseline mode (Section 6.3.1): single thread with
     * atomics degraded to plain load/store.
     */
    bool serialRelaxed = false;

    /**
     * Event budget; a run that exceeds it is reported as timed out
     * (the high bars of Fig. 3). 0 = unlimited.
     */
    std::uint64_t maxEvents = 400'000'000;

    // ----- checkpoint/restore plumbing (DESIGN.md section 5i) -----

    /**
     * When stopAt is set, the executor arms
     * EventQueue::setStopTrigger(stopAtCycle, stopAtExec) and calls
     * midRunHook once the trigger fires — after eq.run() returns,
     * so on the normalized between-events state — then resumes the
     * run with its remaining event budget. Drives
     * --checkpoint-after saves and restore-replay witness
     * validation; an anchor of {0, 0} fires before the first event.
     */
    bool stopAt = false;
    Cycle stopAtCycle = 0;
    std::uint64_t stopAtExec = 0;
    std::function<void()> midRunHook;

    /**
     * Invoked once when a signal interrupted the run, while all
     * run-scoped state (worklists, Minnow engines) is still live —
     * the rescue-checkpoint point for graceful SIGINT/SIGTERM.
     */
    std::function<void()> interruptHook;
};

/** Outcome of one simulated run. */
struct RunResult
{
    Cycle cycles = 0;              //!< makespan over all cores.
    std::uint64_t instructions = 0;
    std::uint64_t tasks = 0;       //!< operator invocations.
    std::uint64_t pops = 0;        //!< successful dequeues.
    bool verified = false;
    bool timedOut = false;
    bool interrupted = false;      //!< SIGINT/SIGTERM clean stop.

    double l2Mpki = 0;             //!< L2 demand misses / kilo-instr.
    mem::MemStats mem;             //!< aggregated hierarchy stats.

    /** Cycle/uop totals per phase (App, Worklist, Idle). */
    Cycle phaseCycles[3] = {};
    std::uint64_t phaseUops[3] = {};

    std::uint64_t delinquentLoads = 0;
    std::uint64_t allLoads = 0;
    std::uint64_t atomics = 0;
    std::uint64_t mispredicts = 0;
    Cycle fenceStallCycles = 0;
    Cycle branchStallCycles = 0;

    apps::AppCounters workload;

    /** Full dotted-key stats dump (see base/stats.hh). */
    StatsReport report;

    /**
     * JSON snapshot of the machine's StatsRegistry taken at collect
     * time (schema "minnow-stats-1"; see DESIGN.md). Safe to keep
     * after the machine is gone.
     */
    std::string statsJson;

    double
    mlpProxyIpc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0;
    }
};

/** TaskSink that forwards into a software worklist. */
class WorklistSink : public apps::TaskSink
{
  public:
    explicit WorklistSink(worklist::Worklist *wl) : wl_(wl) {}

    runtime::CoTask<void>
    put(runtime::SimContext &ctx, worklist::WorkItem item) override
    {
        timeline::Timeline *tl = ctx.machine().timeline.get();
        mem::Attribution *attr = ctx.machine().attribution.get();
        Cycle pushStart = ctx.machine().eq.now();
        if (attr)
            item.lineage = attr->pushTask(ctx.id(), pushStart);
        co_await wl_->push(ctx, item);
        if (attr)
            attr->taskEnqueued(item.lineage,
                               ctx.machine().eq.now());
        if (tl) {
            Cycle now = ctx.machine().eq.now();
            tl->span(tl->coreTaskTrack(ctx.id()),
                     timeline::Name::Push, pushStart, now);
            tl->taskSample(timeline::TaskPhase::Push,
                           now - pushStart);
        }
    }

  private:
    worklist::Worklist *wl_;
};

/**
 * Execute @p app to completion over @p wl with cfg.threads workers.
 * The machine must be freshly constructed (or reset) for meaningful
 * statistics.
 */
RunResult runParallel(runtime::Machine &machine, apps::App &app,
                      worklist::Worklist &wl, const RunConfig &cfg);

/** Collect a RunResult from machine state after any executor. */
RunResult collectResult(runtime::Machine &machine, apps::App &app,
                        std::uint32_t threads, bool timedOut,
                        std::uint64_t pops);

/**
 * Drive machine.eq.run() honoring the RunConfig checkpoint hooks:
 * stop-trigger mid-run hook with remaining-budget resume. Shared by runParallel and runMinnow.
 * @return true if a signal interrupted the run cleanly.
 */
bool runEventLoop(runtime::Machine &machine, const RunConfig &cfg);

} // namespace minnow::galois

#endif // MINNOW_GALOIS_EXECUTOR_HH
