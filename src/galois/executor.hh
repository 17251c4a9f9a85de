/**
 * @file
 * The executors and the one run driver they share.
 *
 * runWorkers() owns the run protocol every executor follows: worker
 * count checks, monitor and app-counter reset, one SimContext and
 * worker coroutine per thread, the event loop with its checkpoint
 * and signal hooks, the timeout rule, and result collection and
 * verification. Each executor adds only its own setup and teardown:
 *
 *  - runParallel: Galois-like foreach over a software worklist — pop
 *    a task, run the application operator, repeat; park on the work
 *    monitor when empty. The paper's software baseline: every
 *    scheduler operation executes on the worker's own core and is
 *    exposed to all its latency, contention and serialization.
 *  - runMinnow: scheduling offloaded to Minnow engines — workers only
 *    issue minnow_enqueue / minnow_dequeue accelerator calls, so
 *    scheduling leaves their critical path.
 *  - bsp::runBsp (bsp/bsp_engine.hh): GraphMat-style supersteps.
 */

#ifndef MINNOW_GALOIS_EXECUTOR_HH
#define MINNOW_GALOIS_EXECUTOR_HH

#include <cstdint>
#include <functional>

#include "apps/app.hh"
#include "base/stats.hh"
#include "mem/memory_system.hh"
#include "minnow/engine.hh"
#include "runtime/machine.hh"
#include "runtime/task.hh"
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

    /**
     * Called once at result collection, after every other result is
     * read and while every component's stats are still registered:
     * the one point at which a run's "minnow-stats-1" document can
     * be taken (the benches stream it to a file with
     * StatsRegistry::writeJson). Null: no stats document is built.
     */
    std::function<void(const StatsRegistry &)> statsHook;
};

/** Outcome of one simulated run. */
struct RunResult
{
    Cycle cycles = 0;              //!< makespan over all cores.
    std::uint64_t instructions = 0;
    std::uint64_t tasks = 0;       //!< operator invocations.
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

    apps::AppCounters workload;

    /** The StatsRegistry flattened to "group.stat" keys at collect
     *  time (see StatsRegistry::flatten); the JSON form goes to
     *  RunConfig::statsHook. */
    StatsReport report;
};

/**
 * The one run driver behind runParallel, runMinnow and bsp::runBsp.
 *
 * Checks the worker count, resets the work monitor and the app's
 * counters, calls @p setup (the executor's own state: worklist
 * seeding and hooks, MinnowSystem, BSP frontier), then builds one
 * SimContext and one @p worker coroutine per thread, starts them in
 * thread order and drives the event loop under @p cfg's checkpoint
 * and signal hooks. A run timed out when no signal interrupted it,
 * the monitor has not terminated and some worker has not finished;
 * the warning names the executor by @p label ("run", "minnow run",
 * "BSP run"). Returns the collected (and, on a completed run,
 * verified) result; the workers are gone on return, so the caller
 * may tear its setup down.
 */
RunResult runWorkers(
    runtime::Machine &machine, apps::App &app, const RunConfig &cfg,
    const char *label, const std::function<void()> &setup,
    const std::function<runtime::CoTask<void>(runtime::SimContext &)>
        &worker);

/**
 * Execute @p app to completion over the software worklist @p wl
 * with cfg.threads workers. The machine must be freshly constructed
 * (or reset) for meaningful statistics.
 */
RunResult runParallel(runtime::Machine &machine, apps::App &app,
                      worklist::Worklist &wl, const RunConfig &cfg);

/**
 * Execute @p app under Minnow offload with cfg.threads workers.
 * Prefetching follows machine.cfg.minnow.prefetchEnabled.
 *
 * @param lgBucketInterval Bucket interval for the offloaded global
 *                         priority worklist.
 * @param engineTotals     receives the aggregated engine counters.
 */
RunResult runMinnow(runtime::Machine &machine, apps::App &app,
                    std::uint32_t lgBucketInterval,
                    const RunConfig &cfg,
                    minnowengine::EngineStats *engineTotals = nullptr);

} // namespace minnow::galois

#endif // MINNOW_GALOIS_EXECUTOR_HH
