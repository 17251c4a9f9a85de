#include "galois/executor.hh"

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "runtime/sim_context.hh"

namespace minnow::galois
{

using runtime::CoTask;
using runtime::SimContext;

namespace
{

/**
 * Drive machine.eq.run() honoring the RunConfig checkpoint hook:
 * stop-trigger mid-run hook with remaining-budget resume.
 * @return true if a signal interrupted the run cleanly.
 */
bool
runEventLoop(runtime::Machine &machine, const RunConfig &cfg)
{
    if (cfg.stopAt)
        machine.eq.setStopTrigger(cfg.stopAtCycle);
    std::uint64_t budget = cfg.maxEvents;
    for (;;) {
        std::uint64_t used = machine.eq.run(budget);
        if (budget)
            budget = used < budget ? budget - used : 1;
        if (machine.eq.stopTriggerFired()) {
            machine.eq.ackStopTrigger();
            if (cfg.midRunHook)
                cfg.midRunHook();
            continue;
        }
        break;
    }
    return machine.eq.interrupted();
}

/**
 * Collect a RunResult from machine state after the run, and hand the
 * registry to cfg.statsHook, if any.
 */
RunResult
collectResult(runtime::Machine &machine, apps::App &app,
              const RunConfig &cfg)
{
    RunResult r;
    r.workload = app.counters();
    r.tasks = r.workload.tasks;

    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
        const cpu::CoreStats &cs = machine.cores[i]->stats();
        r.cycles = std::max(r.cycles, machine.cores[i]->drain());
        r.instructions += cs.uops;
        r.delinquentLoads += cs.delinquentLoads;
        r.allLoads += cs.loads;
        r.atomics += cs.atomics;
        for (int p = 0; p < 3; ++p) {
            r.phaseCycles[p] += cs.phases[p].cycles;
            r.phaseUops[p] += cs.phases[p].uops;
        }
    }
    r.mem = machine.memory.totals();
    if (r.instructions > 0) {
        r.l2Mpki = double(r.mem.l2DemandMisses) /
                   (double(r.instructions) / 1000.0);
    }

    if (const StatsGroup *g = machine.stats.find("attribution")) {
        auto get = [g](const char *name) {
            return g->find(name)->value();
        };
        r.attrFills = get("fills");
        r.attrTimely = get("timely");
        r.attrLate = get("late");
        r.attrPollutionPct = get("pollutionPct");
    }

    // Write the trace before the stats document, so the export's
    // buffers are freed before the hook formats the registry. The
    // hook runs while every component is still alive.
    machine.writeTimeline();
    if (cfg.statsHook)
        cfg.statsHook(machine.stats);
    return r;
}

/** TaskSink that forwards into a software worklist. */
class WorklistSink : public apps::TaskSink
{
  public:
    explicit WorklistSink(worklist::Worklist *wl) : wl_(wl) {}

    CoTask<void>
    put(SimContext &ctx, worklist::WorkItem item) override
    {
        Cycle pushStart = ctx.eq().now();
        item.lineage = ctx.machine().tasks->pushStarted(ctx.id());
        co_await wl_->push(ctx, item);
        ctx.machine().tasks->pushed(ctx.id(), item.lineage, pushStart,
                                    true);
    }

  private:
    worklist::Worklist *wl_;
};

/** Stats shared by all workers of one run ("worklist" group). */
struct WorklistRunStats
{
    CounterStat *pops = nullptr;
};

/** The worker main loop: pop - run operator - repeat - park. */
CoTask<void>
workerLoop(SimContext &ctx, worklist::Worklist &wl, apps::App &app,
           WorklistSink &sink, WorklistRunStats &wstats)
{
    runtime::TaskProbe *probe = ctx.machine().tasks.get();
    for (;;) {
        ctx.core().setPhase(cpu::Phase::Worklist);
        worklist::WorkItem item;
        Cycle popStart = ctx.eq().now();
        if (!co_await wl.pop(ctx, item)) {
            ctx.core().setPhase(cpu::Phase::Idle);
            Cycle waitStart = ctx.eq().now();
            bool more = co_await ctx.monitor().waitForWork();
            ctx.core().idleUntil(ctx.eq().now());
            if (!more)
                break;
            probe->popWait(ctx.id(), waitStart);
            continue;
        }
        ++*wstats.pops;
        probe->dequeued(ctx.id(), item.lineage, popStart);
        ctx.core().setPhase(cpu::Phase::App);
        Cycle execStart = ctx.eq().now();
        co_await app.process(ctx, item, sink);
        co_await ctx.sync();
        probe->executed(ctx.id(), execStart);
    }
    ctx.core().setPhase(cpu::Phase::Idle);
}

} // anonymous namespace

RunResult
runWorkers(runtime::Machine &machine, apps::App &app,
           const RunConfig &cfg, const char *label,
           const std::function<void()> &setup,
           const std::function<CoTask<void>(SimContext &)> &worker)
{
    fatal_if(cfg.threads == 0, "need at least one worker");
    fatal_if(cfg.threads > machine.cfg.numCores,
             "%u workers > %u cores", cfg.threads,
             machine.cfg.numCores);

    machine.monitor.reset(cfg.threads);
    app.resetCounters();
    setup();

    std::vector<std::unique_ptr<SimContext>> contexts;
    std::vector<CoTask<void>> workers;
    contexts.reserve(cfg.threads);
    workers.reserve(cfg.threads);
    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
        contexts.push_back(
            std::make_unique<SimContext>(&machine, i));
        workers.push_back(worker(*contexts[i]));
    }
    for (auto &w : workers)
        w.start();

    bool interrupted = runEventLoop(machine, cfg);

    bool unfinished = false;
    for (const auto &w : workers)
        unfinished |= !w.done();
    bool timedOut = !interrupted && !machine.monitor.terminated() &&
                    unfinished;
    if (timedOut) {
        // Draining the remaining events is impossible mid-flight;
        // report and let the caller discard the Machine.
        warn("%s of %s timed out after %llu events", label,
             app.name().c_str(),
             (unsigned long long)cfg.maxEvents);
    }

    RunResult r = collectResult(machine, app, cfg);
    r.timedOut = timedOut;
    r.interrupted = interrupted;
    if (cfg.verify && !timedOut && !interrupted)
        r.verified = app.verify();
    return r;
}

RunResult
runParallel(runtime::Machine &machine, apps::App &app,
            worklist::Worklist &wl, const RunConfig &cfg)
{
    fatal_if(cfg.serialRelaxed && cfg.threads != 1,
             "the relaxed serial baseline is single-threaded");

    WorklistSink sink(&wl);
    WorklistRunStats wstats;
    auto setup = [&] {
        // Seed the worklist functionally (input setup is untimed).
        for (const worklist::WorkItem &item : app.initialWork())
            wl.pushInitial(item);

        // The software scheduler's own observability group, owned by
        // the worklist (attachStats replaces any previous run's group
        // and removes it again when the worklist is destroyed).
        StatsGroup &wg = wl.attachStats(machine.stats);
        if (machine.timeline) {
            machine.timeline->addCounterProvider(
                timeline::Cat::Worklist, "worklist.depth", &wl,
                [&wl] { return double(wl.size()); });
            wl.registerTimeline(*machine.timeline);
        }
        wstats.pops = &wg.counter("pops", "successful dequeues");

        // The worklist is caller-owned and run-scoped; expose it as
        // a checkpoint section only while the run is live.
        machine.addCkptHook(
            "worklist", [&wl](ckpt::Ckpt &ck) { wl.checkpoint(ck); });
    };
    RunResult r = runWorkers(
        machine, app, cfg, "run", setup, [&](SimContext &ctx) {
            ctx.serialMode = cfg.serialRelaxed;
            return workerLoop(ctx, wl, app, sink, wstats);
        });
    machine.removeCkptHook("worklist");
    // Counter providers capture the caller-owned worklist; it may
    // not outlive this run.
    if (machine.timeline)
        machine.timeline->removeProviders(&wl);
    return r;
}

} // namespace minnow::galois
