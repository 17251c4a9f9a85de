#include "galois/executor.hh"

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"

namespace minnow::galois
{

using runtime::CoTask;
using runtime::SimContext;

namespace
{

/** Per-worker bookkeeping for the run. */
struct WorkerState
{
    std::uint64_t pops = 0;
};

/** Stats shared by all workers of one run ("worklist" group). */
struct WorklistRunStats
{
    HistogramStat *popLatency = nullptr;
    CounterStat *pops = nullptr;
};

/** The worker main loop: pop - run operator - repeat - park. */
CoTask<void>
workerLoop(SimContext &ctx, worklist::Worklist &wl, apps::App &app,
           WorklistSink &sink, WorkerState &state,
           WorklistRunStats &wstats)
{
    timeline::Timeline *tl = ctx.machine().timeline.get();
    timeline::TrackId taskTrack = tl
        ? tl->coreTaskTrack(ctx.id())
        : timeline::kNoTrack;
    for (;;) {
        ctx.core().setPhase(cpu::Phase::Worklist);
        worklist::WorkItem item;
        Cycle popStart = ctx.eq().now();
        bool got = co_await wl.pop(ctx, item);
        if (got) {
            Cycle now = ctx.eq().now();
            wstats.popLatency->sample(now - popStart);
            ++*wstats.pops;
            if (mem::Attribution *attr =
                    ctx.machine().attribution.get()) {
                attr->taskDequeued(ctx.id(), item.lineage, now);
            }
            if (tl) {
                tl->span(taskTrack, timeline::Name::Dequeue,
                         popStart, now);
                tl->taskSample(timeline::TaskPhase::Dequeue,
                               now - popStart);
            }
        }
        if (!got) {
            ctx.core().setPhase(cpu::Phase::Idle);
            Cycle waitStart = ctx.eq().now();
            bool more = co_await ctx.monitor().waitForWork();
            ctx.core().idleUntil(ctx.eq().now());
            if (tl && more) {
                Cycle now = ctx.eq().now();
                tl->span(taskTrack, timeline::Name::PopWait,
                         waitStart, now);
                tl->taskSample(timeline::TaskPhase::PopWait,
                               now - waitStart);
            }
            if (!more)
                break;
            continue;
        }
        state.pops += 1;
        ctx.core().setPhase(cpu::Phase::App);
        Cycle execStart = ctx.eq().now();
        co_await app.process(ctx, item, sink);
        co_await ctx.sync();
        if (tl) {
            Cycle now = ctx.eq().now();
            tl->span(taskTrack, timeline::Name::Task, execStart,
                     now);
            tl->taskSample(timeline::TaskPhase::Execute,
                           now - execStart);
        }
    }
    ctx.core().setPhase(cpu::Phase::Idle);
}

} // anonymous namespace

bool
runEventLoop(runtime::Machine &machine, const RunConfig &cfg)
{
    if (cfg.stopAt)
        machine.eq.setStopTrigger(cfg.stopAtCycle, cfg.stopAtExec);
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
    if (machine.eq.interrupted()) {
        if (cfg.interruptHook)
            cfg.interruptHook();
        return true;
    }
    return false;
}

RunResult
collectResult(runtime::Machine &machine, apps::App &app,
              std::uint32_t threads, bool timedOut,
              std::uint64_t pops)
{
    RunResult r;
    r.timedOut = timedOut;
    r.pops = pops;
    r.workload = app.counters();
    r.tasks = r.workload.tasks;

    for (std::uint32_t i = 0; i < threads; ++i) {
        const cpu::CoreStats &cs = machine.cores[i]->stats();
        r.cycles = std::max(r.cycles, machine.cores[i]->drain());
        r.instructions += cs.uops;
        r.delinquentLoads += cs.delinquentLoads;
        r.allLoads += cs.loads;
        r.atomics += cs.atomics;
        r.mispredicts += cs.mispredicts;
        r.fenceStallCycles += cs.fenceStallCycles;
        r.branchStallCycles += cs.branchStallCycles;
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

    // Full stats report for --stats-file dumps.
    r.report.add("run.cycles", double(r.cycles));
    r.report.add("run.instructions", double(r.instructions));
    r.report.add("run.tasks", double(r.tasks));
    r.report.add("run.ipc", r.mlpProxyIpc());
    r.report.add("run.l2Mpki", r.l2Mpki);
    r.report.add("run.threads", double(threads));
    r.report.add("core.delinquentLoads",
                 double(r.delinquentLoads));
    r.report.add("core.loads", double(r.allLoads));
    r.report.add("core.atomics", double(r.atomics));
    r.report.add("core.mispredicts", double(r.mispredicts));
    r.report.add("core.fenceStallCycles",
                 double(r.fenceStallCycles));
    r.report.add("core.branchStallCycles",
                 double(r.branchStallCycles));
    const char *phaseNames[3] = {"app", "worklist", "idle"};
    for (int p = 0; p < 3; ++p) {
        r.report.add(std::string("phase.") + phaseNames[p] +
                         ".cycles",
                     double(r.phaseCycles[p]));
        r.report.add(std::string("phase.") + phaseNames[p] +
                         ".uops",
                     double(r.phaseUops[p]));
    }
    r.report.add("workload.edgesVisited",
                 double(r.workload.edgesVisited));
    r.report.add("workload.updates", double(r.workload.updates));
    r.report.add("workload.pushes", double(r.workload.pushes));
    machine.memory.report(r.report, "mem");

    // Hierarchical registry: flatten into the legacy report and
    // snapshot the JSON form while every component is still alive.
    machine.stats.flatten(r.report);
    r.statsJson = machine.stats.toJson();
    return r;
}

RunResult
runParallel(runtime::Machine &machine, apps::App &app,
            worklist::Worklist &wl, const RunConfig &cfg)
{
    fatal_if(cfg.threads == 0, "need at least one worker");
    fatal_if(cfg.threads > machine.cfg.numCores,
             "%u workers > %u cores", cfg.threads,
             machine.cfg.numCores);
    fatal_if(cfg.serialRelaxed && cfg.threads != 1,
             "the relaxed serial baseline is single-threaded");

    machine.monitor.reset(cfg.threads);
    app.resetCounters();

    // Seed the worklist functionally (input setup is untimed).
    for (const worklist::WorkItem &item : app.initialWork())
        wl.pushInitial(item);

    // The software scheduler's own observability group, owned by the
    // worklist (attachStats replaces any previous run's group and
    // removes it again when the worklist is destroyed).
    StatsGroup &wg = wl.attachStats(machine.stats);
    if (machine.timeline) {
        machine.timeline->addCounterProvider(
            timeline::Cat::Worklist, "worklist.depth", &wl,
            [&wl] { return double(wl.size()); });
        wl.registerTimeline(*machine.timeline);
    }
    WorklistRunStats wstats;
    wstats.popLatency = &wg.histogram(
        "popLatency", "cycles a worker spent inside pop", 64, 32);
    wstats.pops = &wg.counter("pops", "successful dequeues");

    std::vector<std::unique_ptr<SimContext>> contexts;
    std::vector<WorkerState> states(cfg.threads);
    std::vector<CoTask<void>> workers;
    WorklistSink sink(&wl);
    contexts.reserve(cfg.threads);
    workers.reserve(cfg.threads);
    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
        contexts.push_back(
            std::make_unique<SimContext>(&machine, i));
        contexts.back()->serialMode = cfg.serialRelaxed;
        workers.push_back(workerLoop(*contexts[i], wl, app, sink,
                                     states[i], wstats));
    }
    for (auto &w : workers)
        w.start();

    // The worklist is caller-owned and run-scoped; expose it as a
    // checkpoint section only while the run is live.
    machine.addCkptHook(
        "worklist", [&wl](ckpt::Ckpt &ck) { wl.checkpoint(ck); });
    bool interrupted = runEventLoop(machine, cfg);
    machine.removeCkptHook("worklist");

    bool timedOut = !interrupted && !machine.monitor.terminated();
    if (timedOut) {
        // Drain remaining events is impossible mid-flight; report
        // and let the Machine be discarded by the caller.
        warn("run of %s timed out after %llu events",
             app.name().c_str(),
             (unsigned long long)cfg.maxEvents);
    }

    std::uint64_t pops = 0;
    for (const auto &s : states)
        pops += s.pops;
    RunResult r = collectResult(machine, app, cfg.threads, timedOut,
                                pops);
    r.interrupted = interrupted;
    // Counter providers capture the caller-owned worklist; it may
    // not outlive this run.
    if (machine.timeline)
        machine.timeline->removeProviders(&wl);
    if (cfg.verify && !timedOut && !interrupted)
        r.verified = app.verify();
    return r;
}

} // namespace minnow::galois
