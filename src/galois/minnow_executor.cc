/**
 * @file
 * The Minnow executor: application workers whose scheduling is
 * offloaded to the engines of a MinnowSystem (minnow/minnow_system.hh).
 */

#include <optional>

#include "base/logging.hh"
#include "galois/executor.hh"
#include "minnow/minnow_system.hh"
#include "runtime/sim_context.hh"

namespace minnow::galois
{

using minnowengine::MinnowEngine;
using minnowengine::MinnowSystem;
using runtime::CoTask;
using runtime::SimContext;

namespace
{

/** TaskSink that issues minnow_enqueue accelerator calls. */
class EngineSink : public apps::TaskSink
{
  public:
    explicit EngineSink(MinnowSystem *sys) : sys_(sys) {}

    CoTask<void>
    put(SimContext &ctx, worklist::WorkItem item) override
    {
        Cycle pushStart = ctx.eq().now();
        item.lineage = ctx.machine().tasks->pushStarted(ctx.id());
        co_await sys_->engine(ctx.id()).enqueue(ctx, item);
        ctx.machine().tasks->pushed(ctx.id(), item.lineage, pushStart,
                                    false);
    }

  private:
    MinnowSystem *sys_;
};

/** Build the PrefetchProgram matching an application. */
minnowengine::PrefetchProgram
programFor(const apps::App &app)
{
    minnowengine::PrefetchProgram p;
    p.graph = &app.graph();
    p.splitThreshold = app.splitThreshold();
    p.chaseAdjacency = app.prefetchChasesAdjacency();
    p.taskStale = app.staleTaskPredicate();
    return p;
}

/** The worker main loop: minnow_dequeue - run operator - repeat. */
CoTask<void>
minnowWorker(SimContext &ctx, MinnowEngine &eng, apps::App &app,
             EngineSink &sink)
{
    runtime::TaskProbe *probe = ctx.machine().tasks.get();
    for (;;) {
        ctx.core().setPhase(cpu::Phase::Worklist);
        Cycle dqStart = ctx.eq().now();
        std::optional<worklist::WorkItem> item =
            co_await eng.dequeue(ctx);
        if (!item)
            break;
        probe->dequeued(ctx.id(), item->lineage, dqStart);
        ctx.core().setPhase(cpu::Phase::App);
        Cycle execStart = ctx.eq().now();
        co_await app.process(ctx, *item, sink);
        co_await ctx.sync();
        probe->executed(ctx.id(), execStart);
    }
    ctx.core().setPhase(cpu::Phase::Idle);
}

} // anonymous namespace

RunResult
runMinnow(runtime::Machine &machine, apps::App &app,
          std::uint32_t lgBucketInterval, const RunConfig &cfg,
          minnowengine::EngineStats *engineTotals)
{
    fatal_if(cfg.serialRelaxed,
             "the relaxed serial baseline does not use Minnow");

    std::optional<MinnowSystem> sys;
    std::optional<EngineSink> sink;
    auto setup = [&] {
        sys.emplace(&machine, lgBucketInterval, programFor(app),
                    cfg.threads);
        sys->seedInitial(app.initialWork());
        sys->startDaemons();
        sink.emplace(&*sys);
    };
    RunResult r = runWorkers(
        machine, app, cfg, "minnow run", setup, [&](SimContext &ctx) {
            ctx.engine = &sys->engine(ctx.id());
            return minnowWorker(ctx, *ctx.engine, app, *sink);
        });
    if (engineTotals)
        *engineTotals = sys->totals();
    return r;
}

} // namespace minnow::galois
