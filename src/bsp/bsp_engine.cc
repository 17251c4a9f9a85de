#include "bsp/bsp_engine.hh"

#include <algorithm>
#include <coroutine>
#include <unordered_map>
#include <unordered_set>

#include "base/trace.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"

namespace minnow::bsp
{

using runtime::CoTask;
using runtime::Machine;
using runtime::PhaseGuard;
using runtime::SimContext;
using worklist::WorkItem;

namespace
{

/** Shared superstep state. */
struct BspShared
{
    std::vector<WorkItem> frontier;      //!< this superstep.
    std::vector<WorkItem> next;          //!< being generated.
    /** Dedup set and min-priority fold, keyed by task payload so
     *  split task parts survive (g500's hub tasks). */
    std::unordered_set<std::uint64_t> nextActive;
    std::unordered_map<std::uint64_t, std::int64_t> nextPrio;
    Addr flagBase = 0;                   //!< sim address of flags.
    std::uint32_t threads = 1;
    std::uint32_t arrived = 0;
    /** The "bsp" stats group's counters (registry-owned). */
    CounterStat *supersteps = nullptr;
    CounterStat *vertexOps = nullptr;
    CounterStat *sweepWork = nullptr;
    bool bucketed = false;
    std::uint32_t lg = 0;
    bool done = false;
    std::vector<std::coroutine_handle<>> waiting;
    EventQueue *eq = nullptr;
    NodeId numNodes = 0;

    /** Deferred pool for bucketed (GMat*) mode. */
    std::vector<WorkItem> deferred;
};

/**
 * Bucketed (GMat*) mode: keep only the frontier's best priority
 * bucket for this pass and defer the rest to later passes.
 */
void
deferLaterBuckets(BspShared &sh)
{
    if (sh.frontier.empty())
        return;
    std::int64_t best = sh.frontier[0].priority >> sh.lg;
    for (const auto &it : sh.frontier)
        best = std::min(best, it.priority >> sh.lg);
    auto mid = std::partition(sh.frontier.begin(), sh.frontier.end(),
                              [&](const WorkItem &it) {
                                  return (it.priority >> sh.lg) == best;
                              });
    sh.deferred.assign(mid, sh.frontier.end());
    sh.frontier.erase(mid, sh.frontier.end());
}

/** TaskSink collecting activations into the next frontier. */
class BspSink : public apps::TaskSink
{
  public:
    explicit BspSink(BspShared *sh) : sh_(sh) {}

    CoTask<void>
    put(SimContext &ctx, WorkItem item) override
    {
        PhaseGuard guard(ctx, cpu::Phase::Worklist);
        NodeId v = apps::taskNode(item.payload);
        // Activation: test-and-set on the next-frontier flag plus
        // the message write (GraphMat's sparse-vector insert).
        ctx.compute(6);
        ctx.load(sh_->flagBase + v / 8, 0);
        if (!sh_->nextActive.count(item.payload)) {
            co_await ctx.atomicAccess(sh_->flagBase + v / 8);
            if (!sh_->nextActive.count(item.payload)) {
                sh_->nextActive.insert(item.payload);
                sh_->nextPrio[item.payload] = item.priority;
                sh_->next.push_back(item);
                co_return;
            }
        }
        // Already active: fold the priority (min).
        auto it = sh_->nextPrio.find(item.payload);
        if (it != sh_->nextPrio.end() &&
            item.priority < it->second) {
            it->second = item.priority;
        }
        co_await ctx.sync();
    }

  private:
    BspShared *sh_;
};

/** Superstep barrier; the last arriver advances the frontier. */
CoTask<void>
barrier(SimContext &ctx, BspShared &sh)
{
    struct Waiter
    {
        BspShared *sh;

        bool await_ready() const { return false; }

        bool
        await_suspend(std::coroutine_handle<> h)
        {
            sh->arrived += 1;
            if (sh->arrived < sh->threads) {
                sh->waiting.push_back(h);
                return true;
            }
            // Last arriver: advance the superstep.
            sh->arrived = 0;
            ++*sh->supersteps;
            // Fold priorities back in and swap frontiers.
            for (auto &item : sh->next)
                item.priority = sh->nextPrio[item.payload];
            sh->frontier.swap(sh->next);
            sh->next.clear();
            sh->nextActive.clear();
            sh->nextPrio.clear();
            // Bucketed (GMat*) mode: only the best bucket runs now;
            // the rest is deferred to later passes.
            if (sh->bucketed) {
                sh->frontier.insert(sh->frontier.end(),
                                    sh->deferred.begin(),
                                    sh->deferred.end());
                sh->deferred.clear();
                deferLaterBuckets(*sh);
            }
            if (sh->frontier.empty())
                sh->done = true;
            DPRINTF(Bsp, "bsp", "superstep %llu done: frontier %zu",
                    (unsigned long long)sh->supersteps->count(),
                    sh->frontier.size());
            for (std::coroutine_handle<> w : sh->waiting)
                sh->eq->schedule(sh->eq->now(), w);
            sh->waiting.clear();
            return false; // last arriver continues immediately.
        }

        void await_resume() const {}
    };
    // The active-set sweep: GraphMat scans its sparse vectors every
    // superstep; charge a bitmap scan share per worker.
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    std::uint32_t share = std::uint32_t(
        sh.numNodes / (8 * 64 * sh.threads) + 1);
    ctx.compute(4 * share);
    ctx.cheapLoads(share);
    *sh.sweepWork += share;
    co_await ctx.sync();
    co_await Waiter{&sh};
    ctx.core().idleUntil(ctx.eq().now());
}

CoTask<void>
bspWorker(SimContext &ctx, BspShared &sh, apps::App &app,
          BspSink &sink)
{
    runtime::TaskProbe *probe = ctx.machine().tasks.get();
    const std::uint32_t tid = ctx.id();
    for (;;) {
        // Process my static slice of the frontier.
        std::size_t n = sh.frontier.size();
        std::size_t lo = n * tid / sh.threads;
        std::size_t hi = n * (tid + 1) / sh.threads;
        for (std::size_t i = lo; i < hi; ++i) {
            ctx.core().setPhase(cpu::Phase::App);
            ++*sh.vertexOps;
            Cycle execStart = ctx.eq().now();
            co_await app.process(ctx, sh.frontier[i], sink);
            co_await ctx.sync();
            probe->executed(ctx.id(), execStart);
        }
        ctx.core().setPhase(cpu::Phase::Idle);
        co_await barrier(ctx, sh);
        if (sh.done)
            break;
    }
}

} // anonymous namespace

galois::RunResult
runBsp(Machine &machine, apps::App &app, const galois::RunConfig &cfg,
       bool bucketed, std::uint32_t lgBucketInterval)
{
    BspShared sh;
    BspSink sink(&sh);
    auto setup = [&] {
        sh.threads = cfg.threads;
        sh.eq = &machine.eq;
        sh.numNodes = app.graph().numNodes();
        sh.bucketed = bucketed;
        sh.lg = lgBucketInterval;
        sh.flagBase = machine.alloc.alloc("bsp.activeFlags",
                                          sh.numNodes / 8 + 64);
        StatsGroup &g = machine.stats.freshGroup("bsp");
        sh.supersteps = &g.counter("supersteps", "barriers passed");
        sh.vertexOps =
            &g.counter("vertexOps", "active-vertex executions");
        sh.sweepWork =
            &g.counter("sweepWork", "active-flag scan cost proxy");

        // Seed the first frontier (every task part; split tasks
        // keep their slices).
        for (const WorkItem &item : app.initialWork()) {
            if (sh.nextActive.insert(item.payload).second)
                sh.frontier.push_back(item);
        }
        sh.nextActive.clear();
        if (sh.bucketed)
            deferLaterBuckets(sh);
    };
    galois::RunResult r = galois::runWorkers(
        machine, app, cfg, "BSP run", setup, [&](SimContext &ctx) {
            return bspWorker(ctx, sh, app, sink);
        });
    r.tasks = sh.vertexOps->count();
    return r;
}

} // namespace minnow::bsp
