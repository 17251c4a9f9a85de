#include "bsp/bsp_engine.hh"

#include <algorithm>
#include <coroutine>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "base/logging.hh"
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
    std::uint64_t supersteps = 0;
    std::uint64_t vertexOps = 0;
    std::uint64_t sweepWork = 0;
    bool bucketed = false;
    std::uint32_t lg = 0;
    bool done = false;
    std::vector<std::coroutine_handle<>> waiting;
    EventQueue *eq = nullptr;
    NodeId numNodes = 0;

    /** Deferred pool for bucketed (GMat*) mode. */
    std::vector<WorkItem> deferred;
};

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
            sh->supersteps += 1;
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
                if (!sh->frontier.empty()) {
                    std::int64_t best =
                        sh->frontier[0].priority >> sh->lg;
                    for (const auto &it : sh->frontier) {
                        best = std::min(best,
                                        it.priority >> sh->lg);
                    }
                    auto mid = std::partition(
                        sh->frontier.begin(), sh->frontier.end(),
                        [&](const WorkItem &it) {
                            return (it.priority >> sh->lg) == best;
                        });
                    sh->deferred.assign(mid, sh->frontier.end());
                    sh->frontier.erase(mid, sh->frontier.end());
                }
            }
            if (sh->frontier.empty())
                sh->done = true;
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
    sh.sweepWork += share;
    co_await ctx.sync();
    co_await Waiter{&sh};
    ctx.core().idleUntil(ctx.eq().now());
}

CoTask<void>
bspWorker(SimContext &ctx, BspShared &sh, apps::App &app,
          BspSink &sink, std::uint32_t tid)
{
    for (;;) {
        // Process my static slice of the frontier.
        std::size_t n = sh.frontier.size();
        std::size_t lo = n * tid / sh.threads;
        std::size_t hi = n * (tid + 1) / sh.threads;
        for (std::size_t i = lo; i < hi; ++i) {
            ctx.core().setPhase(cpu::Phase::App);
            sh.vertexOps += 1;
            co_await app.process(ctx, sh.frontier[i], sink);
            co_await ctx.sync();
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
       bool bucketed, std::uint32_t lgBucketInterval,
       BspStats *statsOut)
{
    fatal_if(cfg.threads == 0, "need at least one worker");
    fatal_if(cfg.threads > machine.cfg.numCores,
             "%u workers > %u cores", cfg.threads,
             machine.cfg.numCores);

    machine.monitor.reset(cfg.threads);
    app.resetCounters();

    BspShared sh;
    sh.threads = cfg.threads;
    sh.eq = &machine.eq;
    sh.numNodes = app.graph().numNodes();
    sh.bucketed = bucketed;
    sh.lg = lgBucketInterval;
    sh.flagBase =
        machine.alloc.alloc("bsp.activeFlags", sh.numNodes / 8 + 64);

    // Seed the first frontier (every task part; split tasks keep
    // their slices).
    for (const WorkItem &item : app.initialWork()) {
        if (sh.nextActive.insert(item.payload).second)
            sh.frontier.push_back(item);
    }
    sh.nextActive.clear();
    if (sh.bucketed && !sh.frontier.empty()) {
        std::int64_t best = sh.frontier[0].priority >> sh.lg;
        for (const auto &it : sh.frontier)
            best = std::min(best, it.priority >> sh.lg);
        auto mid = std::partition(
            sh.frontier.begin(), sh.frontier.end(),
            [&](const WorkItem &it) {
                return (it.priority >> sh.lg) == best;
            });
        sh.deferred.assign(mid, sh.frontier.end());
        sh.frontier.erase(mid, sh.frontier.end());
    }

    std::vector<std::unique_ptr<SimContext>> contexts;
    std::vector<CoTask<void>> workers;
    BspSink sink(&sh);
    for (std::uint32_t i = 0; i < cfg.threads; ++i) {
        contexts.push_back(
            std::make_unique<SimContext>(&machine, i));
        workers.push_back(
            bspWorker(*contexts[i], sh, app, sink, i));
    }
    for (auto &w : workers)
        w.start();

    bool interrupted = galois::runEventLoop(machine, cfg);

    bool timedOut = false;
    for (const auto &w : workers)
        timedOut |= !interrupted && !w.done();
    if (timedOut) {
        warn("BSP run of %s timed out after %llu events",
             app.name().c_str(),
             (unsigned long long)cfg.maxEvents);
    }

    galois::RunResult r = galois::collectResult(
        machine, app, cfg.threads, timedOut, sh.vertexOps);
    r.tasks = sh.vertexOps;
    r.interrupted = interrupted;
    if (statsOut) {
        statsOut->supersteps = sh.supersteps;
        statsOut->vertexOps = sh.vertexOps;
        statsOut->sweepWork = sh.sweepWork;
    }
    if (cfg.verify && !timedOut && !interrupted)
        r.verified = app.verify();
    return r;
}

} // namespace minnow::bsp
