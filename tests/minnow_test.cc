/**
 * @file
 * Tests for the Minnow engine stack: global queue spill/fill, engine
 * enqueue/dequeue protocol, credit throttling, deadlock-free
 * threadlet spawning, full-app runs under offload, and the headline
 * effects (worklist cycles shrink; prefetching slashes L2 MPKI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/cc.hh"
#include "apps/pr.hh"
#include "apps/sssp.hh"
#include "apps/tc.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "minnow/area.hh"
#include "minnow/engine.hh"
#include "minnow/global_queue.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"
#include "worklist/obim.hh"

namespace minnow::minnowengine
{
namespace
{

using galois::RunConfig;
using galois::RunResult;
using galois::runMinnow;
using runtime::CoTask;
using runtime::Machine;
using runtime::SimContext;

MachineConfig
minnowConfig(std::uint32_t cores, bool prefetch)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = cores;
    cfg.minnow.enabled = true;
    cfg.minnow.prefetchEnabled = prefetch;
    return cfg;
}

TEST(GlobalQueue, FunctionalSeedAndMinBucket)
{
    SimAlloc alloc;
    MinnowGlobalQueue q(&alloc, 2);
    EXPECT_EQ(q.minBucket(), MinnowGlobalQueue::kNoBucket);
    q.pushInitial({12, 1}); // bucket 3.
    q.pushInitial({4, 2});  // bucket 1.
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.minBucket(), 1);
}

TEST(Engine, EnqueueDequeueRoundTrip)
{
    Machine m(minnowConfig(2, false));
    m.monitor.reset(1);
    MinnowGlobalQueue q(&m.alloc, 3);
    PrefetchProgram prog; // no graph: prefetching off.
    MinnowEngine eng(&m, 0, &q, prog);
    SimContext ctx(&m, 0);

    auto driver = [](SimContext &ctx, MinnowEngine &eng,
                     std::vector<worklist::WorkItem> &out)
        -> CoTask<void> {
        co_await eng.enqueue(ctx, {5, 100});
        co_await eng.enqueue(ctx, {6, 101});
        for (int i = 0; i < 2; ++i) {
            auto item = co_await eng.dequeue(ctx);
            EXPECT_TRUE(item.has_value());
            if (!item)
                co_return;
            out.push_back(*item);
        }
        // Third dequeue: queue empty, worker idles, run terminates.
        auto item = co_await eng.dequeue(ctx);
        EXPECT_FALSE(item.has_value());
    };
    std::vector<worklist::WorkItem> got;
    CoTask<void> t = driver(ctx, eng, got);
    t.start();
    m.eq.run();
    ASSERT_TRUE(t.done());
    ASSERT_EQ(got.size(), 2u);
    // Local queue is FIFO.
    EXPECT_EQ(got[0].payload, 100u);
    EXPECT_EQ(got[1].payload, 101u);
    EXPECT_EQ(eng.stats().enqueues, 2u);
    EXPECT_TRUE(m.monitor.terminated());
}

TEST(Engine, LowerPriorityTaskSpills)
{
    Machine m(minnowConfig(2, false));
    m.monitor.reset(1);
    MinnowGlobalQueue q(&m.alloc, 0);
    PrefetchProgram prog;
    MinnowEngine eng(&m, 0, &q, prog);
    eng.startDaemon();
    SimContext ctx(&m, 0);

    auto driver = [](SimContext &ctx, MinnowEngine &eng,
                     MinnowGlobalQueue &q) -> CoTask<void> {
        co_await eng.enqueue(ctx, {1, 10}); // sets local bucket 1.
        co_await eng.enqueue(ctx, {9, 11}); // lower prio: spills.
        // Give the spill threadlet time to land; the fill daemon may
        // already have pulled it back (the local queue is below its
        // refill threshold), so the item is in one place or the other.
        co_await ctx.waitUntil(ctx.eq().now() + 5000);
        EXPECT_EQ(eng.localQueueSize() + q.size(), 2u);
        // Drain: local first, then the engine refills from global.
        auto a = co_await eng.dequeue(ctx);
        EXPECT_TRUE(a.has_value());
        if (!a)
            co_return;
        EXPECT_EQ(a->payload, 10u);
        auto b = co_await eng.dequeue(ctx);
        EXPECT_TRUE(b.has_value());
        if (!b)
            co_return;
        EXPECT_EQ(b->payload, 11u);
        auto c = co_await eng.dequeue(ctx);
        EXPECT_FALSE(c.has_value());
    };
    CoTask<void> t = driver(ctx, eng, q);
    t.start();
    m.eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_GE(eng.stats().spillsSpawned, 1u);
    EXPECT_GE(eng.stats().fillBatches, 1u);
}

TEST(Engine, LocalQueueOverflowSpills)
{
    MachineConfig cfg = minnowConfig(2, false);
    cfg.minnow.localQueueEntries = 4;
    Machine m(cfg);
    m.monitor.reset(1);
    MinnowGlobalQueue q(&m.alloc, 3);
    PrefetchProgram prog;
    MinnowEngine eng(&m, 0, &q, prog);
    eng.startDaemon();
    SimContext ctx(&m, 0);

    auto driver = [](SimContext &ctx, MinnowEngine &eng)
        -> CoTask<void> {
        for (int i = 0; i < 10; ++i)
            co_await eng.enqueue(ctx, {0, std::uint64_t(i)});
        int got = 0;
        for (;;) {
            auto item = co_await eng.dequeue(ctx);
            if (!item)
                break;
            ++got;
        }
        EXPECT_EQ(got, 10);
    };
    CoTask<void> t = driver(ctx, eng);
    t.start();
    m.eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_GE(eng.stats().spillsSpawned, 6u);
    EXPECT_TRUE(m.monitor.terminated());
}

TEST(Engine, BlockedDequeueIsDeliveredByFill)
{
    Machine m(minnowConfig(2, false));
    m.monitor.reset(2);
    MinnowGlobalQueue q(&m.alloc, 3);
    PrefetchProgram prog;
    MinnowEngine eng0(&m, 0, &q, prog);
    MinnowEngine eng1(&m, 1, &q, prog);
    eng0.startDaemon();
    eng1.startDaemon();
    m.monitor.subscribeTermination([&] { eng0.onTerminate(); });
    m.monitor.subscribeTermination([&] { eng1.onTerminate(); });
    SimContext c0(&m, 0), c1(&m, 1);

    // Worker 0 blocks first; worker 1 enqueues work that spills into
    // the global queue and must be delivered to worker 0.
    int delivered = 0;
    auto consumer = [](SimContext &ctx, MinnowEngine &eng,
                       int &delivered) -> CoTask<void> {
        for (;;) {
            auto item = co_await eng.dequeue(ctx);
            if (!item)
                break;
            ++delivered;
        }
    };
    auto producer = [](SimContext &ctx,
                       MinnowEngine &eng) -> CoTask<void> {
        co_await ctx.waitUntil(2000);
        // Fill own local queue and overflow to global.
        for (int i = 0; i < 80; ++i)
            co_await eng.enqueue(ctx, {0, std::uint64_t(i)});
        // Drain own share.
        for (;;) {
            auto item = co_await eng.dequeue(ctx);
            if (!item)
                break;
        }
    };
    CoTask<void> t0 = consumer(c0, eng0, delivered);
    CoTask<void> t1 = producer(c1, eng1);
    t0.start();
    t1.start();
    m.eq.run();
    ASSERT_TRUE(t0.done());
    ASSERT_TRUE(t1.done());
    EXPECT_GT(delivered, 0) << "blocked worker must receive spilled"
                               " work through its fill daemon";
    EXPECT_TRUE(m.monitor.terminated());
}

TEST(EngineCredits, WakeRecyclesCreditWithoutDoubleCount)
{
    // Satellite regression: a credit waiter woken by a handoff whose
    // line was demand-filled while it slept recycles the credit via
    // creditReturn(false). That recycle must not recount the stall,
    // must not resume anyone twice, and must leave the pool full.
    MachineConfig cfg = minnowConfig(2, true);
    cfg.minnow.prefetchCredits = 1;
    Machine m(cfg);
    m.monitor.reset(1);
    MinnowGlobalQueue q(&m.alloc, 3);
    PrefetchProgram prog;
    MinnowEngine eng(&m, 0, &q, prog);
    Addr lineA = m.alloc.allocAnon(64);
    Addr lineB = m.alloc.allocAnon(64);

    int done = 0;
    auto prefetcher = [](Machine &m, MinnowEngine &eng, Addr addr,
                         bool prefetch, int &done) -> CoTask<void> {
        ThreadletCtx tc(&eng, m.eq.now());
        co_await tc.load(addr, prefetch);
        done += 1;
    };
    // A takes the only credit; B parks on the pool; C demand-loads
    // B's line (demand traffic needs no credit), so by the time B
    // wakes its line is already resident.
    CoTask<void> a = prefetcher(m, eng, lineA, true, done);
    CoTask<void> b = prefetcher(m, eng, lineB, true, done);
    CoTask<void> c = prefetcher(m, eng, lineB, false, done);
    a.start();
    b.start();
    c.start();
    // Long after the fill lands, the consumer returns the credit:
    // direct handoff to the parked waiter, which now sees its line
    // resident and recycles.
    m.eq.schedule(50000, [](void *p) {
        static_cast<MinnowEngine *>(p)->creditReturn(true);
    }, &eng);
    m.eq.run();

    ASSERT_TRUE(a.done());
    ASSERT_TRUE(b.done());
    ASSERT_TRUE(c.done());
    EXPECT_EQ(done, 3);
    const EngineStats &es = eng.stats();
    EXPECT_EQ(es.creditStalls, 1u) << "recycle must not recount";
    EXPECT_EQ(es.creditHandoffs, 1u);
    EXPECT_EQ(es.prefetchLoads, 1u)
        << "the woken waiter's line was resident; no second issue";
    EXPECT_EQ(eng.creditWaitersNow(), 0u);
    EXPECT_EQ(eng.creditsFree(), 1u)
        << "the recycled credit must land back in the pool";
}

RunResult
runMinnowApp(apps::App &app, std::uint32_t threads, bool prefetch,
             graph::CsrGraph &g, std::uint32_t nodeBytes = 32,
             EngineStats *engineStats = nullptr)
{
    Machine m(minnowConfig(std::max(threads, 2u), prefetch));
    g.assignAddresses(m.alloc, nodeBytes);
    app.reset();
    RunConfig cfg;
    cfg.threads = threads;
    return runMinnow(m, app, 3, cfg, engineStats);
}

TEST(MinnowInt, SsspVerifies)
{
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 2);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    RunResult r = runMinnowApp(app, 4, false, g);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
}

TEST(MinnowInt, SsspWithPrefetchVerifies)
{
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 2);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    EngineStats es;
    RunResult r = runMinnowApp(app, 4, true, g, 32, &es);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(es.prefetchTasks, 0u);
    EXPECT_GT(es.prefetchLoads, 0u);
    EXPECT_GT(r.mem.prefetchFills, 0u);
}

TEST(MinnowInt, CcVerifies)
{
    graph::CsrGraph g =
        graph::powerLawGraph(1200, 6.0, 0.9, 5, true);
    apps::CcApp app(&g, 1u << 30);
    RunResult r = runMinnowApp(app, 4, false, g);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
}

TEST(MinnowInt, PrWithPrefetchVerifies)
{
    graph::CsrGraph g = graph::powerLawGraph(600, 8.0, 0.9, 13);
    apps::PrApp app(&g, 0.85, 1e-4, 1u << 30);
    RunResult r = runMinnowApp(app, 4, true, g);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
}

TEST(MinnowInt, TcCustomPrefetchVerifies)
{
    graph::CsrGraph g = graph::wattsStrogatz(300, 6, 0.05, 17);
    apps::TcApp app(&g, 1u << 30);
    EngineStats es;
    RunResult r = runMinnowApp(app, 4, true, g, 64, &es);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    // The custom program walked tasks and chased adjacency.
    EXPECT_GT(es.prefetchTasks, 0u);
    EXPECT_GT(es.prefetchLoads, 0u);
}

TEST(MinnowInt, OffloadReducesWorklistCycles)
{
    auto galoisRun = [] {
        graph::CsrGraph g =
            graph::powerLawGraph(1200, 6.0, 0.9, 5, true);
        Machine m(minnowConfig(8, false));
        g.assignAddresses(m.alloc);
        apps::CcApp app(&g, 1u << 30);
        worklist::ObimWorklist wl(&m, 3, 16, 2);
        RunConfig cfg;
        cfg.threads = 8;
        return galois::runParallel(m, app, wl, cfg);
    };
    auto minnowRun = [](bool prefetch) {
        graph::CsrGraph g =
            graph::powerLawGraph(1200, 6.0, 0.9, 5, true);
        Machine m(minnowConfig(8, prefetch));
        g.assignAddresses(m.alloc);
        apps::CcApp app(&g, 1u << 30);
        RunConfig cfg;
        cfg.threads = 8;
        return runMinnow(m, app, 3, cfg);
    };
    RunResult sw = galoisRun();
    RunResult hw = minnowRun(false);
    RunResult pf = minnowRun(true);
    ASSERT_TRUE(sw.verified);
    ASSERT_TRUE(hw.verified);
    ASSERT_TRUE(pf.verified);
    double swShare = double(sw.phaseCycles[1]) /
                     double(sw.phaseCycles[0] + sw.phaseCycles[1]);
    double hwShare = double(hw.phaseCycles[1]) /
                     double(hw.phaseCycles[0] + hw.phaseCycles[1]);
    EXPECT_LT(hwShare, swShare)
        << "offload must shrink the worklist share of cycles";
    // At this toy scale offload alone only breaks even on CC (the
    // full-scale comparison lives in bench/fig16); with prefetching
    // the engines must win outright.
    EXPECT_LT(hw.cycles, sw.cycles * 1.15)
        << "offload must at least stay near the software baseline";
    EXPECT_LT(pf.cycles, sw.cycles)
        << "Minnow+prefetch should beat software scheduling on CC";
}

TEST(MinnowInt, PrefetchingCutsL2Mpki)
{
    auto run = [](bool prefetch) {
        graph::CsrGraph g = graph::randomGraph(20000, 4.0, 7);
        Machine m(minnowConfig(8, prefetch));
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, true, 1u << 30, "bfs");
        RunConfig cfg;
        cfg.threads = 8;
        return runMinnow(m, app, 2, cfg);
    };
    RunResult off = run(false);
    RunResult on = run(true);
    ASSERT_TRUE(off.verified);
    ASSERT_TRUE(on.verified);
    EXPECT_LT(on.l2Mpki, off.l2Mpki * 0.5)
        << "worklist-directed prefetching must slash L2 MPKI"
        << " (off=" << off.l2Mpki << " on=" << on.l2Mpki << ")";
    EXPECT_LT(on.cycles, off.cycles);
}

TEST(MinnowInt, CreditsAreConservedAndThrottle)
{
    MachineConfig cfg = minnowConfig(2, true);
    cfg.minnow.prefetchCredits = 4; // tiny pool: must throttle.
    Machine m(cfg);
    graph::CsrGraph g = graph::gridGraph(20, 20, 50, 3);
    g.assignAddresses(m.alloc);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    RunConfig rc;
    rc.threads = 2;
    EngineStats es;
    RunResult r = runMinnow(m, app, 3, rc, &es);
    ASSERT_TRUE(r.verified);
    EXPECT_GT(es.creditStalls, 0u)
        << "a 4-credit pool must stall prefetch threadlets";
    // Conservation: every fill either returned its credit (use,
    // evict, invalidate) or is still resident and marked at the end
    // of the run — bounded by the total credit pool.
    std::uint64_t returned = r.mem.prefetchUsed +
                             r.mem.prefetchEvictedUnused +
                             r.mem.prefetchInvalidated;
    EXPECT_LE(returned, r.mem.prefetchFills);
    EXPECT_LE(r.mem.prefetchFills - returned,
              std::uint64_t(2) * cfg.minnow.prefetchCredits);
}

TEST(MinnowInt, DeterministicAcrossRuns)
{
    auto once = [] {
        graph::CsrGraph g = graph::gridGraph(20, 20, 100, 1);
        Machine m(minnowConfig(4, true));
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        RunConfig cfg;
        cfg.threads = 4;
        return runMinnow(m, app, 3, cfg).cycles;
    };
    EXPECT_EQ(once(), once());
}

TEST(Area, MatchesPaperHeadlines)
{
    MachineConfig cfg = paperMachine();
    AreaEstimate a = estimateArea(cfg);
    EXPECT_NEAR(a.sramMm2At28, 0.03, 0.003);
    EXPECT_NEAR(a.sramMm2At14, 0.008, 0.001);
    EXPECT_NEAR(a.controlMm2At14, 0.1, 1e-9);
    EXPECT_LT(a.overheadPercent, 1.0);
    EXPECT_GT(a.overheadPercent, 0.5);
    EXPECT_FALSE(a.describe().empty());
}

TEST(Area, ScalesWithStructures)
{
    MachineConfig small = paperMachine();
    MachineConfig big = paperMachine();
    big.minnow.localQueueEntries *= 4;
    big.minnow.loadBufferEntries *= 4;
    EXPECT_GT(estimateArea(big).sramMm2At28,
              estimateArea(small).sramMm2At28);
}

} // anonymous namespace
} // namespace minnow::minnowengine
