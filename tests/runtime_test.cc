/**
 * @file
 * Unit tests for the coroutine runtime: CoTask composition and its
 * frame cache, the event queue, SimContext awaitables, and
 * WorkMonitor termination semantics.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/machine.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"
#include "runtime/work_monitor.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/parallel/task_farm.hh"

namespace minnow::runtime
{
namespace
{

MachineConfig
tinyConfig(std::uint32_t cores = 2)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = cores;
    return cfg;
}

TEST(EventQueue, OrdersByCycleThenSeq)
{
    EventQueue eq;
    std::vector<int> order;
    auto push = [&](Cycle when, int tag) {
        struct Ctx
        {
            std::vector<int> *order;
            int tag;
        };
        auto *c = new Ctx{&order, tag};
        eq.schedule(when, [](void *p) {
            auto *c = static_cast<Ctx *>(p);
            c->order->push_back(c->tag);
            delete c;
        }, c);
    };
    push(10, 1);
    push(5, 2);
    push(10, 3);
    push(1, 4);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, StopEndsRun)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [](void *p) {
        auto *self = static_cast<std::pair<EventQueue *, int *> *>(p);
        (*self->second)++;
        self->first->stop();
        delete self;
    }, new std::pair<EventQueue *, int *>(&eq, &fired));
    eq.schedule(2, [](void *p) { (*static_cast<int *>(p))++; },
                &fired);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.stopped());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExactBudgetOnLastEventDoesNotWarn)
{
    // Regression: a run whose event count landed exactly on the
    // budget used to warn "budget exhausted" even though the heap
    // had drained — every completed run at the limit looked like a
    // timeout.
    EventQueue eq;
    int fired = 0;
    for (Cycle t = 1; t <= 3; ++t)
        eq.schedule(t, [](void *p) { (*static_cast<int *>(p))++; },
                    &fired);

    clearWarnings();
    EXPECT_EQ(eq.run(3), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(warningsSeen());

    // A genuine timeout (work left behind) still warns.
    for (Cycle t = 1; t <= 3; ++t)
        eq.schedule(eq.now() + t,
                    [](void *p) { (*static_cast<int *>(p))++; },
                    &fired);
    clearWarnings();
    EXPECT_EQ(eq.run(2), 2u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(warningsSeen());
    clearWarnings();
}

CoTask<int>
leaf(int v)
{
    co_return v * 2;
}

CoTask<int>
parent()
{
    int a = co_await leaf(3);
    int b = co_await leaf(4);
    co_return a + b;
}

TEST(CoTask, NestedComposition)
{
    CoTask<int> t = parent();
    EXPECT_FALSE(t.done());
    t.start();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.result(), 14);
}

CoTask<void>
suspendingTask(EventQueue &eq, std::vector<Cycle> &trace)
{
    struct At
    {
        EventQueue *eq;
        Cycle when;
        bool await_ready() const { return false; }
        void await_suspend(std::coroutine_handle<> h)
        {
            eq->schedule(when, h);
        }
        void await_resume() const {}
    };
    trace.push_back(eq.now());
    co_await At{&eq, 100};
    trace.push_back(eq.now());
    co_await At{&eq, 250};
    trace.push_back(eq.now());
}

TEST(CoTask, ResumesAtScheduledCycles)
{
    EventQueue eq;
    std::vector<Cycle> trace;
    CoTask<void> t = suspendingTask(eq, trace);
    t.start();
    eq.run();
    EXPECT_EQ(trace, (std::vector<Cycle>{0, 100, 250}));
    EXPECT_TRUE(t.done());
}

using detail::FramePool;

TEST(FramePool, ReusesAFreedFrameWithinItsSizeClassOnly)
{
    void *a = FramePool::allocate(200);
    FramePool::deallocate(a, 200);
    // 100 bytes is another class: it must not get a's block.
    void *other = FramePool::allocate(100);
    EXPECT_NE(other, a);
    // 250 bytes shares a's class, (192, 256].
    void *b = FramePool::allocate(250);
    EXPECT_EQ(b, a);
    FramePool::deallocate(b, 250);
    FramePool::deallocate(other, 100);
}

TEST(FramePool, DestroyedTaskFrameIsReusedBySameSizedTask)
{
    CoTask<int> warm = leaf(1);
    warm = {};
    std::size_t cached = FramePool::cachedFrames();
    ASSERT_GT(cached, 0u);
    CoTask<int> t = leaf(2);
    EXPECT_EQ(FramePool::cachedFrames(), cached - 1);
    t.start();
    EXPECT_EQ(t.result(), 4);
    t = {};
    EXPECT_EQ(FramePool::cachedFrames(), cached);
}

CoTask<int>
bigFrame(int v)
{
    // Live across the co_await, so the array is part of the frame.
    std::array<int, FramePool::kMaxBytes / sizeof(int) + 1> buf{};
    buf[std::size_t(v)] = v;
    co_await leaf(v);
    co_return buf[std::size_t(v)];
}

TEST(FramePool, OversizedFrameBypassesTheCache)
{
    std::size_t cached = FramePool::cachedFrames();
    void *p = FramePool::allocate(FramePool::kMaxBytes + 1);
    FramePool::deallocate(p, FramePool::kMaxBytes + 1);
    EXPECT_EQ(FramePool::cachedFrames(), cached);

    CoTask<int> t = bigFrame(3);
    t.start();
    EXPECT_EQ(t.result(), 3);
    cached = FramePool::cachedFrames();
    t = {};
    EXPECT_EQ(FramePool::cachedFrames(), cached);
}

TEST(FramePool, MachineTeardownEmptiesTheCache)
{
    {
        Machine m(tinyConfig());
        CoTask<int> t = parent();
        t.start();
        t = {};
        EXPECT_GT(FramePool::cachedFrames(), 0u);
    }
    EXPECT_EQ(FramePool::cachedFrames(), 0u);
}

/** Runs two farm indices, each started once both are on a thread. */
template <typename Fn>
void
onTwoFarmThreads(Fn fn)
{
    std::atomic<int> arrived{0};
    parallel::runTaskFarm(2, 2, [&](std::size_t i) {
        arrived.fetch_add(1);
        while (arrived.load() < 2)
            std::this_thread::yield();
        fn(i);
    });
}

TEST(FramePool, FrameMayBeDestroyedOnAnotherFarmThread)
{
    CoTask<int> task;
    std::atomic<bool> handed{false};
    std::array<std::thread::id, 2> ran;
    onTwoFarmThreads([&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
        if (i == 0) {
            task = parent();
            task.start();
            handed.store(true, std::memory_order_release);
            return;
        }
        while (!handed.load(std::memory_order_acquire))
            std::this_thread::yield();
        EXPECT_EQ(task.result(), 14);
        std::size_t cached = FramePool::cachedFrames();
        task = {};
        EXPECT_EQ(FramePool::cachedFrames(), cached + 1);
    });
    EXPECT_NE(ran[0], ran[1]);
}

TEST(FramePool, FarmThreadCacheIsFreedAtThreadExit)
{
    // The pool thread exits inside runTaskFarm; its frames go back
    // to the heap then, or LSan reports them on the address leg.
    // coro_frame_alloc_test counts the returned blocks exactly.
    std::array<std::size_t, 2> held{};
    onTwoFarmThreads([&](std::size_t i) {
        for (int k = 0; k < 4; ++k) {
            CoTask<int> t = parent();
            t.start();
        }
        held[i] = FramePool::cachedFrames();
    });
    EXPECT_GT(held[0], 0u);
    EXPECT_GT(held[1], 0u);
}

TEST(Machine, ConstructsAndReports)
{
    Machine m(tinyConfig(4));
    EXPECT_EQ(m.cores.size(), 4u);
    EXPECT_EQ(m.makespan(), 0u);
    m.cores[2]->compute(100, 0);
    EXPECT_GT(m.makespan(), 0u);
    EXPECT_EQ(m.totalUops(), 100u);
}

CoTask<void>
atomicUser(SimContext &ctx, Addr addr, int &shared, int &observed)
{
    // Bound skew before touching shared state, as all runtime code
    // does (the per-line RMW serialization assumes call order is
    // within a sync quantum of simulated-time order).
    co_await ctx.sync();
    co_await ctx.atomicAccess(addr);
    observed = shared;
    shared += 1;
}

TEST(SimContext, AtomicLinearizes)
{
    Machine m(tinyConfig(2));
    SimContext c0(&m, 0), c1(&m, 1);
    Addr line = m.alloc.alloc("t", 64);
    int shared = 0, seen0 = -1, seen1 = -1;
    // Give core 1 a big head start so its RMW completes first
    // (compute retires 4 uops/cycle).
    m.cores[0]->compute(40000, 0);
    CoTask<void> t0 = atomicUser(c0, line, shared, seen0);
    CoTask<void> t1 = atomicUser(c1, line, shared, seen1);
    t0.start();
    t1.start();
    m.eq.run();
    EXPECT_TRUE(t0.done());
    EXPECT_TRUE(t1.done());
    // Core 1 went first (core 0 was busy), so it saw 0.
    EXPECT_EQ(seen1, 0);
    EXPECT_EQ(seen0, 1);
    EXPECT_EQ(shared, 2);
}

CoTask<void>
syncUser(SimContext &ctx, int &wakeups)
{
    for (int i = 0; i < 10; ++i) {
        ctx.compute(1000, 0); // run far ahead of global time.
        co_await ctx.sync();
        ++wakeups;
    }
}

TEST(SimContext, SyncBoundsSkew)
{
    Machine m(tinyConfig(1));
    SimContext ctx(&m, 0);
    int wakeups = 0;
    CoTask<void> t = syncUser(ctx, wakeups);
    t.start();
    m.eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(wakeups, 10);
    // Global time caught up with the core.
    EXPECT_GE(m.eq.now() + m.cfg.syncQuantum,
              m.cores[0]->frontier());
}

TEST(WorkMonitor, ImmediateTerminationWhenAllIdleAndEmpty)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 1);
    bool result = true;
    auto waiter = [](WorkMonitor &mon,
                     bool &result) -> CoTask<void> {
        result = co_await mon.waitForWork();
    };
    CoTask<void> t = waiter(mon, result);
    t.start();
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_FALSE(result); // no work anywhere -> terminated.
    EXPECT_TRUE(mon.terminated());
}

TEST(WorkMonitor, WorkWakesParkedWorker)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 2);
    std::vector<bool> results;
    auto waiter = [](WorkMonitor &mon,
                     std::vector<bool> &out) -> CoTask<void> {
        bool more = co_await mon.waitForWork();
        out.push_back(more);
    };
    CoTask<void> t0 = waiter(mon, results);
    t0.start(); // parks (worker 1 of 2 idle).
    EXPECT_EQ(mon.idleWorkers(), 1u);
    mon.addWork(1, true); // wakes it with "more work".
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0]);
    EXPECT_FALSE(mon.terminated());
}

TEST(WorkMonitor, NonStealableWorkBlocksTermination)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 2);
    mon.addWork(1, false); // private to some core.
    std::vector<bool> results;
    auto waiter = [](WorkMonitor &mon,
                     std::vector<bool> &out) -> CoTask<void> {
        out.push_back(co_await mon.waitForWork());
    };
    CoTask<void> t0 = waiter(mon, results);
    t0.start();
    eq.run();
    // Parked, not terminated: pending work exists (non-stealable).
    EXPECT_TRUE(results.empty());
    EXPECT_FALSE(mon.terminated());
    // The private work is consumed; second worker going idle now
    // triggers termination and releases the first.
    mon.takeWork(1, false);
    mon.enterIdle();
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0]);
    EXPECT_TRUE(mon.terminated());
}

TEST(WorkMonitor, TransferWorkMovesStealability)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 4);
    mon.addWork(8, true);
    EXPECT_EQ(mon.stealable(), 8u);
    mon.transferWork(8, false); // whole chunk grabbed privately.
    EXPECT_EQ(mon.stealable(), 0u);
    EXPECT_EQ(mon.pending(), 8u);
    mon.takeWork(8, false);
    EXPECT_EQ(mon.pending(), 0u);
}

TEST(WorkMonitor, TerminationHookFires)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 1);
    bool hookFired = false;
    mon.subscribeTermination([&] { hookFired = true; });
    mon.enterIdle();
    EXPECT_TRUE(hookFired);
    EXPECT_TRUE(mon.terminated());
}

TEST(WorkMonitor, ParkedWorkerWakesWhenPrivateWorkTurnsStealable)
{
    // The engine-degradation handoff in a nutshell: a worker parks
    // while only private (non-stealable) work exists; rescuing that
    // work to the global queue is a transferWork(n, true), which
    // must wake the parked worker with "more work" rather than
    // letting it sleep to a false termination.
    EventQueue eq;
    WorkMonitor mon(&eq, 2);
    mon.addWork(1, false); // private to a (faulted) engine.
    std::vector<bool> results;
    auto waiter = [](WorkMonitor &mon,
                     std::vector<bool> &out) -> CoTask<void> {
        out.push_back(co_await mon.waitForWork());
    };
    CoTask<void> t0 = waiter(mon, results);
    t0.start();
    eq.run();
    EXPECT_TRUE(results.empty()); // parked: nothing stealable.
    mon.transferWork(1, true);    // the rescue.
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0]);
    EXPECT_FALSE(mon.terminated());
    EXPECT_EQ(mon.stealable(), 1u);
    EXPECT_EQ(mon.pending(), 1u);
}

TEST(WorkMonitor, TerminationDeclaredExactlyOnce)
{
    EventQueue eq;
    WorkMonitor mon(&eq, 2);
    int hookFires = 0;
    mon.subscribeTermination([&] { hookFires += 1; });
    mon.addWork(2, false);
    mon.enterIdle(); // one worker idle, work pending: no trigger.
    mon.exitIdle();
    mon.takeWork(2, false);
    mon.enterIdle();
    mon.enterIdle(); // all idle && pending==0: terminates.
    EXPECT_TRUE(mon.terminated());
    // Further idle transitions must not re-fire the hooks.
    EXPECT_EQ(hookFires, 1);
}

TEST(EventQueue, DiagnosticHookFiresOnceOnBudgetExhaustion)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle t = 1; t <= 3; ++t)
        eq.schedule(t, [](void *p) { (*static_cast<int *>(p))++; },
                    &fired);
    int hookCalls = 0;
    std::string reason;
    eq.setDiagnosticHook([&](const char *r) {
        hookCalls += 1;
        reason = r;
    });
    clearWarnings();
    EXPECT_EQ(eq.run(2), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(hookCalls, 1);
    EXPECT_EQ(reason, "event budget exhausted");
    clearWarnings();

    // A drained run must not call the hook.
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(hookCalls, 1);
}

TEST(PanicHooks, AddAndRemove)
{
    // Hooks are exercised for real by the death tests in
    // fault_test.cc; here only the registry plumbing is checked.
    static int calls;
    calls = 0;
    int id = addPanicHook([](void *) { calls += 1; }, nullptr);
    EXPECT_GT(id, 0);
    removePanicHook(id);
    removePanicHook(id); // double-remove is harmless.
}

} // anonymous namespace
} // namespace minnow::runtime
