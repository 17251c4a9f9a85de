/**
 * @file
 * Tests for deterministic fault injection, graceful engine
 * degradation, and the simulation watchdog: spec parsing, engine
 * kill/stall runs that must still produce correct output with exact
 * work accounting, credit starvation, prefetch drops (credit
 * conservation), delay faults, watchdog livelock detection, the
 * shared diagnostic dump, panic-hook stats snapshots, and the
 * replayability contract (same spec + seed => identical stats JSON).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sssp.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "harness/workloads.hh"
#include "minnow/engine.hh"
#include "minnow/global_queue.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"
#include "sim/fault.hh"
#include "sim/watchdog.hh"

namespace minnow
{
namespace
{

using galois::RunConfig;
using galois::RunResult;
using minnowengine::EngineStats;
using galois::runMinnow;
using runtime::Machine;

MachineConfig
minnowConfig(std::uint32_t cores, bool prefetch)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = cores;
    cfg.minnow.enabled = true;
    cfg.minnow.prefetchEnabled = prefetch;
    return cfg;
}

// ---------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------

TEST(FaultSpec, ParsesIssueExample)
{
    FaultInjector fi(
        "engine_stall:core=3,at=50000,dur=20000;"
        "noc_delay:p=0.01,add=200;"
        "drop_prefetch:p=0.05;"
        "credit_starve:core=7,at=10000",
        1);
    ASSERT_EQ(fi.clauses().size(), 4u);

    const FaultClause &stall = fi.clauses()[0];
    EXPECT_EQ(stall.kind, FaultClause::Kind::EngineStall);
    EXPECT_EQ(stall.core, 3u);
    EXPECT_EQ(stall.at, 50000u);
    EXPECT_EQ(stall.dur, 20000u);
    EXPECT_STREQ(stall.kindName(), "engine_stall");

    const FaultClause &noc = fi.clauses()[1];
    EXPECT_EQ(noc.kind, FaultClause::Kind::NocDelay);
    EXPECT_DOUBLE_EQ(noc.p, 0.01);
    EXPECT_EQ(noc.add, 200u);
    EXPECT_EQ(noc.core, FaultClause::kAnyCore);

    const FaultClause &drop = fi.clauses()[2];
    EXPECT_EQ(drop.kind, FaultClause::Kind::DropPrefetch);
    EXPECT_DOUBLE_EQ(drop.p, 0.05);

    const FaultClause &starve = fi.clauses()[3];
    EXPECT_EQ(starve.kind, FaultClause::Kind::CreditStarve);
    EXPECT_EQ(starve.core, 7u);
    EXPECT_EQ(starve.dur, 0u); // forever.
}

TEST(FaultSpec, ToleratesWhitespaceAndEmptyClauses)
{
    FaultInjector fi(" engine_kill : core = 2 , at = 100 ;; ", 1);
    ASSERT_EQ(fi.clauses().size(), 1u);
    EXPECT_EQ(fi.clauses()[0].kind, FaultClause::Kind::EngineKill);
    EXPECT_EQ(fi.clauses()[0].core, 2u);
    EXPECT_EQ(fi.clauses()[0].at, 100u);
}

TEST(FaultSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_EXIT(FaultInjector("engine_melt:core=1", 1),
                testing::ExitedWithCode(1), "unknown fault kind");
    EXPECT_EXIT(FaultInjector("noc_delay:frob=2,add=10", 1),
                testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(FaultInjector("drop_prefetch:p=1.5", 1),
                testing::ExitedWithCode(1), "outside \\[0, 1\\]");
    EXPECT_EXIT(FaultInjector("engine_kill:at=5", 1),
                testing::ExitedWithCode(1), "needs core=");
    EXPECT_EXIT(FaultInjector("engine_stall:core=1,at=5", 1),
                testing::ExitedWithCode(1), "needs dur=");
    EXPECT_EXIT(FaultInjector("noc_delay:p=0.5", 1),
                testing::ExitedWithCode(1), "needs add=");
    EXPECT_EXIT(FaultInjector("noc_delay:add=ten", 1),
                testing::ExitedWithCode(1), "bad value");
    EXPECT_EXIT(FaultInjector("  ;  ", 1),
                testing::ExitedWithCode(1), "no clauses");
}

TEST(FaultSpecDeathTest, ErrorsNameTokenAndOffset)
{
    // The diagnostics must name the offending token and its offset
    // within the *full* spec, not just echo the whole string.
    EXPECT_EXIT(
        FaultInjector("noc_delay:p=0.5,add=10;engine_melt:core=1", 1),
        testing::ExitedWithCode(1),
        "unknown fault kind 'engine_melt' at offset 23");
    EXPECT_EXIT(FaultInjector("noc_delay:add=ten", 1),
                testing::ExitedWithCode(1),
                "bad value 'ten' for key 'add' at offset 14");
    EXPECT_EXIT(
        FaultInjector("drop_prefetch:p=1;noc_delay:frob=2,add=10", 1),
        testing::ExitedWithCode(1),
        "unknown key 'frob' at offset 28");
    EXPECT_EXIT(FaultInjector("drop_prefetch:p=1.5", 1),
                testing::ExitedWithCode(1),
                "probability '1.5' at offset 16");
    EXPECT_EXIT(FaultInjector("drop_prefetch:oops", 1),
                testing::ExitedWithCode(1),
                "expected key=value, got 'oops' at offset 14");
}

TEST(FaultSpec, WindowsAndTargets)
{
    FaultInjector fi("dram_delay:p=1,add=50,at=100,dur=10", 7);
    Cycle now = 0;
    fi.bindClock(&now);
    EXPECT_EQ(fi.dramExtraDelay(), 0u); // before onset.
    now = 100;
    EXPECT_EQ(fi.dramExtraDelay(), 50u);
    now = 109;
    EXPECT_EQ(fi.dramExtraDelay(), 50u);
    now = 110;
    EXPECT_EQ(fi.dramExtraDelay(), 0u); // window closed.
    EXPECT_EQ(fi.stats().dramDelays, 2u);
    EXPECT_EQ(fi.stats().dramDelayCycles, 100u);
}

// ---------------------------------------------------------------
// Full-run degradation: faulted engines must never lose tasks.
// ---------------------------------------------------------------

RunResult
runSsspWithFaults(std::uint32_t threads, bool prefetch,
                  const std::string &spec, EngineStats *es = nullptr,
                  std::unique_ptr<Machine> *keepAlive = nullptr,
                  std::uint64_t maxEvents = RunConfig().maxEvents)
{
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 1);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    MachineConfig cfg = minnowConfig(std::max(threads, 2u), prefetch);
    cfg.faultSpec = spec;
    auto m = std::make_unique<Machine>(cfg);
    g.assignAddresses(m->alloc, 32);
    app.reset();
    RunConfig rc;
    rc.threads = threads;
    rc.maxEvents = maxEvents;
    RunResult r = runMinnow(*m, app, 3, rc, es);
    if (keepAlive)
        *keepAlive = std::move(m);
    return r;
}

TEST(FaultRun, EngineKillAt64ThreadsCompletesCorrectly)
{
    EngineStats es;
    std::unique_ptr<Machine> m;
    RunResult r = runSsspWithFaults(
        64, true, "engine_kill:core=0,at=5000", &es, &m);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(m->monitor.terminated());
    EXPECT_EQ(m->monitor.pending(), 0u);
    EXPECT_EQ(es.faultKills, 1u);
    // The killed engine's worker kept popping via the software path.
    EXPECT_GT(es.fallbackPops, 0u);
}

TEST(FaultRun, KillingSeveralEnginesStillDrainsAllWork)
{
    EngineStats es;
    std::unique_ptr<Machine> m;
    RunResult r = runSsspWithFaults(
        8, false,
        "engine_kill:core=0,at=2000;engine_kill:core=3,at=4000;"
        "engine_kill:core=5,at=1000",
        &es, &m);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(m->monitor.pending(), 0u);
    EXPECT_EQ(es.faultKills, 3u);
}

TEST(FaultRun, EngineStallDegradesThenRecovers)
{
    // A stall releases the engine's blocked worker to the software
    // path. The stall at cycle 0 catches it parked on the path with
    // nothing to pop, so the recovery sends it back into dequeue from
    // inside the fallback; the second stall makes it pop tasks off
    // the software path (fallbackPops). No task may be lost.
    EngineStats es;
    std::unique_ptr<Machine> m;
    RunResult r = runSsspWithFaults(
        8, true,
        "engine_stall:core=0,at=0,dur=3000;"
        "engine_stall:core=0,at=6000,dur=20000",
        &es, &m);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(m->monitor.terminated());
    EXPECT_EQ(m->monitor.pending(), 0u);
    EXPECT_EQ(es.faultStalls, 2u);
    EXPECT_EQ(es.faultKills, 0u);
    EXPECT_GT(es.fallbackPops, 0u);
}

TEST(FaultRun, RecoveredFallbackHandsItsWakeupOn)
{
    // A long stall of core 0's engine: its worker waits for work on
    // the software path until a task the recovery rescues wakes it.
    // Seeing the engine back, it re-enters dequeue; unless it hands
    // that wakeup on, every other worker stays parked with the task
    // pending and the run ends unverified at the event budget.
    EngineStats es;
    std::unique_ptr<Machine> m;
    RunResult r = runSsspWithFaults(
        8, true, "engine_stall:core=0,at=3000,dur=100000", &es, &m,
        5'000'000);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(m->monitor.pending(), 0u);
    EXPECT_GT(es.fallbackPops, 0u);
}

TEST(FaultRun, CreditStarvationDoesNotLoseWork)
{
    EngineStats es;
    RunResult r = runSsspWithFaults(
        4, true, "credit_starve:core=0,at=0", &es);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(es.creditsLost, 0u);
}

TEST(FaultRun, DroppedPrefetchesConsumeNoCredits)
{
    EngineStats es;
    std::unique_ptr<Machine> m;
    RunResult r =
        runSsspWithFaults(4, true, "drop_prefetch:p=1", &es, &m);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(es.prefetchDropped, 0u);
    // Every issue was dropped before acquiring a credit, so no
    // prefetch-marked line was ever installed.
    EXPECT_EQ(r.mem.prefetchFills, 0u);
    EXPECT_EQ(m->faults->stats().prefetchDrops, es.prefetchDropped);
}

TEST(FaultRun, DelayFaultsSlowTheRunDown)
{
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 1);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    Machine clean(minnowConfig(4, false));
    g.assignAddresses(clean.alloc, 32);
    app.reset();
    RunConfig rc;
    rc.threads = 4;
    RunResult cleanR = runMinnow(clean, app, 3, rc);
    EXPECT_FALSE(cleanR.timedOut);

    RunResult slow = runSsspWithFaults(
        4, false, "dram_delay:p=1,add=400;noc_delay:p=1,add=100");
    EXPECT_FALSE(slow.timedOut);
    EXPECT_TRUE(slow.verified);
    EXPECT_GT(slow.cycles, cleanR.cycles);
}

TEST(EngineDegradation, InjectedKillReleasesBlockedWorker)
{
    Machine m(minnowConfig(2, false));
    // Worker 0 blocks in the engine; a phantom second worker (driven
    // by the test body) holds private pending work so the run cannot
    // terminate early.
    m.monitor.reset(2);
    int termFires = 0;
    m.monitor.subscribeTermination([&] { termFires += 1; });
    minnowengine::MinnowGlobalQueue q(&m.alloc, 3);
    minnowengine::PrefetchProgram prog;
    minnowengine::MinnowEngine eng(&m, 0, &q, prog);
    m.monitor.subscribeTermination([&eng] { eng.onTerminate(); });
    m.monitor.addWork(1, false); // the phantom worker's task.

    runtime::SimContext ctx(&m, 0);
    std::optional<worklist::WorkItem> result;
    bool resultSet = false;
    auto driver = [](runtime::SimContext &ctx,
                     minnowengine::MinnowEngine &eng,
                     std::optional<worklist::WorkItem> &out,
                     bool &set) -> runtime::CoTask<void> {
        out = co_await eng.dequeue(ctx);
        set = true;
    };
    runtime::CoTask<void> t = driver(ctx, eng, result, resultSet);
    t.start();

    // Kill the engine while the worker is blocked inside it.
    m.eq.schedule(5000, [](void *p) {
        static_cast<minnowengine::MinnowEngine *>(p)->injectKill();
    }, &eng);
    m.eq.run();

    // The kill released the worker; it fell back to the software
    // path, found nothing stealable, and parked on the monitor.
    // Crucially the run has NOT terminated: the phantom task is
    // still pending.
    EXPECT_FALSE(resultSet);
    EXPECT_FALSE(m.monitor.terminated());
    EXPECT_TRUE(eng.dead());
    EXPECT_EQ(eng.stats().faultKills, 1u);
    EXPECT_EQ(m.monitor.pending(), 1u);

    // The phantom worker finishes its task and goes idle: pending
    // reaches 0 with everyone idle, so termination is declared
    // (exactly once) and the parked worker drains with nullopt.
    m.monitor.takeWork(1, false);
    m.monitor.enterIdle();
    m.eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_TRUE(resultSet);
    EXPECT_FALSE(result.has_value());
    EXPECT_TRUE(m.monitor.terminated());
    EXPECT_EQ(m.monitor.pending(), 0u);
    EXPECT_EQ(termFires, 1);
}

TEST(EngineDegradation, KillRescuesLocalTasksToGlobalQueue)
{
    Machine m(minnowConfig(2, false));
    m.monitor.reset(1);
    minnowengine::MinnowGlobalQueue q(&m.alloc, 3);
    minnowengine::PrefetchProgram prog;
    minnowengine::MinnowEngine eng(&m, 0, &q, prog);

    // Seed two private tasks into the engine's local queue.
    m.monitor.addWork(2, false);
    eng.seedLocal({1, 10});
    eng.seedLocal({2, 11});
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(m.monitor.stealable(), 0u);

    eng.injectKill();

    // Both tasks moved to the global queue and turned stealable;
    // pending is untouched (no work lost, none double-counted).
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(eng.localQueueSize(), 0u);
    EXPECT_EQ(eng.stats().tasksRescued, 2u);
    EXPECT_EQ(m.monitor.pending(), 2u);
    EXPECT_EQ(m.monitor.stealable(), 2u);
}

TEST(EngineDegradation, OverlappingRescuesAreIdempotent)
{
    // A stall rescue followed by a kill before the stall window
    // closes runs rescueLocalTasks twice. Drain-to-empty semantics
    // must make the second pass a no-op: every seeded task crosses
    // to the global queue exactly once.
    Machine m(minnowConfig(2, false));
    m.monitor.reset(1);
    minnowengine::MinnowGlobalQueue q(&m.alloc, 3);
    minnowengine::PrefetchProgram prog;
    minnowengine::MinnowEngine eng(&m, 0, &q, prog);

    m.monitor.addWork(3, false);
    eng.seedLocal({1, 10});
    eng.seedLocal({2, 11});
    eng.seedLocal({3, 12});

    eng.injectStall(5000);
    EXPECT_EQ(eng.stats().tasksRescued, 3u);
    eng.injectKill(); // overlapping second rescue: nothing left.

    EXPECT_EQ(eng.stats().tasksRescued, 3u)
        << "double rescue must not re-count tasks";
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(eng.localQueueSize(), 0u);
    EXPECT_EQ(m.monitor.pending(), 3u);
    EXPECT_EQ(m.monitor.stealable(), 3u);
}

TEST(EngineCredits, StarvedReturnWakesWaiterExactlyOnce)
{
    // Race audit for the PoolAcquire wake path: a credit return
    // swallowed by fault injection must leave the waiter parked
    // (not resumed-then-recounted), and the first surviving return
    // must wake it exactly once.
    MachineConfig cfg = minnowConfig(2, true);
    cfg.minnow.prefetchCredits = 1;
    cfg.faultSpec = "credit_starve:core=0,at=0,dur=40000";
    Machine m(cfg);
    m.monitor.reset(1);
    minnowengine::MinnowGlobalQueue q(&m.alloc, 3);
    minnowengine::PrefetchProgram prog;
    minnowengine::MinnowEngine eng(&m, 0, &q, prog);
    Addr lineA = m.alloc.allocAnon(64);
    Addr lineB = m.alloc.allocAnon(64);

    int done = 0;
    auto prefetcher = [](Machine &m, minnowengine::MinnowEngine &eng,
                         Addr addr, int &done)
        -> runtime::CoTask<void> {
        minnowengine::ThreadletCtx tc(&eng, m.eq.now());
        co_await tc.load(addr, true);
        done += 1;
    };
    runtime::CoTask<void> a = prefetcher(m, eng, lineA, done);
    runtime::CoTask<void> b = prefetcher(m, eng, lineB, done);
    a.start(); // takes the only credit.
    b.start(); // parks on the pool.
    // In the starvation window: the return is swallowed, the waiter
    // must stay parked.
    m.eq.schedule(10000, [](void *p) {
        auto *e = static_cast<minnowengine::MinnowEngine *>(p);
        e->creditReturn(true);
        EXPECT_EQ(e->stats().creditsLost, 1u);
        EXPECT_EQ(e->creditWaitersNow(), 1u);
    }, &eng);
    // After the window: the return hands off and wakes the waiter.
    m.eq.schedule(60000, [](void *p) {
        static_cast<minnowengine::MinnowEngine *>(p)
            ->creditReturn(true);
    }, &eng);
    m.eq.run();

    ASSERT_TRUE(a.done());
    ASSERT_TRUE(b.done());
    EXPECT_EQ(done, 2) << "waiter must resume exactly once";
    const EngineStats &es = eng.stats();
    EXPECT_EQ(es.creditsLost, 1u);
    EXPECT_EQ(es.creditStalls, 1u)
        << "the swallowed return must not re-count the stall";
    EXPECT_EQ(es.creditHandoffs, 1u);
    EXPECT_EQ(eng.creditWaitersNow(), 0u);
}

// ---------------------------------------------------------------
// Determinism: same spec + seed => byte-identical stats JSON.
// ---------------------------------------------------------------

TEST(FaultDeterminism, SameSpecAndSeedGiveIdenticalStatsJson)
{
    const std::string spec =
        "engine_stall:core=1,at=4000,dur=8000;"
        "dram_delay:p=0.2,add=150;drop_prefetch:p=0.3";
    auto once = [&spec]() {
        harness::Workload w = harness::makeWorkload("sssp", 0.02, 1);
        harness::RunSpec rs;
        rs.config = harness::Config::MinnowPf;
        rs.threads = 4;
        rs.machine.numCores = 4;
        rs.machine.faultSpec = spec;
        rs.machine.faultSeed = 99;
        std::string json;
        rs.statsHook = [&json](const StatsRegistry &s) {
            json = s.toJson();
        };
        harness::runExperiment(w, rs);
        return json;
    };
    std::string a = once();
    std::string b = once();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(FaultDeterminism, DifferentSeedsDiverge)
{
    FaultInjector a("dram_delay:p=0.5,add=100", 1);
    FaultInjector b("dram_delay:p=0.5,add=100", 2);
    Cycle now = 10;
    a.bindClock(&now);
    b.bindClock(&now);
    // Same clause stream, different seeds: the decision sequences
    // must diverge somewhere in a short window.
    bool diverged = false;
    for (int i = 0; i < 64 && !diverged; ++i)
        diverged = (a.dramExtraDelay() != b.dramExtraDelay());
    EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------

TEST(WatchdogTest, TripsOnLivelockAndEmitsDiagnostic)
{
    std::string path = testing::TempDir() + "minnow-diag-stall.json";
    std::remove(path.c_str());
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 2;
    cfg.diagnosticPath = path;
    Machine m(cfg);
    // A livelock: pending work that nobody consumes while the event
    // queue stays busy with a do-nothing ticker.
    m.monitor.reset(1);
    m.monitor.addWork(1, false);
    struct Ticker
    {
        Machine *m;
        static void
        tick(void *arg)
        {
            auto *t = static_cast<Ticker *>(arg);
            if (!t->m->eq.stopped()) {
                t->m->eq.schedule(t->m->eq.now() + 100,
                                  &Ticker::tick, arg);
            }
        }
    } ticker{&m};
    Ticker::tick(&ticker);

    Watchdog dog(&m, 1000, 3);
    std::string reason;
    dog.setOnStall([&](const std::string &r) {
        reason = r;
        m.eq.stop();
    });
    dog.arm();
    m.eq.run(1'000'000);

    EXPECT_TRUE(dog.tripped());
    EXPECT_GE(dog.checksRun(), 3u);
    EXPECT_NE(reason.find("no forward progress"), std::string::npos);
    EXPECT_NE(reason.find("pending=1"), std::string::npos);

    dumpDiagnostic(m, reason);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream diag;
    diag << in.rdbuf();
    EXPECT_NE(diag.str().find("\"schema\":\"minnow-diag-1\""),
              std::string::npos);
    EXPECT_NE(diag.str().find("\"minnow-stats-1\""), std::string::npos);
    EXPECT_NE(diag.str().find("\"cores\":["), std::string::npos);
    std::remove(path.c_str());
}

TEST(WatchdogTest, StaysQuietOnAHealthyRun)
{
    graph::CsrGraph g = graph::gridGraph(16, 16, 100, 1);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    MachineConfig cfg = minnowConfig(4, false);
    cfg.watchdogInterval = 2000;
    Machine m(cfg);
    g.assignAddresses(m.alloc, 32);
    app.reset();
    RunConfig rc;
    rc.threads = 4;
    RunResult r = runMinnow(m, app, 3, rc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(r.verified);
    ASSERT_NE(m.watchdog, nullptr);
    EXPECT_FALSE(m.watchdog->tripped());
    EXPECT_GT(m.watchdog->checksRun(), 0u);
}

TEST(WatchdogTest, BudgetExhaustionWritesDiagnosticFile)
{
    std::string path = testing::TempDir() + "minnow-diag-test.json";
    std::remove(path.c_str());

    MachineConfig cfg = scaledMachine();
    cfg.numCores = 2;
    cfg.diagnosticPath = path;
    Machine m(cfg);
    struct Ticker
    {
        Machine *m;
        static void
        tick(void *arg)
        {
            auto *t = static_cast<Ticker *>(arg);
            t->m->eq.schedule(t->m->eq.now() + 10, &Ticker::tick,
                              arg);
        }
    } ticker{&m};
    Ticker::tick(&ticker);
    m.eq.run(50); // exhausts the budget with events left over.

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    std::string doc(buf);
    EXPECT_NE(doc.find("\"schema\":\"minnow-diag-1\""),
              std::string::npos);
    EXPECT_NE(doc.find("event budget exhausted"), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// panic() post-mortem.
// ---------------------------------------------------------------

TEST(PanicHookDeathTest, PanicWritesStatsSnapshot)
{
    std::string path = testing::TempDir() + "minnow-panic-test.json";
    std::remove(path.c_str());

    EXPECT_EXIT(
        {
            MachineConfig cfg = scaledMachine();
            cfg.numCores = 2;
            cfg.panicStatsPath = path;
            Machine m(cfg);
            panic("fault test: deliberate panic");
        },
        testing::KilledBySignal(SIGABRT), "deliberate panic");

    // The child process wrote the snapshot before aborting.
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    EXPECT_NE(std::string(buf).find("minnow-stats-1"),
              std::string::npos);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace minnow
