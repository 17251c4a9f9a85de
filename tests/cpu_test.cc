/**
 * @file
 * Unit tests for the OOO core limit-study model: dispatch width,
 * ROB/LQ occupancy limits, fences, branch mispredict gating, and the
 * MLP behaviours that Figs. 4-7 of the paper depend on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "cpu/ooo_core.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"

namespace minnow::cpu
{
namespace
{

struct CoreFixture
{
    explicit CoreFixture(CoreParams p = CoreParams{},
                         std::uint32_t cores = 2)
    {
        cfg = scaledMachine();
        cfg.numCores = cores;
        cfg.core = p;
        mem = std::make_unique<mem::MemorySystem>(cfg);
        core = std::make_unique<OooCore>(0, cfg.core, mem.get(), 1);
    }

    MachineConfig cfg;
    std::unique_ptr<mem::MemorySystem> mem;
    std::unique_ptr<OooCore> core;
};

TEST(SegmentedWindow, BasicPushQuery)
{
    SegmentedWindow w;
    w.push(4, 10);
    w.push(2, 20);
    EXPECT_EQ(w.timeAt(0), 10u);
    EXPECT_EQ(w.timeAt(3), 10u);
    EXPECT_EQ(w.timeAt(4), 20u);
    EXPECT_EQ(w.timeAt(5), 20u);
    EXPECT_EQ(w.tail(), 6u);
}

TEST(SegmentedWindow, MergesEqualTimes)
{
    SegmentedWindow w;
    w.push(2, 5);
    w.push(3, 5);
    EXPECT_EQ(w.timeAt(4), 5u);
}

TEST(SegmentedWindow, WrapsAndGrowsLikeAReferenceList)
{
    // Segments flow through the ring: the head moves forward as
    // queries consume it while pushes grow the buffer past its
    // initial capacity, so both wrap-around and growth with a
    // wrapped head are exercised. A plain list is the reference.
    SegmentedWindow w;
    std::vector<std::pair<std::uint64_t, Cycle>> ref; // (end, time)
    Rng rng(11);
    std::uint64_t tail = 0, query = 0;
    std::size_t maxSegs = 0;
    for (int step = 0; step < 20000; ++step) {
        // Bursts of pushes, sometimes longer than the ring, so it
        // grows while its head sits mid-buffer.
        int pushes = int(rng.below(step % 1000 < 20 ? 40 : 3));
        for (int i = 0; i < pushes; ++i) {
            std::uint64_t n = 1 + rng.below(3);
            Cycle t = Cycle(step) * 4 + Cycle(i);
            w.push(n, t);
            tail += n;
            ref.push_back({tail, t});
        }
        maxSegs = std::max(maxSegs, w.segments());
        if (query < tail && rng.chance(0.7))
            query += rng.below(std::min<std::uint64_t>(tail - query, 6));
        Cycle want = 0;
        for (const auto &[end, t] : ref) {
            if (query < end) {
                want = t;
                break;
            }
        }
        ASSERT_EQ(w.timeAt(query), want) << "step " << step;
    }
    EXPECT_EQ(w.tail(), tail);
    EXPECT_GT(maxSegs, 8u); // grew past the first ring buffer.
}

TEST(SegmentedWindow, BeyondTailIsZero)
{
    SegmentedWindow w;
    w.push(2, 7);
    EXPECT_EQ(w.timeAt(0), 7u);
    EXPECT_EQ(w.timeAt(1), 7u);
    EXPECT_EQ(w.timeAt(2), 0u);
}

TEST(OooCore, DispatchWidthBoundsComputeRate)
{
    CoreFixture f;
    f.core->compute(400, 0);
    // 400 uops at 4/cycle = 100 cycles of frontend time.
    EXPECT_GE(f.core->frontier(), 100u);
    EXPECT_LE(f.core->frontier(), 110u);
    EXPECT_EQ(f.core->stats().uops, 400u);
}

TEST(OooCore, FrontendCursorMatchesSlotArithmetic)
{
    // The frontend is kept as (cycle, slot) rather than a slot count
    // divided by the width; for any width the frontier must equal
    // floor(slots / width) of the slot count it replaces.
    for (std::uint32_t width : {1u, 2u, 3u, 4u, 5u, 7u}) {
        CoreParams p;
        p.dispatchWidth = width;
        p.robEntries = 4096; // no structural stalls in this test.
        p.rsEntries = 4096;
        CoreFixture f(p);
        Rng rng(width);
        std::uint64_t slots = 0;
        for (int i = 0; i < 200; ++i) {
            if (rng.chance(0.1)) {
                Cycle t = f.core->frontier() + rng.below(5);
                f.core->idleUntil(t);
                slots = std::max<std::uint64_t>(slots, t * width);
            } else {
                std::uint32_t n = 1 + std::uint32_t(rng.below(9));
                f.core->compute(n, 0);
                slots += n;
            }
            ASSERT_EQ(f.core->frontier(), slots / width)
                << "width " << width << " step " << i;
        }
    }
}

TEST(OooCore, IndependentLoadsOverlap)
{
    CoreFixture f;
    // 8 independent cold loads to distinct lines: completions should
    // overlap heavily rather than serialize.
    Cycle last = 0;
    for (int i = 0; i < 8; ++i)
        last = f.core->load(0x100000 + Addr(i) * 4096);
    Cycle serial = 8 * (last); // loose upper bound sanity input.
    (void)serial;
    // All 8 issued within a few cycles, so the last completion is
    // roughly one memory latency, not eight.
    Cycle one = f.core->load(0x900000);
    EXPECT_LT(last, 2 * one);
}

TEST(OooCore, DependentLoadsSerialize)
{
    CoreFixture f;
    Cycle t1 = f.core->load(0x100000);
    Cycle t2 = f.core->load(0x200000, t1); // pointer chase.
    EXPECT_GT(t2, t1);
    // The dependent load could not even start before t1.
    CoreFixture g;
    Cycle u1 = g.core->load(0x100000);
    Cycle u2 = g.core->load(0x200000); // independent version.
    EXPECT_LT(u2 - u1, t2 - t1);
}

TEST(OooCore, RobLimitsMlp)
{
    // With a tiny ROB, a long run of loads+compute must stall the
    // frontend; with a large ROB it keeps streaming.
    CoreParams small;
    small.robEntries = 16;
    small.rsEntries = 16;
    small.lqEntries = 8;
    small.sqEntries = 8;
    CoreParams big;
    big.robEntries = 1024;
    big.rsEntries = 512;
    big.lqEntries = 512;
    big.sqEntries = 256;

    auto run = [](CoreParams p) {
        CoreFixture f(p);
        for (int i = 0; i < 64; ++i) {
            f.core->load(0x100000 + Addr(i) * 4096);
            f.core->compute(10, 0);
        }
        return f.core->drain();
    };
    EXPECT_GT(run(small), run(big));
}

TEST(OooCore, LoadQueueLimitsOutstandingLoads)
{
    CoreParams p;
    p.lqEntries = 2;
    CoreFixture f(p);
    // With LQ=2 the third load cannot allocate until the first
    // completes, so issue times spread out by full memory latencies.
    Cycle t1 = f.core->load(0x100000);
    f.core->load(0x200000);
    f.core->load(0x300000);
    EXPECT_GE(f.core->frontier(), t1);
}

TEST(OooCore, FencesSerializeAtomics)
{
    CoreParams fenced;
    fenced.atomicFences = true;
    CoreParams unfenced;
    unfenced.atomicFences = false;

    auto run = [](CoreParams p) {
        CoreFixture f(p);
        for (int i = 0; i < 16; ++i) {
            f.core->load(0x100000 + Addr(i) * 4096);
            f.core->atomic(0x800000 + Addr(i) * 4096);
        }
        return f.core->drain();
    };
    Cycle withFence = run(fenced);
    Cycle withoutFence = run(unfenced);
    EXPECT_GT(withFence, withoutFence);
}

TEST(OooCore, FenceStallsAreCounted)
{
    CoreFixture f;
    f.core->load(0x100000);
    f.core->atomic(0x200000);
    EXPECT_GT(f.core->stats().fenceStallCycles, 0u);
}

TEST(OooCore, MispredictGatesIssue)
{
    CoreParams always;
    always.dataMispredictRate = 1.0;
    CoreParams never;
    never.dataMispredictRate = 0.0;

    auto run = [](CoreParams p) {
        CoreFixture f(p);
        for (int i = 0; i < 16; ++i) {
            Cycle v = f.core->load(0x100000 + Addr(i) * 4096);
            f.core->branch(BranchKind::DataDependent, v);
        }
        return f.core->drain();
    };
    EXPECT_GT(run(always), run(never));
}

TEST(OooCore, PerfectBranchesIgnoreRate)
{
    CoreParams p;
    p.dataMispredictRate = 1.0;
    p.perfectBranches = true;
    CoreFixture f(p);
    for (int i = 0; i < 16; ++i) {
        Cycle v = f.core->load(0x100000 + Addr(i) * 4096);
        f.core->branch(BranchKind::DataDependent, v);
    }
    EXPECT_EQ(f.core->stats().mispredicts, 0u);
}

TEST(OooCore, MispredictsAreDeterministic)
{
    auto run = [] {
        CoreParams p;
        p.dataMispredictRate = 0.5;
        CoreFixture f(p);
        for (int i = 0; i < 100; ++i)
            f.core->branch(BranchKind::DataDependent, 0);
        return f.core->stats().mispredicts;
    };
    EXPECT_EQ(run(), run());
}

TEST(OooCore, CheapLoadsCountButHitL1)
{
    CoreFixture f;
    f.core->cheapLoads(10);
    EXPECT_EQ(f.core->stats().cheapLoads, 10u);
    EXPECT_EQ(f.core->stats().loads, 10u);
    EXPECT_EQ(f.mem->totals().loads, 0u); // never reached the caches.
}

TEST(OooCore, DelinquentLoadsTracked)
{
    CoreFixture f;
    LoadInfo delinquent;
    delinquent.delinquent = true;
    f.core->load(0x100000, 0, delinquent);
    f.core->load(0x200000);
    f.core->cheapLoads(8);
    EXPECT_EQ(f.core->stats().delinquentLoads, 1u);
    EXPECT_EQ(f.core->stats().loads, 10u);
}

TEST(OooCore, IdleUntilAdvancesFrontier)
{
    CoreFixture f;
    f.core->compute(4, 0);
    f.core->idleUntil(5000);
    EXPECT_GE(f.core->frontier(), 5000u);
}

TEST(OooCore, PhaseAttribution)
{
    CoreFixture f;
    f.core->setPhase(Phase::Worklist);
    f.core->compute(100, 0);
    f.core->setPhase(Phase::App);
    f.core->compute(200, 0);
    const CoreStats &st = f.core->stats();
    EXPECT_GT(st.phases[int(Phase::Worklist)].cycles, 0u);
    EXPECT_GT(st.phases[int(Phase::App)].cycles,
              st.phases[int(Phase::Worklist)].cycles);
    EXPECT_EQ(st.phases[int(Phase::Worklist)].uops, 100u);
    EXPECT_EQ(st.phases[int(Phase::App)].uops, 200u);
}

TEST(OooCore, DrainCoversOutstandingWork)
{
    CoreFixture f;
    Cycle done = f.core->load(0x100000);
    EXPECT_GE(f.core->drain(), done);
    EXPECT_LE(f.core->frontier(), done); // frontend ran ahead.
}

TEST(OooCore, BiggerRobHelpsOnlyWithoutSerialization)
{
    // The Fig. 4 story in miniature: with realistic branches+fences,
    // growing the ROB 4x barely helps; with both removed, it does.
    auto run = [](std::uint32_t rob, bool ideal) {
        CoreParams p;
        p.robEntries = rob;
        p.rsEntries = rob / 2;
        p.lqEntries = rob / 4;
        p.sqEntries = rob / 4;
        p.perfectBranches = ideal;
        p.atomicFences = !ideal;
        p.dataMispredictRate = 0.3;
        CoreFixture f(p);
        for (int i = 0; i < 128; ++i) {
            Cycle v = f.core->load(0x100000 + Addr(i) * 4096);
            f.core->branch(BranchKind::DataDependent, v);
            f.core->atomic(0x800000 + Addr(i) * 256);
            f.core->compute(8, 0);
        }
        return f.core->drain();
    };
    double realisticGain = double(run(64, false)) / run(256, false);
    double idealGain = double(run(64, true)) / run(256, true);
    EXPECT_GT(idealGain, realisticGain);
}

} // anonymous namespace
} // namespace minnow::cpu
