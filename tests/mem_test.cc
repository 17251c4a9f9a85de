/**
 * @file
 * Unit tests for the memory hierarchy: cache arrays, NoC, DRAM,
 * coherence directory behaviour, prefetch-bit/credit plumbing, and
 * the stride/IMP prefetchers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/rng.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_system.hh"
#include "mem/noc.hh"
#include "mem/prefetcher.hh"
#include "sim/config.hh"

namespace minnow::mem
{
namespace
{

CacheParams
tinyCache(std::uint64_t bytes, std::uint32_t assoc,
          std::uint32_t latency)
{
    return CacheParams{bytes, assoc, latency};
}

TEST(CacheArray, HitAfterFill)
{
    CacheArray c(tinyCache(4096, 4, 1)); // 16 sets.
    Eviction ev;
    c.fill(100, false, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(c.lookup(100));
    EXPECT_FALSE(c.lookup(101));
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(tinyCache(2 * 64 * 4, 2, 1)); // 4 sets, 2 ways.
    Eviction ev;
    // Three lines in the same set (set index = lnum & 3).
    c.fill(0, false, ev);
    c.fill(4, false, ev);
    EXPECT_TRUE(c.lookup(0)); // touch 0 so 4 is LRU.
    c.fill(8, false, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineNum, 4u);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(4));
    EXPECT_TRUE(c.probe(8));
}

TEST(CacheArray, EvictionReportsDirtyAndPrefetch)
{
    CacheArray c(tinyCache(64 * 1, 1, 1)); // 1 set, 1 way.
    Eviction ev;
    Frame line = c.fill(7, true, ev);
    c.setDirty(line, true);
    c.fill(9, false, ev);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineNum, 7u);
    EXPECT_TRUE(ev.dirty);
    EXPECT_TRUE(ev.prefetch);
}

TEST(CacheArray, InvalidateAndFlush)
{
    CacheArray c(tinyCache(4096, 4, 1));
    Eviction ev;
    c.fill(5, false, ev);
    EXPECT_TRUE(c.invalidate(5));
    EXPECT_FALSE(c.invalidate(5));
    c.fill(6, false, ev);
    c.fill(7, false, ev);
    EXPECT_EQ(c.validLines(), 2u);
    c.flushAll();
    EXPECT_EQ(c.validLines(), 0u);
}

/**
 * The frame-per-word CacheArray's reference: the stamp-LRU array it
 * replaced (40-byte frames, a 64-bit last-touch stamp per frame).
 * Frame indices are set * assoc + way in both.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : assoc_(p.assoc), mask_(p.sets() - 1),
          lines_(std::size_t(p.sets()) * p.assoc)
    {
    }

    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool exclusive = false;
        bool prefetch = false;
        bool prefetchHw = false;
        std::uint64_t lru = 0;
        Cycle readyAt = 0;
    };

    int
    lookup(Addr lnum, bool touch)
    {
        std::size_t base = std::size_t(lnum & mask_) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Line &l = lines_[base + w];
            if (l.valid && l.tag == lnum) {
                if (touch)
                    l.lru = ++stamp_;
                return int(base + w);
            }
        }
        return -1;
    }

    int
    fill(Addr lnum, bool isPrefetch, Eviction &ev)
    {
        std::size_t base = std::size_t(lnum & mask_) * assoc_;
        std::size_t victim = base;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!lines_[base + w].valid) {
                victim = base + w;
                break;
            }
            if (lines_[base + w].lru < lines_[victim].lru)
                victim = base + w;
        }
        Line &v = lines_[victim];
        ev = Eviction{};
        if (v.valid) {
            ev.valid = true;
            ev.lineNum = v.tag;
            ev.dirty = v.dirty;
            ev.prefetch = v.prefetch;
            ev.prefetchHw = v.prefetchHw;
        }
        v = Line{lnum, true, false, false, isPrefetch, false, ++stamp_,
                 0};
        return int(victim);
    }

    bool
    invalidate(Addr lnum)
    {
        int i = lookup(lnum, false);
        if (i >= 0)
            lines_[std::size_t(i)].valid = false;
        return i >= 0;
    }

    void
    flushAll()
    {
        for (Line &l : lines_)
            l.valid = false;
    }

    Line &at(int i) { return lines_[std::size_t(i)]; }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Line &l : lines_)
            n += l.valid;
        return n;
    }

  private:
    std::uint32_t assoc_;
    Addr mask_;
    std::uint64_t stamp_ = 0;
    std::vector<Line> lines_;
};

int
frameIndex(Frame f)
{
    return f ? int(f.index()) : -1;
}

TEST(CacheArray, MatchesStampLruReference)
{
    // Seeded random operation streams over a small line pool (so
    // sets conflict and resident lines get re-filled), checked step
    // by step against the stamp-LRU reference: same hit frame, same
    // victim, same eviction flags, same per-frame state.
    for (std::uint32_t ways : {1u, 2u, 8u, 16u}) {
        const std::uint32_t sets = ways == 16 ? 2 : 4;
        CacheParams p{std::uint64_t(sets) * ways * kLineBytes, ways, 1};
        CacheArray c(p);
        RefCache ref(p);
        Rng rng(0x5EED0000 + ways);
        const std::uint64_t pool = 3 * std::uint64_t(sets) * ways;
        for (int step = 0; step < 40000; ++step) {
            SCOPED_TRACE(testing::Message()
                         << ways << " ways, step " << step);
            Addr lnum = 0x1000 + rng.below(pool);
            std::uint64_t op = rng.below(100);
            if (op < 40) {
                Frame f = c.lookup(lnum);
                int r = ref.lookup(lnum, true);
                ASSERT_EQ(frameIndex(f), r);
                if (r < 0)
                    continue;
                // Mutate the hit frame's state on both sides.
                RefCache::Line &l = ref.at(r);
                switch (rng.below(5)) {
                  case 0:
                    l.dirty = !l.dirty;
                    c.setDirty(f, l.dirty);
                    break;
                  case 1:
                    l.exclusive = !l.exclusive;
                    c.setExclusive(f, l.exclusive);
                    break;
                  case 2:
                    l.prefetch = l.prefetchHw = false;
                    c.clearPrefetch(f);
                    break;
                  case 3:
                    l.prefetchHw = true;
                    c.setPrefetchHw(f, true);
                    break;
                  default:
                    l.readyAt = 1 + rng.below(1000);
                    c.setReadyAt(f, l.readyAt);
                    break;
                }
            } else if (op < 55) {
                Frame f = c.probe(lnum);
                int r = ref.lookup(lnum, false);
                ASSERT_EQ(frameIndex(f), r);
                if (r < 0)
                    continue;
                const RefCache::Line &l = ref.at(r);
                ASSERT_EQ(c.dirty(f), l.dirty);
                ASSERT_EQ(c.exclusive(f), l.exclusive);
                ASSERT_EQ(c.prefetch(f), l.prefetch);
                ASSERT_EQ(c.prefetchHw(f), l.prefetchHw);
                ASSERT_EQ(c.readyAt(f), l.readyAt);
            } else if (op < 90) {
                // Fill without looking up first, as the miss path
                // does: a resident line gets a second frame.
                bool pf = rng.chance(0.3);
                Eviction ev, rev;
                Frame f = c.fill(lnum, pf, ev);
                int r = ref.fill(lnum, pf, rev);
                ASSERT_EQ(frameIndex(f), r);
                ASSERT_EQ(ev.valid, rev.valid);
                ASSERT_EQ(ev.lineNum, rev.lineNum);
                ASSERT_EQ(ev.dirty, rev.dirty);
                ASSERT_EQ(ev.prefetch, rev.prefetch);
                ASSERT_EQ(ev.prefetchHw, rev.prefetchHw);
                ASSERT_EQ(c.prefetch(f), pf);
                ASSERT_EQ(c.readyAt(f), 0u);
            } else if (op < 99) {
                ASSERT_EQ(c.invalidate(lnum), ref.invalidate(lnum));
            } else {
                c.flushAll();
                ref.flushAll();
            }
            ASSERT_EQ(c.validLines(), ref.validLines());
        }
    }
}

TEST(CacheArray, ResidentRefillInstallsSecondFrame)
{
    CacheArray c(tinyCache(4 * 64, 4, 1)); // 1 set, 4 ways.
    Eviction ev;
    Frame first = c.fill(3, false, ev);
    Frame second = c.fill(3, false, ev);
    EXPECT_FALSE(ev.valid);
    EXPECT_NE(first.index(), second.index());
    EXPECT_EQ(c.validLines(), 2u);
    // Lookup and invalidate act on the lowest way holding the line.
    EXPECT_EQ(c.lookup(3).index(), first.index());
    EXPECT_TRUE(c.invalidate(3));
    EXPECT_EQ(c.probe(3).index(), second.index());
}

TEST(CacheArray, RejectsMoreThanSixteenWays)
{
    EXPECT_DEATH(CacheArray(tinyCache(32 * 64, 32, 1)),
                 "associativity");
}

TEST(Noc, IdleLatency)
{
    NocParams p;
    Noc noc(p);
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 7), 7u);   // across the top row.
    EXPECT_EQ(noc.hops(0, 63), 14u); // opposite corner.
    EXPECT_EQ(noc.idleLatency(0, 63), 42u);
}

TEST(Noc, TraverseAddsHops)
{
    NocParams p;
    Noc noc(p);
    Cycle t = noc.traverse(0, 9, 100); // 1 east + 1 south = 2 hops.
    EXPECT_EQ(t, 100u + 2 * p.cyclesPerHop);
    EXPECT_EQ(noc.messages(), 1u);
    EXPECT_EQ(noc.totalHops(), 2u);
}

TEST(Noc, ContentionDelays)
{
    NocParams p;
    Noc noc(p);
    // The link meters one flit per cycle per window; saturating a
    // window pushes later messages into the next one.
    Cycle t1 = noc.traverse(0, 1, 0);
    EXPECT_EQ(t1, Cycle(p.cyclesPerHop));
    Cycle worst = t1;
    for (int i = 0; i < 200; ++i)
        worst = std::max(worst, noc.traverse(0, 1, 0));
    EXPECT_GT(worst, t1);
    EXPECT_GT(noc.contentionCycles(), 0u);
}

TEST(Dram, LatencyAndBandwidth)
{
    DramParams p;
    p.channels = 1;
    Dram dram(p);
    Cycle t1 = dram.access(0, 0);
    EXPECT_GE(t1, Cycle(p.accessLatency));
    // Saturate the single channel: the per-window capacity fills and
    // later transfers slide into later windows.
    Cycle worst = t1;
    for (int i = 1; i < 128; ++i)
        worst = std::max(worst, dram.access(Addr(i), 0));
    EXPECT_GT(worst, t1);
    EXPECT_GT(dram.queueCycles(), 0u);
}

TEST(Dram, MoreChannelsLessQueueing)
{
    DramParams one;
    one.channels = 1;
    DramParams many;
    many.channels = 12;
    Dram d1(one), d12(many);
    Cycle worst1 = 0, worst12 = 0;
    for (int i = 0; i < 512; ++i) {
        worst1 = std::max(worst1, d1.access(Addr(i), 0));
        worst12 = std::max(worst12, d12.access(Addr(i), 0));
    }
    EXPECT_GT(worst1, worst12);
}

MachineConfig
tinyMachine(std::uint32_t cores = 4)
{
    MachineConfig m = scaledMachine();
    m.numCores = cores;
    m.validate();
    return m;
}

TEST(MemorySystem, ColdMissThenHits)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess req;
    req.addr = 0x10000;
    req.core = 1;
    req.when = 0;

    AccessResult r1 = ms.access(req);
    EXPECT_EQ(r1.level, HitLevel::Mem);
    EXPECT_TRUE(ms.inL1(1, req.addr));
    EXPECT_TRUE(ms.inL2(1, req.addr));
    EXPECT_TRUE(ms.inL3(req.addr));

    req.when = r1.done;
    AccessResult r2 = ms.access(req);
    EXPECT_EQ(r2.level, HitLevel::L1);
    EXPECT_EQ(r2.done, r1.done + cfg.l1d.latency);
}

TEST(MemorySystem, SecondCoreHitsL3)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess req;
    req.addr = 0x40000;
    req.core = 0;
    AccessResult r1 = ms.access(req);
    req.core = 2;
    req.when = r1.done;
    AccessResult r2 = ms.access(req);
    EXPECT_EQ(r2.level, HitLevel::L3);
    EXPECT_LT(r2.done - r1.done, r1.done); // far cheaper than DRAM.
}

TEST(MemorySystem, WriteInvalidatesSharers)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    Addr addr = 0x80000;

    MemAccess load;
    load.addr = addr;
    load.core = 0;
    ms.access(load);
    load.core = 1;
    ms.access(load);
    EXPECT_TRUE(ms.inL2(0, addr));
    EXPECT_TRUE(ms.inL2(1, addr));

    MemAccess store;
    store.addr = addr;
    store.type = AccessType::Store;
    store.core = 2;
    ms.access(store);
    EXPECT_FALSE(ms.inL2(0, addr));
    EXPECT_FALSE(ms.inL2(1, addr));
    EXPECT_TRUE(ms.inL2(2, addr));
    EXPECT_EQ(ms.stats(2).invalidationsSent, 2u);
}

TEST(MemorySystem, StoreThenRemoteReadSeesIntervention)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    Addr addr = 0x90000;

    MemAccess store;
    store.addr = addr;
    store.type = AccessType::Store;
    store.core = 3;
    ms.access(store);

    MemAccess load;
    load.addr = addr;
    load.core = 0;
    AccessResult r = ms.access(load);
    EXPECT_EQ(r.level, HitLevel::L3);
    EXPECT_EQ(ms.stats(3).writebacks, 1u);
    // Both now share the line; core 3's copy is no longer exclusive,
    // so another store by 3 must upgrade (invalidating core 0).
    ms.access(store);
    EXPECT_FALSE(ms.inL2(0, addr));
}

TEST(MemorySystem, AtomicCostsMoreThanLoad)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess a;
    a.addr = 0xA0000;
    a.core = 0;
    AccessResult warm = ms.access(a); // warm the line.
    a.when = warm.done;
    AccessResult asLoad = ms.access(a);
    MemAccess rmw = a;
    rmw.addr = 0xB0000;
    ms.access(rmw); // warm.
    rmw.type = AccessType::Atomic;
    rmw.when = warm.done;
    AccessResult asAtomic = ms.access(rmw);
    EXPECT_GT(asAtomic.done - rmw.when, asLoad.done - a.when);
}

TEST(MemorySystem, PrefetchFillMarksLineAndCreditFlows)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    int creditsBack = 0;
    bool lastUsed = false;
    ms.setCreditHook([&](CoreId, bool used) {
        ++creditsBack;
        lastUsed = used;
    });

    MemAccess pf;
    pf.addr = 0xC0000;
    pf.core = 0;
    pf.engine = true;
    pf.prefetch = true;
    AccessResult r = ms.access(pf);
    EXPECT_TRUE(r.prefetchFilled);
    EXPECT_TRUE(ms.inL2(0, pf.addr));
    EXPECT_FALSE(ms.inL1(0, pf.addr));
    EXPECT_EQ(creditsBack, 0);

    // Demand access consumes the prefetch: credit returns as "used".
    MemAccess demand;
    demand.addr = pf.addr;
    demand.core = 0;
    demand.when = r.done;
    AccessResult d = ms.access(demand);
    EXPECT_EQ(d.level, HitLevel::L2);
    EXPECT_TRUE(d.hitPrefetched);
    EXPECT_EQ(creditsBack, 1);
    EXPECT_TRUE(lastUsed);
    EXPECT_EQ(ms.stats(0).prefetchUsed, 1u);
}

TEST(MemorySystem, LatePrefetchDelaysDemandHit)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess pf;
    pf.addr = 0xD0000;
    pf.core = 0;
    pf.engine = true;
    pf.prefetch = true;
    AccessResult r = ms.access(pf); // in flight until r.done.

    MemAccess demand;
    demand.addr = pf.addr;
    demand.core = 0;
    demand.when = 1; // long before the fill lands.
    AccessResult d = ms.access(demand);
    EXPECT_EQ(d.level, HitLevel::L2);
    EXPECT_GE(d.done, r.done);
    EXPECT_EQ(ms.stats(0).prefetchUsedLate, 1u);
}

TEST(MemorySystem, UnusedPrefetchEvictionReturnsCredit)
{
    MachineConfig cfg = tinyMachine();
    // Shrink L2 to one set x assoc lines so eviction is easy.
    cfg.l2.sizeBytes = 8 * kLineBytes;
    cfg.l2.assoc = 8;
    cfg.l1d.sizeBytes = 8 * kLineBytes;
    cfg.l1d.assoc = 8;
    MemorySystem ms(cfg);
    int unusedBack = 0;
    ms.setCreditHook([&](CoreId, bool used) {
        if (!used)
            ++unusedBack;
    });

    MemAccess pf;
    pf.core = 0;
    pf.engine = true;
    pf.prefetch = true;
    pf.addr = 0x100000;
    ms.access(pf);

    // Flood the (single-set) L2 with demand lines to evict it.
    MemAccess demand;
    demand.core = 0;
    for (int i = 1; i <= 8; ++i) {
        demand.addr = 0x100000 + Addr(i) * kLineBytes;
        ms.access(demand);
    }
    EXPECT_EQ(unusedBack, 1);
    EXPECT_EQ(ms.stats(0).prefetchEvictedUnused, 1u);
}

TEST(MemorySystem, DemandMissCountsOnlyDemand)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess pf;
    pf.core = 0;
    pf.engine = true;
    pf.prefetch = true;
    pf.addr = 0x200000;
    ms.access(pf);
    EXPECT_EQ(ms.stats(0).l2DemandMisses, 0u);
    MemAccess demand;
    demand.core = 0;
    demand.addr = 0x300000;
    ms.access(demand);
    EXPECT_EQ(ms.stats(0).l2DemandMisses, 1u);
}

TEST(MemorySystem, FlushDropsEverything)
{
    MachineConfig cfg = tinyMachine();
    MemorySystem ms(cfg);
    MemAccess a;
    a.core = 0;
    a.addr = 0x400000;
    ms.access(a);
    EXPECT_TRUE(ms.inL2(0, a.addr));
    ms.flushAll();
    EXPECT_FALSE(ms.inL1(0, a.addr));
    EXPECT_FALSE(ms.inL2(0, a.addr));
    EXPECT_FALSE(ms.inL3(a.addr));
}

TEST(MemorySystem, SharedWriteLeavesStaleDuplicateFrame)
{
    // Pins a known model bug (ROADMAP): a store to a resident L2
    // line that is not exclusive takes the miss path, and the fill
    // there installs a second frame for the line. Evicting one copy
    // clears the core's directory sharer bit while the other copy
    // stays resident, so a later remote write never invalidates it.
    // Fixing this changes every figure; until then this test
    // documents today's behaviour.
    MachineConfig cfg = tinyMachine();
    cfg.l2.sizeBytes = 8 * kLineBytes; // one set, 8 ways.
    cfg.l2.assoc = 8;
    cfg.l1d.sizeBytes = 8 * kLineBytes;
    cfg.l1d.assoc = 8;
    MemorySystem ms(cfg);
    const Addr a = 0x100000;

    MemAccess req;
    req.addr = a;
    req.core = 0;
    ms.access(req);
    req.core = 1;
    ms.access(req); // core 1 now holds a shared, non-exclusive copy.

    MemAccess store = req;
    store.type = AccessType::Store;
    ms.access(store); // miss path: core 1's L2 gets a second frame.
    EXPECT_EQ(ms.stats(1).l2DemandMisses, 2u);
    EXPECT_EQ(ms.stats(1).invalidationsSent, 1u);

    // Six more lines fill the set; the seventh evicts the older,
    // least recently used copy of `a`.
    for (int i = 1; i <= 7; ++i) {
        req.addr = a + Addr(i) * kLineBytes;
        ms.access(req);
    }
    EXPECT_TRUE(ms.inL2(1, a)); // the other copy is still resident...

    store.core = 2;
    ms.access(store);
    // ...and survives a remote write: the directory no longer lists
    // core 1, so no invalidation is sent.
    EXPECT_EQ(ms.stats(2).invalidationsSent, 0u);
    EXPECT_TRUE(ms.inL2(1, a));
    EXPECT_TRUE(ms.inL2(2, a));
}

TEST(StridePf, DetectsStreamAfterTraining)
{
    StridePrefetcher pf(4, 1);
    std::vector<Addr> out;
    LoadObservation obs;
    obs.site = 3;
    for (int i = 0; i < 3; ++i) {
        obs.addr = 0x1000 + Addr(i) * 64;
        pf.observe(obs, out);
    }
    EXPECT_TRUE(out.empty()); // still training.
    obs.addr = 0x1000 + 3 * 64;
    pf.observe(obs, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], lineAddr(0x1000 + 7 * 64));
}

TEST(StridePf, ZeroStrideDoesNotKillLearnedStream)
{
    // Regression: a repeated address (flag poll between worklist
    // items) used to overwrite the learned stride with 0, silently
    // killing the stream even though its confidence survived.
    StridePrefetcher pf(4, 1);
    std::vector<Addr> out;
    LoadObservation obs;
    obs.site = 3;
    for (int i = 0; i < 4; ++i) {
        obs.addr = 0x1000 + Addr(i) * 64;
        pf.observe(obs, out);
    }
    ASSERT_FALSE(out.empty()); // trained and issuing.
    out.clear();

    // Re-reference the same address twice: stride 0 observations.
    pf.observe(obs, out);
    pf.observe(obs, out);
    out.clear();

    // The next in-stride access must still prefetch.
    obs.addr = 0x1000 + 4 * 64;
    pf.observe(obs, out);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], lineAddr(0x1000 + 8 * 64));
}

TEST(StridePf, IgnoresRandomAccesses)
{
    StridePrefetcher pf(4, 1);
    std::vector<Addr> out;
    LoadObservation obs;
    obs.site = 1;
    Addr addrs[] = {0x100, 0x9000, 0x330, 0x71000, 0x4500};
    for (Addr a : addrs) {
        obs.addr = a;
        pf.observe(obs, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST(ImpPf, LearnsIndirectPattern)
{
    // Functional "memory": B[i] = permutation values; A = node array
    // at base 0x100000 with 32-byte elements (shift 5).
    constexpr Addr kIndexBase = 0x1000;
    constexpr Addr kTargetBase = 0x100000;
    std::vector<std::uint64_t> indexArray = {5, 9, 2, 14, 7, 11, 3, 8,
                                             1, 12, 6, 0, 13, 4, 10, 15};
    auto oracle = [&](Addr a, std::uint64_t &v) {
        if (a >= kIndexBase &&
            a < kIndexBase + indexArray.size() * 8 && (a % 8) == 0) {
            v = indexArray[(a - kIndexBase) / 8];
            return true;
        }
        return false;
    };
    ImpPrefetcher pf(oracle, 4);
    std::vector<Addr> out;

    // Interleaved stream: load B[i] (site 1, with value), then load
    // A[B[i]] (site 2) — the A[B[i]] access pattern of the paper.
    for (std::size_t i = 0; i < indexArray.size(); ++i) {
        LoadObservation idx;
        idx.site = 1;
        idx.addr = kIndexBase + Addr(i) * 8;
        idx.value = indexArray[i];
        idx.hasValue = true;
        pf.observe(idx, out);

        LoadObservation ind;
        ind.site = 2;
        ind.addr = kTargetBase + Addr(indexArray[i] << 5);
        pf.observe(ind, out);
    }
    EXPECT_GE(pf.patternsLearned(), 1u);
    // After training, prefetches must include indirect targets
    // A[B[i+4]] for some future i.
    bool sawIndirect = false;
    for (Addr a : out) {
        if (a >= kTargetBase)
            sawIndirect = true;
    }
    EXPECT_TRUE(sawIndirect);
}

TEST(ImpPf, NoOracleNoIndirect)
{
    ImpPrefetcher pf(nullptr, 4);
    std::vector<Addr> out;
    for (int i = 0; i < 16; ++i) {
        LoadObservation idx;
        idx.site = 1;
        idx.addr = 0x1000 + Addr(i) * 8;
        idx.value = std::uint64_t(i * 3 % 16);
        idx.hasValue = true;
        pf.observe(idx, out);
    }
    for (Addr a : out)
        EXPECT_LT(a, Addr(0x100000)); // stream-aheads only.
}

} // anonymous namespace
} // namespace minnow::mem
