#include "mem/memory_system.hh"

#include <algorithm>

#include "base/bits.hh"
#include "base/logging.hh"
#include "base/trace.hh"
#include "mem/attribution.hh"
#include "sim/fault.hh"
#include "sim/hostprof.hh"

namespace minnow::mem
{

namespace
{

/** Extra latency of a locked RMW beyond the plain store path. */
constexpr Cycle kAtomicOpLatency = 15;

} // anonymous namespace

MemorySystem::MemorySystem(const MachineConfig &cfg)
    : cfg_(cfg),
      bankMod_(cfg.numCores),
      noc_(cfg.noc),
      dram_(cfg.dram),
      stats_(cfg.numCores)
{
    fatal_if(cfg.numCores > 64,
             "directory sharer mask limits the model to 64 cores");
    l1_.reserve(cfg.numCores);
    l2_.reserve(cfg.numCores);
    l3_.reserve(cfg.numCores);
    for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
        l1_.emplace_back(cfg.l1d);
        l2_.emplace_back(cfg.l2);
        l3_.emplace_back(cfg.l3Bank);
    }
    if (cfg.prefetcher != PrefetcherKind::None) {
        hwPrefetchers_.resize(cfg.numCores);
        for (std::uint32_t i = 0; i < cfg.numCores; ++i) {
            if (cfg.prefetcher == PrefetcherKind::Stride) {
                hwPrefetchers_[i] =
                    std::make_unique<StridePrefetcher>();
            } else {
                hwPrefetchers_[i] = std::make_unique<ImpPrefetcher>(
                    [this](Addr a, std::uint64_t &v) {
                        return oracle_ ? oracle_(a, v) : false;
                    });
            }
        }
    }
}

void
MemorySystem::setValueOracle(ValueOracle oracle)
{
    oracle_ = std::move(oracle);
}

std::uint32_t
MemorySystem::bankOf(Addr lnum) const
{
    return std::uint32_t(bankMod_.mod(hashMix(lnum)));
}

void
MemorySystem::invalidatePrivate(CoreId core, Addr lnum)
{
    CacheArray &l2 = l2_[core];
    if (Frame line = l2.lookup(lnum)) {
        if (l2.prefetch(line)) {
            stats_[core].prefetchInvalidated += 1;
            if (attr_)
                attr_->prefetchEvicted(core, lnum);
            if (!l2.prefetchHw(line)) {
                if (pfLinesTracked_)
                    --pfLinesTracked_;
                if (creditHook_)
                    creditHook_(core, false);
            }
        }
        if (l2.dirty(line))
            stats_[core].writebacks += 1;
        // The lookup above already found the frame; invalidate in
        // place instead of paying a second set walk.
        l2.invalidate(line);
    }
    l1_[core].invalidate(lnum);
    stats_[core].invalidationsTaken += 1;
}

void
MemorySystem::handleL2Eviction(CoreId core, const Eviction &ev)
{
    if (!ev.valid)
        return;
    // L2 is inclusive of L1: the L1 copy must go too.
    l1_[core].invalidate(ev.lineNum);
    if (ev.prefetch) {
        stats_[core].prefetchEvictedUnused += 1;
        if (attr_)
            attr_->prefetchEvicted(core, ev.lineNum);
        if (!ev.prefetchHw) {
            if (pfLinesTracked_)
                --pfLinesTracked_;
            if (creditHook_)
                creditHook_(core, false);
        }
    }
    if (DirEntry *dir = directory_.find(ev.lineNum)) {
        dir->sharers &= ~(std::uint64_t(1) << core);
        if (dir->owner == std::int32_t(core))
            dir->owner = -1;
        if (dir->sharers == 0 && dir->owner < 0)
            directory_.erase(ev.lineNum); // snoop filter entry retires.
    }
    if (ev.dirty) {
        stats_[core].writebacks += 1;
        // Victim-fill the (non-inclusive) L3 with the dirty line.
        CacheArray &l3 = l3_[bankOf(ev.lineNum)];
        Frame l3line = l3.lookup(ev.lineNum);
        if (!l3line) {
            Eviction l3ev;
            l3line = l3.fill(ev.lineNum, false, l3ev);
            if (l3ev.valid && l3ev.dirty)
                dram_.access(l3ev.lineNum, 0); // writeback traffic.
        }
        l3.setDirty(l3line, true);
    }
}

Frame
MemorySystem::fillL3(std::uint32_t bank, Addr lnum)
{
    // Non-inclusive (Skylake-like) L3: victims do not back-
    // invalidate private copies; the directory is a standalone
    // snoop filter.
    Eviction ev;
    Frame line = l3_[bank].fill(lnum, false, ev);
    if (ev.valid && ev.dirty)
        dram_.access(ev.lineNum, 0); // book writeback bandwidth.
    return line;
}

AccessResult
MemorySystem::access(const MemAccess &req)
{
    HostProfScope hp(HostClass::Memory);
    panic_if(req.core >= cfg_.numCores, "access from bogus core %u",
             req.core);
    MemStats &st = stats_[req.core];
    const bool isWrite = req.type != AccessType::Load;
    const Addr lnum = lineNum(req.addr);
    Cycle t = req.when;
    AccessResult res;

    if (req.engine) {
        st.engineAccesses += 1;
    } else {
        switch (req.type) {
          case AccessType::Load: st.loads += 1; break;
          case AccessType::Store: st.stores += 1; break;
          case AccessType::Atomic: st.atomics += 1; break;
        }
    }

    const Cycle extra =
        req.type == AccessType::Atomic ? kAtomicOpLatency : 0;
    // Serialize same-line RMWs: the earliest this atomic may begin
    // its locked phase is when the previous one on the line ends.
    auto serializeAtomic = [&](Cycle done) {
        if (req.type != AccessType::Atomic)
            return done;
        Cycle &busy = atomicBusy_.findOrInsert(lnum);
        Cycle start = std::max(done - extra, busy);
        done = start + extra;
        busy = done;
        return done;
    };

    CacheArray &l1 = l1_[req.core];
    CacheArray &l2 = l2_[req.core];

    // ---- L1 (cores only; engines attach at L2) ----
    if (!req.engine) {
        Frame line = l1.lookup(lnum);
        if (line && (!isWrite || l1.exclusive(line))) {
            if (isWrite) {
                l1.setDirty(line, true);
                if (Frame l2line = l2.lookup(lnum))
                    l2.setDirty(l2line, true);
            }
            st.l1Hits += 1;
            res.done = serializeAtomic(t + cfg_.l1d.latency + extra);
            res.level = HitLevel::L1;
            if (!isWrite)
                runHwPrefetcher(req, t);
            return res;
        }
        t += cfg_.l1d.latency;
    }

    // ---- L2 ----
    Frame l2line = l2.lookup(lnum);
    if (l2line && (!isWrite || l2.exclusive(l2line))) {
        Cycle done = t + cfg_.l2.latency;
        const Cycle demandAt = done;
        const Cycle readyAt = l2.readyAt(l2line);
        const bool underFill = readyAt > done;
        const bool wasPrefetch = l2.prefetch(l2line);
        if (underFill) {
            // Fill still in flight (late prefetch): wait for it.
            done = readyAt;
            st.l2HitsUnderFill += 1;
            if (wasPrefetch && !req.prefetch)
                st.prefetchUsedLate += 1;
        }
        if (wasPrefetch && !req.prefetch) {
            bool hw = l2.prefetchHw(l2line);
            l2.clearPrefetch(l2line);
            st.prefetchUsed += 1;
            res.hitPrefetched = true;
            if (attr_) {
                attr_->prefetchDemandUse(req.core, lnum, demandAt,
                                         underFill);
            }
            if (!hw) {
                if (pfLinesTracked_)
                    --pfLinesTracked_;
                if (creditHook_)
                    creditHook_(req.core, true);
            }
        } else if (req.prefetch) {
            if (wasPrefetch)
                st.prefetchRedundant += 1;
            if (attr_)
                attr_->prefetchRedundant(req.core);
        }
        if (isWrite)
            l2.setDirty(l2line, true);
        if (!req.engine && !req.prefetch) {
            // Refill L1 under inclusion. A single walk serves both
            // the refill check and the write-dirty update (hoisted
            // from a probe + a second lookup): nothing between the
            // two steps can displace the line.
            Frame f = l1.lookup(lnum);
            if (!f) {
                Eviction ev;
                f = l1.fill(lnum, false, ev);
                l1.setExclusive(f, l2.exclusive(l2line));
                // L1 victims stay in L2 (dirty already propagated).
            }
            if (isWrite)
                l1.setDirty(f, true);
        }
        st.l2Hits += 1;
        res.done = serializeAtomic(done + extra);
        res.level = HitLevel::L2;
        if (!isWrite && !req.engine)
            runHwPrefetcher(req, t);
        return res;
    }

    // ---- Miss in the private hierarchy: consult the directory ----
    DPRINTF(Cache, "cache", "[%u] L2 miss %s addr=%#llx%s%s",
            req.core, isWrite ? "store" : "load",
            (unsigned long long)req.addr,
            req.engine ? " (engine)" : "",
            req.prefetch ? " (prefetch)" : "");
    if (!req.engine && !req.prefetch) {
        st.l2DemandMisses += 1;
        if (attr_)
            attr_->demandMiss(req.core, lnum, req.when);
    }
    t += cfg_.l2.latency;

    const std::uint32_t bank = bankOf(lnum);
    t = noc_.traverse(tileOf(req.core), tileOf(bank), t);
    if (faults_)
        t += faults_->nocExtraDelay();

    // Directory (snoop filter) and L3 are consulted together; a
    // dirty remote copy is forwarded cache-to-cache even when the
    // non-inclusive L3 no longer holds the line.
    CacheArray &l3 = l3_[bank];
    Frame l3line = l3.lookup(lnum);
    // Stable until handleL2Eviction() below may erase an entry.
    DirEntry *dir = &directory_.findOrInsert(lnum);
    bool remoteDirty = dir->owner >= 0 &&
                       dir->owner != std::int32_t(req.core);
    if (l3line || remoteDirty) {
        t += cfg_.l3Bank.latency;
        st.l3Hits += 1;
        res.level = HitLevel::L3;
    } else {
        t += cfg_.l3Bank.latency; // tag + filter miss detection.
        t = dram_.access(lnum, t);
        if (faults_)
            t += faults_->dramExtraDelay();
        st.memAccesses += 1;
        // l3line must be re-established after dram_.access(): the
        // frame only exists once fillL3() installs it, and the fill
        // may displace a dirty victim whose writeback has to be
        // booked against DRAM after the demand access above. The
        // pre-directory lookup result (a miss) cannot be hoisted
        // over that; fillL3 hands back the new frame so no second
        // set walk is paid.
        l3line = fillL3(bank, lnum);
        res.level = HitLevel::Mem;
    }

    // Coherence actions against other private copies.
    const std::uint64_t self = std::uint64_t(1) << req.core;
    if (isWrite) {
        std::uint64_t others = dir->sharers & ~self;
        if (others) {
            Cycle worst = 0;
            std::uint64_t scan = others;
            while (scan) {
                CoreId c = CoreId(std::countr_zero(scan));
                scan &= scan - 1;
                invalidatePrivate(c, lnum);
                worst = std::max(worst,
                                 noc_.idleLatency(tileOf(bank),
                                                  tileOf(c)));
                st.invalidationsSent += 1;
            }
            t += 2 * worst; // round trip to the furthest sharer.
        }
        if (dir->owner >= 0 && dir->owner != std::int32_t(req.core)
            && l3line) {
            l3.setDirty(l3line, true); // dirty data was pulled back.
        }
        dir->sharers = self;
        dir->owner = std::int32_t(req.core);
    } else {
        if (dir->owner >= 0 && dir->owner != std::int32_t(req.core)) {
            // Dirty intervention: fetch from the owning core.
            CoreId owner = CoreId(dir->owner);
            t += 2 * noc_.idleLatency(tileOf(bank), tileOf(owner));
            for (CacheArray *c : {&l2_[owner], &l1_[owner]}) {
                if (Frame o = c->lookup(lnum)) {
                    c->setDirty(o, false);
                    c->setExclusive(o, false);
                }
            }
            if (l3line) {
                l3.setDirty(l3line, true);
            } else {
                // Fold the forwarded dirty data into the L3.
                Eviction l3ev;
                l3.setDirty(l3.fill(lnum, false, l3ev), true);
                if (l3ev.valid && l3ev.dirty)
                    dram_.access(l3ev.lineNum, 0);
            }
            stats_[owner].writebacks += 1;
            dir->owner = -1;
        }
        dir->sharers |= self;
    }
    const bool sole = dir->sharers == self;

    // ---- Response and private fills ----
    t = noc_.traverse(tileOf(bank), tileOf(req.core), t);
    if (faults_)
        t += faults_->nocExtraDelay();
    Cycle done = t;

    // The line may still be resident here (a write to a shared,
    // non-exclusive copy takes this miss path): fill() then installs
    // a second frame for it. A known model quirk, kept for
    // byte-identical results (ROADMAP).
    Eviction ev;
    Frame fill2 = l2.fill(lnum, req.prefetch, ev);
    handleL2Eviction(req.core, ev);
    const bool exclusive = isWrite || sole;
    l2.setExclusive(fill2, exclusive);
    l2.setDirty(fill2, isWrite);
    if (req.prefetch) {
        l2.setReadyAt(fill2, done);
        l2.setPrefetchHw(fill2, req.hwPrefetch);
        st.prefetchFills += 1;
        res.prefetchFilled = true;
        if (!req.hwPrefetch)
            ++pfLinesTracked_;
        if (attr_) {
            if (ev.valid)
                attr_->fillVictim(req.core, ev.lineNum, done);
            attr_->prefetchFilled(req.core, lnum, req.when, done,
                                  req.lineage, req.hwPrefetch);
        }
    } else if (!req.engine) {
        Eviction ev1;
        Frame fill1 = l1.fill(lnum, false, ev1);
        l1.setExclusive(fill1, exclusive);
        l1.setDirty(fill1, isWrite);
        // L1 victim remains in L2; dirty state was kept in sync.
    }

    res.done = serializeAtomic(done + extra);
    if (!isWrite && !req.engine)
        runHwPrefetcher(req, req.when);
    return res;
}

void
MemorySystem::runHwPrefetcher(const MemAccess &req, Cycle when)
{
    if (hwPrefetchers_.empty() || req.engine || inPrefetchIssue_ ||
        req.type != AccessType::Load || req.prefetch) {
        return;
    }
    pfScratch_.clear();
    LoadObservation obs{req.addr, req.site, req.value, req.hasValue};
    hwPrefetchers_[req.core]->observe(obs, pfScratch_);
    if (pfScratch_.empty())
        return;
    inPrefetchIssue_ = true;
    for (Addr target : pfScratch_) {
        Addr lnum = lineNum(target);
        if (l2_[req.core].probe(lnum)) {
            stats_[req.core].prefetchRedundant += 1;
            if (attr_)
                attr_->prefetchRedundant(req.core);
            continue;
        }
        // Injected fault: the prefetch request is lost in flight.
        if (faults_ && faults_->dropPrefetch(req.core))
            continue;
        MemAccess pf;
        pf.addr = target;
        pf.type = AccessType::Load;
        pf.core = req.core;
        pf.when = when;
        pf.engine = true;
        pf.prefetch = true;
        pf.hwPrefetch = true;
        access(pf);
    }
    inPrefetchIssue_ = false;
}

MemStats
MemorySystem::totals() const
{
    MemStats t;
    for (const auto &s : stats_) {
        t.loads += s.loads;
        t.stores += s.stores;
        t.atomics += s.atomics;
        t.engineAccesses += s.engineAccesses;
        t.l1Hits += s.l1Hits;
        t.l2Hits += s.l2Hits;
        t.l2HitsUnderFill += s.l2HitsUnderFill;
        t.l2DemandMisses += s.l2DemandMisses;
        t.l3Hits += s.l3Hits;
        t.memAccesses += s.memAccesses;
        t.invalidationsSent += s.invalidationsSent;
        t.invalidationsTaken += s.invalidationsTaken;
        t.writebacks += s.writebacks;
        t.prefetchFills += s.prefetchFills;
        t.prefetchUsed += s.prefetchUsed;
        t.prefetchUsedLate += s.prefetchUsedLate;
        t.prefetchEvictedUnused += s.prefetchEvictedUnused;
        t.prefetchInvalidated += s.prefetchInvalidated;
        t.prefetchRedundant += s.prefetchRedundant;
    }
    return t;
}

namespace
{

/**
 * Register every MemStats field of @p s into @p g as dump-time
 * formulas, plus the derived prefetch metrics: accuracy (used fills
 * over all fills) and coverage (demand misses absorbed by prefetched
 * lines over all would-be misses).
 */
void
registerMemStats(StatsGroup &g, const MemStats *s)
{
    auto count = [&](const char *name, const char *desc,
                     const std::uint64_t *field) {
        g.formula(name, desc, [field] { return double(*field); });
    };
    count("loads", "demand loads observed", &s->loads);
    count("stores", "stores observed", &s->stores);
    count("atomics", "atomic RMWs observed", &s->atomics);
    count("engineAccesses", "Minnow engine L2 accesses",
          &s->engineAccesses);
    count("l1Hits", "hits in the private L1D", &s->l1Hits);
    count("l2Hits", "hits in the private L2", &s->l2Hits);
    count("l2HitsUnderFill", "demand hits on in-flight prefetches",
          &s->l2HitsUnderFill);
    count("l2DemandMisses", "core demand misses past the L2",
          &s->l2DemandMisses);
    count("l3Hits", "hits in the shared L3", &s->l3Hits);
    count("memAccesses", "accesses served by DRAM", &s->memAccesses);
    count("invalidationsSent", "invalidations issued by the directory",
          &s->invalidationsSent);
    count("invalidationsTaken", "invalidations absorbed",
          &s->invalidationsTaken);
    count("writebacks", "dirty evictions written back",
          &s->writebacks);
    count("prefetchFills", "prefetch-marked L2 fills",
          &s->prefetchFills);
    count("prefetchUsed", "prefetched lines consumed by demand",
          &s->prefetchUsed);
    count("prefetchUsedLate", "prefetches consumed while in flight",
          &s->prefetchUsedLate);
    count("prefetchEvictedUnused", "prefetched lines evicted unused",
          &s->prefetchEvictedUnused);
    count("prefetchInvalidated", "prefetched lines invalidated",
          &s->prefetchInvalidated);
    count("prefetchRedundant", "prefetches to already-present lines",
          &s->prefetchRedundant);
    g.formula("prefetchAccuracy",
              "fraction of prefetch fills consumed by demand", [s] {
                  return s->prefetchFills
                             ? double(s->prefetchUsed) /
                                   double(s->prefetchFills)
                             : 0.0;
              });
    g.formula("prefetchCoverage",
              "demand misses absorbed by prefetched lines", [s] {
                  std::uint64_t wouldMiss =
                      s->prefetchUsed + s->l2DemandMisses;
                  return wouldMiss ? double(s->prefetchUsed) /
                                         double(wouldMiss)
                                   : 0.0;
              });
}

} // anonymous namespace

void
MemorySystem::registerCoreStats(StatsGroup &g, CoreId i)
{
    registerMemStats(g, &stats_[i]);
}

void
MemorySystem::registerStats(StatsRegistry &reg)
{
    statsClaim_ = StatsClaim(reg, "mem");
    StatsGroup &g = reg.group("mem");
    // Totals are recomputed per formula evaluation; that is O(cores)
    // work paid only at dump/sample time.
    auto total = [&](const char *name, const char *desc,
                     std::uint64_t MemStats::*field) {
        g.formula(name, desc, [this, field] {
            return double(totals().*field);
        });
    };
    total("loads", "demand loads observed", &MemStats::loads);
    total("stores", "stores observed", &MemStats::stores);
    total("atomics", "atomic RMWs observed", &MemStats::atomics);
    total("engineAccesses", "Minnow engine L2 accesses",
          &MemStats::engineAccesses);
    total("l1Hits", "hits in private L1Ds", &MemStats::l1Hits);
    total("l2Hits", "hits in private L2s", &MemStats::l2Hits);
    total("l2DemandMisses", "core demand misses past the L2",
          &MemStats::l2DemandMisses);
    total("l3Hits", "hits in the shared L3", &MemStats::l3Hits);
    total("memAccesses", "accesses served by DRAM",
          &MemStats::memAccesses);
    total("writebacks", "dirty evictions written back",
          &MemStats::writebacks);
    total("invalidationsSent",
          "invalidations issued by the directory",
          &MemStats::invalidationsSent);
    total("prefetchFills", "prefetch-marked L2 fills",
          &MemStats::prefetchFills);
    total("prefetchUsed", "prefetched lines consumed by demand",
          &MemStats::prefetchUsed);
    total("prefetchUsedLate", "prefetches consumed while in flight",
          &MemStats::prefetchUsedLate);
    total("prefetchEvictedUnused",
          "prefetched lines evicted unused",
          &MemStats::prefetchEvictedUnused);
    g.formula("prefetchAccuracy",
              "fraction of prefetch fills consumed by demand",
              [this] {
                  MemStats t = totals();
                  return t.prefetchFills
                             ? double(t.prefetchUsed) /
                                   double(t.prefetchFills)
                             : 0.0;
              });
    g.formula("prefetchCoverage",
              "demand misses absorbed by prefetched lines", [this] {
                  MemStats t = totals();
                  std::uint64_t wouldMiss =
                      t.prefetchUsed + t.l2DemandMisses;
                  return wouldMiss ? double(t.prefetchUsed) /
                                         double(wouldMiss)
                                   : 0.0;
              });
    g.formula("nocMessages", "NoC messages routed",
              [this] { return double(noc_.messages()); });
    g.formula("nocContention", "NoC cycles lost to link contention",
              [this] { return double(noc_.contentionCycles()); });
    g.formula("dramAccesses", "DRAM line transfers",
              [this] { return double(dram_.accesses()); });
    g.formula("dramQueueCycles", "DRAM channel queueing cycles",
              [this] { return double(dram_.queueCycles()); });
}

void
MemorySystem::checkpoint(ckpt::Ckpt &ck) const
{
    ck.io(l1_);
    ck.io(l2_);
    ck.io(l3_);

    directory_.checkpoint(ck);
    atomicBusy_.checkpoint(ck);

    noc_.checkpoint(ck);
    dram_.checkpoint(ck);
    ck.io(stats_);
    ck.io(pfLinesTracked_);
    ck.transient("cfg_ bankMod_ creditHook_ attr_ faults_ hwPrefetchers_"
                 " oracle_ pfScratch_ inPrefetchIssue_ statsClaim_");
}

bool
MemorySystem::inL1(CoreId core, Addr addr) const
{
    return bool(l1_[core].probe(lineNum(addr)));
}

bool
MemorySystem::inL2(CoreId core, Addr addr) const
{
    return bool(l2_[core].probe(lineNum(addr)));
}

bool
MemorySystem::inL3(Addr addr) const
{
    Addr lnum = lineNum(addr);
    return bool(l3_[bankOf(lnum)].probe(lnum));
}

} // namespace minnow::mem
