#include "mem/attribution.hh"

#include <algorithm>
#include <cstdio>

namespace minnow::mem
{

Attribution::Attribution(StatsRegistry &reg, timeline::Timeline *tl,
                         std::uint32_t numCores)
    : tl_(tl), numCores_(numCores), cur_(numCores), perCore_(numCores)
{
    registerStats(reg);
}

// ---- sliding windows ----

void
Attribution::Window::insert(const Key &k, Cycle c)
{
    expire(c);
    at.put(k, c);
    fifo.push_back({c, k});
}

void
Attribution::Window::expire(Cycle c)
{
    while (!fifo.empty() && fifo.front().first + kAttributionWindow < c) {
        const Cycle *it = at.find(fifo.front().second);
        // Only retire the map entry if this FIFO slot is its latest
        // insertion; a re-inserted key has a younger slot behind us.
        if (it && *it == fifo.front().first)
            at.erase(fifo.front().second);
        fifo.pop_front();
    }
}

bool
Attribution::Window::take(const Key &k, Cycle c)
{
    expire(c);
    if (!at.find(k))
        return false;
    at.erase(k); // charge at most once per insertion.
    return true;
}

void
Attribution::Window::checkpoint(ckpt::Ckpt &ck) const
{
    at.checkpoint(ck);
    ck.io(std::uint64_t(fifo.size()));
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        const auto &[cyc, key] = fifo.at(i);
        ck.io(cyc);
        ck.io(key.first);
        ck.io(key.second);
    }
}

// ---- prefetch lifecycle ----

void
Attribution::charge(CoreId core,
                    std::uint64_t AttrClassCounts::*field)
{
    total_.*field += 1;
    if (core < perCore_.size())
        perCore_[core].*field += 1;
}

void
Attribution::emitPrefetchFlow(CoreId core, const Tracked &t,
                              Cycle use, bool late)
{
    if (!tl_)
        return;
    timeline::TrackId track = tl_->coreTaskTrack(core);
    if (track == timeline::kNoTrack)
        return;
    std::uint64_t id = ++nextId_;
    tl_->flowStart(track, timeline::Name::PrefetchFlow, t.issue, id);
    // A late use happens before the fill lands; skip the fill leg so
    // the arrow's timestamps stay monotonic.
    if (!late)
        tl_->flowStep(track, timeline::Name::PrefetchFlow, t.fill,
                      id);
    tl_->flowEnd(track, timeline::Name::PrefetchFlow,
                 std::max(use, t.issue), id);
}

void
Attribution::prefetchFilled(CoreId core, Addr lnum, Cycle issue,
                            Cycle fill, std::uint64_t lineage,
                            bool hw)
{
    fills_ += 1;
    // A refill of a still-tracked key (evicted + re-prefetched with
    // the eviction hook missed) cannot happen — every removal path
    // (use/evict/invalidate) erases the entry — but put() overwrites
    // and keeps this self-healing anyway.
    tracked_.put(Key{core, lnum},
                 Tracked{issue, fill, lineage, std::uint8_t(hw)});
}

void
Attribution::fillVictim(CoreId core, Addr victim, Cycle at)
{
    victims_.insert(Key{core, victim}, at);
}

void
Attribution::prefetchRedundant(CoreId core)
{
    charge(core, &AttrClassCounts::redundant);
}

void
Attribution::prefetchEvicted(CoreId core, Addr lnum)
{
    Key k{core, lnum};
    if (!tracked_.find(k))
        return;
    tracked_.erase(k);
    charge(core, &AttrClassCounts::earlyEvicted);
    evicted_.insert(k, now());
}

void
Attribution::prefetchDemandUse(CoreId core, Addr lnum, Cycle demand,
                               bool late)
{
    Key k{core, lnum};
    const Tracked *it = tracked_.find(k);
    if (!it)
        return;
    Tracked t = *it;
    tracked_.erase(k);
    if (late) {
        charge(core, &AttrClassCounts::late);
        // The prefetch's head start is exactly the stall the demand
        // access did not pay.
        if (demand > t.issue)
            stallCovered_ += demand - t.issue;
        if (issueToUse_ && demand >= t.issue)
            issueToUse_->sample(demand - t.issue);
    } else {
        charge(core, &AttrClassCounts::timely);
        if (fillToUse_ && demand >= t.fill)
            fillToUse_->sample(demand - t.fill);
        if (issueToUse_ && demand >= t.issue)
            issueToUse_->sample(demand - t.issue);
    }
    if (issueToFill_ && t.fill >= t.issue)
        issueToFill_->sample(t.fill - t.issue);
    emitPrefetchFlow(core, t, demand, late);
}

void
Attribution::demandMiss(CoreId core, Addr lnum, Cycle at)
{
    demandMisses_ += 1;
    Key k{core, lnum};
    if (victims_.take(k, at)) {
        // The line a prefetch displaced is wanted again: that
        // prefetch polluted the cache.
        charge(core, &AttrClassCounts::polluting);
    }
    if (evicted_.take(k, at))
        missAfterEvict_ += 1;

    CurTask &c = cur_[core];
    if (c.active) {
        c.active = 0; // first miss only.
        if (dequeueToFirstMiss_ && at >= c.dequeueCycle)
            dequeueToFirstMiss_->sample(at - c.dequeueCycle);
    }
}

// ---- task lineage ----

std::uint64_t
Attribution::pushTask(CoreId core, Cycle at)
{
    std::uint64_t id = ++nextId_;
    lineageAssigned_ += 1;
    lineage_.put(id, LineageEntry{at, 0, core});
    return id;
}

void
Attribution::taskEnqueued(std::uint64_t lineage, Cycle at)
{
    if (!lineage)
        return;
    LineageEntry *e = lineage_.find(lineage);
    if (e && e->enqueueCycle == 0)
        e->enqueueCycle = at;
}

void
Attribution::taskDequeued(CoreId core, std::uint64_t lineage,
                          Cycle at)
{
    if (core < cur_.size()) {
        cur_[core].dequeueCycle = at;
        cur_[core].active = 1;
    }
    if (!lineage)
        return;
    const LineageEntry *it = lineage_.find(lineage);
    if (!it)
        return;
    LineageEntry e = *it;
    lineage_.erase(lineage);
    lineageDequeued_ += 1;
    if (pushToEnqueue_ && e.enqueueCycle >= e.pushCycle &&
        e.enqueueCycle != 0) {
        pushToEnqueue_->sample(e.enqueueCycle - e.pushCycle);
    }
    Cycle from = e.enqueueCycle ? e.enqueueCycle : e.pushCycle;
    if (enqueueToDequeue_ && at >= from)
        enqueueToDequeue_->sample(at - from);
    if (tl_ && at >= e.pushCycle) {
        timeline::TrackId src = tl_->coreTaskTrack(e.pushCore);
        timeline::TrackId dst = tl_->coreTaskTrack(core);
        if (src != timeline::kNoTrack &&
            dst != timeline::kNoTrack) {
            tl_->flowStart(src, timeline::Name::LineageFlow,
                           e.pushCycle, lineage);
            tl_->flowEnd(dst, timeline::Name::LineageFlow, at,
                         lineage);
        }
    }
}

// ---- stats ----

void
Attribution::registerStats(StatsRegistry &reg)
{
    statsClaim_ = StatsClaim(reg, "attribution");
    StatsGroup &g = reg.freshGroup("attribution");

    g.formula("timely", "prefetches consumed after the fill landed",
              [this] { return double(total_.timely); });
    g.formula("late", "prefetches consumed while still in flight",
              [this] { return double(total_.late); });
    g.formula("earlyEvicted",
              "prefetched lines evicted/invalidated before use",
              [this] { return double(total_.earlyEvicted); });
    g.formula("redundant",
              "prefetches to lines already present or in flight",
              [this] { return double(total_.redundant); });
    g.formula("polluting",
              "prefetch fills whose victim re-missed in the window",
              [this] { return double(total_.polluting); });
    g.formula("fills", "prefetch fills tracked",
              [this] { return double(fills_); });
    g.formula("stallCyclesCovered",
              "demand stall cycles absorbed by late prefetch "
              "head starts",
              [this] { return double(stallCovered_); });
    g.formula("missAfterEvict",
              "demand misses on early-evicted lines in the window",
              [this] { return double(missAfterEvict_); });
    g.formula("demandMisses", "demand misses observed past the L2",
              [this] { return double(demandMisses_); });
    g.formula("trackedLines",
              "prefetched lines currently tracked",
              [this] { return double(tracked_.size()); });
    g.formula("coveredPct",
              "covered demand uses of prefetched lines, percent: "
              "100*(timely+late)/(timely+late+missAfterEvict)",
              [this] {
                  double cov = double(total_.timely + total_.late);
                  double denom = cov + double(missAfterEvict_);
                  return denom > 0 ? 100.0 * cov / denom : 0.0;
              });
    g.formula("pollutionPct",
              "polluting fills over all tracked fills, percent",
              [this] {
                  return fills_ ? 100.0 * double(total_.polluting) /
                                      double(fills_)
                                : 0.0;
              });
    g.formula("lineageAssigned", "lineage ids assigned at push",
              [this] { return double(lineageAssigned_); });
    g.formula("lineageDequeued",
              "lineage-tagged tasks delivered to workers",
              [this] { return double(lineageDequeued_); });
    g.formula("lineageLive", "lineage ids pushed but not yet popped",
              [this] { return double(lineage_.size()); });
    g.formula("lineageFanout",
              "average pushes per delivered task",
              [this] {
                  return lineageDequeued_
                             ? double(lineageAssigned_) /
                                   double(lineageDequeued_)
                             : 0.0;
              });

    struct HistDef
    {
        HistogramStat **slot;
        const char *name;
        const char *desc;
        Cycle width;
        std::uint32_t buckets;
    } defs[] = {
        {&issueToFill_, "issueToFill",
         "prefetch issue to fill arrival, cycles", 16, 128},
        {&fillToUse_, "fillToUse",
         "fill arrival to first demand use (timely), cycles", 16,
         128},
        {&issueToUse_, "issueToUse",
         "prefetch issue to first demand use, cycles", 16, 128},
        {&pushToEnqueue_, "pushToEnqueue",
         "parent push to queue arrival, cycles", 64, 256},
        {&enqueueToDequeue_, "enqueueToDequeue",
         "queue arrival to worker dequeue, cycles", 64, 256},
        {&dequeueToFirstMiss_, "dequeueToFirstMiss",
         "dequeue to the task's first demand miss, cycles", 64, 256},
    };
    for (const HistDef &d : defs) {
        HistogramStat &h =
            g.histogram(d.name, d.desc, d.width, d.buckets);
        *d.slot = &h;
        for (double frac : {0.50, 0.95, 0.99}) {
            char name[48];
            std::snprintf(name, sizeof(name), "%sP%.0f", d.name,
                          frac * 100);
            g.formula(name, "delta percentile (cycles)", [&h, frac] {
                return double(h.percentile(frac));
            });
        }
    }

    for (std::uint32_t c = 0; c < numCores_; ++c) {
        struct ClassDef
        {
            const char *name;
            std::uint64_t AttrClassCounts::*field;
        } classes[] = {
            {"timely", &AttrClassCounts::timely},
            {"late", &AttrClassCounts::late},
            {"earlyEvicted", &AttrClassCounts::earlyEvicted},
            {"redundant", &AttrClassCounts::redundant},
            {"polluting", &AttrClassCounts::polluting},
        };
        for (const ClassDef &cd : classes) {
            char name[48];
            std::snprintf(name, sizeof(name), "core%u.%s", c,
                          cd.name);
            const AttrClassCounts *pc = &perCore_[c];
            std::uint64_t AttrClassCounts::*field = cd.field;
            g.formula(name, "per-core prefetch class count",
                      [pc, field] { return double(pc->*field); });
        }
    }
}

void
Attribution::checkpoint(ckpt::Ckpt &ck) const
{
    tracked_.checkpoint(ck);
    victims_.checkpoint(ck);
    evicted_.checkpoint(ck);
    lineage_.checkpoint(ck);
    ck.io(cur_);
    ck.io(nextId_);
    total_.checkpoint(ck);
    ck.io(perCore_);
    ck.io(fills_);
    ck.io(stallCovered_);
    ck.io(missAfterEvict_);
    ck.io(demandMisses_);
    ck.io(lineageAssigned_);
    ck.io(lineageDequeued_);
    ck.transient("now_ tl_ numCores_ issueToFill_ fillToUse_"
                 " issueToUse_ pushToEnqueue_ enqueueToDequeue_"
                 " dequeueToFirstMiss_ statsClaim_");
}

} // namespace minnow::mem
