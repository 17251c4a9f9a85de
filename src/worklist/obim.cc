#include "worklist/obim.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/hostprof.hh"
#include "sim/timeline.hh"

namespace minnow::worklist
{

using runtime::CoTask;
using runtime::PhaseGuard;
using runtime::SimContext;

ObimWorklist::ObimWorklist(runtime::Machine *machine,
                           std::uint32_t lgBucketInterval,
                           std::uint32_t chunkSize,
                           std::uint32_t packages)
    : machine_(machine),
      lg_(lgBucketInterval),
      pool_(&machine->alloc, chunkSize),
      packages_(std::min(packages, machine->cfg.numCores)),
      coresPerPkg_((machine->cfg.numCores + packages_ - 1) /
                   packages_),
      workers_(machine->cfg.numCores)
{
    minLine_ = machine->alloc.alloc("obim.minHint", 64);
    mapLock_ = machine->alloc.alloc("obim.mapLock", 64);
}

std::uint64_t
ObimWorklist::size() const
{
    std::uint64_t n = 0;
    for (const auto &[b, gb] : buckets_) {
        for (const auto &list : gb.perPkg) {
            for (const Chunk *c : list)
                n += c->remaining();
        }
    }
    for (const auto &w : workers_) {
        for (const auto &[b, c] : w.pushChunks)
            n += c->remaining();
        if (w.popChunk)
            n += w.popChunk->remaining();
    }
    return n;
}

void
ObimWorklist::registerTimeline(timeline::Timeline &tl)
{
    // The shared minimum-bucket hint: the line whose ping-pong is
    // OBIM's scaling problem. -1 renders the "no bucket" sentinel.
    tl.addCounterProvider(
        timeline::Cat::Worklist, "worklist.obimMinBucket", this,
        [this] {
            return minHint_ == kNoBucket ? -1.0 : double(minHint_);
        });
}

ObimWorklist::GlobalBucket &
ObimWorklist::ensureBucket(SimContext &ctx, std::int64_t bucket,
                           bool &created)
{
    HostProfScope hp(HostClass::Worklist);
    auto it = buckets_.find(bucket);
    created = it == buckets_.end();
    if (created) {
        GlobalBucket gb;
        gb.perPkg.resize(packages_);
        gb.descBase = machine_->alloc.allocAnon(
            std::uint64_t(packages_) * kLineBytes);
        it = buckets_.emplace(bucket, std::move(gb)).first;
        // Concurrent ordered-map insert: lock + rebalance-ish cost.
        ctx.compute(24);
        ctx.store(mapLock_, 0);
    } else {
        // Map probe cost: a couple of pointer-chase levels.
        ctx.compute(6);
        ctx.cheapLoads(2);
    }
    return it->second;
}

void
ObimWorklist::pushInitial(WorkItem item)
{
    std::int64_t bucket = bucketOf(item);
    auto it = buckets_.find(bucket);
    if (it == buckets_.end()) {
        GlobalBucket gb;
        gb.perPkg.resize(packages_);
        gb.descBase = machine_->alloc.allocAnon(
            std::uint64_t(packages_) * kLineBytes);
        it = buckets_.emplace(bucket, std::move(gb)).first;
    }
    auto &list = it->second.perPkg[seedRotorForInitial_++ % packages_];
    if (list.empty() ||
        list.back()->items.size() >= pool_.chunkSize()) {
        Chunk *c = pool_.acquire();
        c->bucket = bucket;
        list.push_back(c);
    }
    list.back()->items.push_back(item);
    minHint_ = std::min(minHint_, bucket);
    machine_->monitor.addWork(1, true);
}

CoTask<void>
ObimWorklist::raiseMinHint(SimContext &ctx, std::int64_t bucket)
{
    // Shared hint line: read, and CAS down if we hold a lower bucket.
    ctx.load(minLine_, 0, {kSiteWlBucketMap, 0, false, false});
    ctx.compute(2);
    if (bucket < minHint_) {
        co_await ctx.atomicAccess(minLine_);
        if (bucket < minHint_)
            minHint_ = bucket;
    }
}

CoTask<void>
ObimWorklist::publishChunk(SimContext &ctx, std::int64_t bucket,
                           std::uint32_t pkg, Chunk *c)
{
    // NOTE: other workers run during every co_await, and they may
    // erase or create buckets; never hold a GlobalBucket reference
    // across a suspension — re-find by key instead.
    bool created = false;
    Addr head = ensureBucket(ctx, bucket, created).headLine(pkg);
    Cycle locked = co_await ctx.atomicAccess(head);
    ctx.store(c->base, locked);
    bool recreated = false;
    GlobalBucket &gb = ensureBucket(ctx, bucket, recreated);
    gb.perPkg[pkg].push_back(c);
    ctx.monitor().transferWork(c->remaining(), true);
    co_await raiseMinHint(ctx, bucket);
}

CoTask<void>
ObimWorklist::push(SimContext &ctx, WorkItem item)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    std::int64_t bucket = bucketOf(item);
    // Galois OBIM push: TLS + wrapper layers + bucket-map walk.
    ctx.compute(60);
    ctx.cheapLoads(12);
    PerWorker &w = workers_[ctx.id()];

    auto [it, fresh] = w.pushChunks.try_emplace(bucket, nullptr);
    ctx.compute(4);
    if (fresh || !it->second) {
        it->second = pool_.acquire();
        it->second->bucket = bucket;
        ctx.compute(12);
    }
    Chunk *c = it->second;
    ctx.store(c->itemAddr(std::uint32_t(c->items.size())), 0);
    c->items.push_back(item);
    ctx.monitor().addWork(1, false);

    // Publish when full, or eagerly when this is higher priority
    // than what we are processing (so others can see it).
    bool urgent = bucket < w.curBucket;
    if (c->items.size() >= pool_.chunkSize() || urgent) {
        w.pushChunks.erase(bucket);
        co_await publishChunk(ctx, bucket, pkgOf(ctx.id()), c);
    }
    co_await ctx.sync();
}

CoTask<bool>
ObimWorklist::pop(SimContext &ctx, WorkItem &out)
{
    PhaseGuard guard(ctx, cpu::Phase::Worklist);
    ctx.compute(48);
    ctx.cheapLoads(12);
    // LINT-OK(coro-suspend-safety): workers_ is fixed-size after ctor
    PerWorker &w = workers_[ctx.id()];
    const std::uint32_t myPkg = pkgOf(ctx.id());

    // Check the shared hint: did higher-priority work appear?
    ctx.load(minLine_, 0, {kSiteWlBucketMap, 0, false, false});
    ctx.compute(2);
    if (minHint_ < w.curBucket)
        w.curBucket = minHint_;

    for (;;) {
        if (w.popChunk && !w.popChunk->empty() &&
            w.popChunk->bucket <= w.curBucket) {
            Chunk *c = w.popChunk;
            ctx.load(c->itemAddr(c->head), 0,
                     {kSiteWlItem, 0, false, false});
            out = c->items[c->head];
            c->head += 1;
            ctx.monitor().takeWork(1, false);
            if (c->empty()) {
                pool_.release(c);
                w.popChunk = nullptr;
                ctx.compute(4);
            }
            co_await ctx.sync();
            co_return true;
        }
        if (w.popChunk && !w.popChunk->empty()) {
            // Our chunk got outprioritized: hand it back to its
            // bucket so it is processed in order.
            Chunk *c = w.popChunk;
            w.popChunk = nullptr;
            co_await publishChunk(ctx, c->bucket, myPkg, c);
            continue;
        }
        if (w.popChunk) {
            pool_.release(w.popChunk);
            w.popChunk = nullptr;
        }

        // Drain our own unpublished chunk when it is at least as
        // good as the current bucket (Galois consumes local work
        // first; leaving it would invert priorities).
        if (!w.pushChunks.empty()) {
            auto best = w.pushChunks.begin();
            if (best->first <= w.curBucket) {
                w.popChunk = best->second;
                w.curBucket = best->first;
                w.pushChunks.erase(best);
                ctx.compute(4);
                continue;
            }
        }

        // Phase 1 (no suspensions): find the lowest bucket with any
        // published chunk, garbage-collecting drained buckets.
        std::int64_t candidate = kNoBucket;
        for (auto it = buckets_.begin(); it != buckets_.end();) {
            GlobalBucket &gb = it->second;
            ctx.compute(4);
            ctx.load(gb.descBase, 0,
                     {kSiteWlBucketMap, 0, false, false});
            bool any = false;
            for (std::uint32_t p = 0; p < packages_; ++p) {
                if (!gb.perPkg[p].empty()) {
                    any = true;
                    break;
                }
            }
            if (any) {
                candidate = it->first;
                break;
            }
            ctx.compute(6);
            it = buckets_.erase(it);
        }

        // Phase 2 (suspends): acquire a chunk from the candidate,
        // re-finding the bucket by key after every await.
        Chunk *got = nullptr;
        if (candidate != kNoBucket) {
            for (std::uint32_t i = 0; i < packages_ && !got; ++i) {
                std::uint32_t pkg = (myPkg + i) % packages_;
                auto it = buckets_.find(candidate);
                if (it == buckets_.end())
                    break; // drained and GC'd while we were away.
                if (it->second.perPkg[pkg].empty())
                    continue;
                co_await ctx.atomicAccess(
                    it->second.headLine(pkg));
                it = buckets_.find(candidate);
                if (it == buckets_.end())
                    break;
                if (it->second.perPkg[pkg].empty())
                    continue; // lost the race while acquiring.
                got = it->second.perPkg[pkg].front();
                it->second.perPkg[pkg].pop_front();
                ctx.load(got->base, 0,
                         {kSiteWlChunkHdr, 0, false, false});
                ctx.monitor().transferWork(got->remaining(), false);
            }
        }
        if (got) {
            w.popChunk = got;
            w.curBucket = candidate;
            if (candidate != minHint_) {
                co_await ctx.atomicAccess(minLine_);
                minHint_ = candidate;
            }
            continue;
        }
        if (candidate != kNoBucket) {
            // The candidate evaporated under us; rescan.
            continue;
        }

        // Global structure empty: flush our private push chunks and
        // rescan; if we had none, report failure.
        if (!w.pushChunks.empty()) {
            std::map<std::int64_t, Chunk *> mine;
            mine.swap(w.pushChunks);
            for (auto &[bucket, chunk] : mine)
                co_await publishChunk(ctx, bucket, myPkg, chunk);
            continue;
        }
        co_await ctx.sync();
        co_return false;
    }
}

void
ObimWorklist::checkpoint(ckpt::Ckpt &ck) const
{
    Worklist::checkpoint(ck);
    ck.io(lg_);
    ck.io(packages_);
    ck.io(coresPerPkg_);
    pool_.checkpoint(ck);
    ck.io(minHint_);
    ck.io(minLine_);
    ck.io(mapLock_);
    ck.io(seedRotorForInitial_);
    ck.io(std::uint64_t(buckets_.size()));
    for (const auto &[key, gb] : buckets_) {
        ck.io(key);
        ck.io(gb.descBase);
        ck.io(std::uint64_t(gb.perPkg.size()));
        for (const auto &dq : gb.perPkg) {
            ck.io(std::uint64_t(dq.size()));
            for (const Chunk *c : dq)
                c->checkpoint(ck);
        }
    }
    ck.io(std::uint64_t(workers_.size()));
    for (const PerWorker &w : workers_) {
        ck.io(w.curBucket);
        ck.io(std::uint64_t(w.pushChunks.size()));
        for (const auto &[b, c] : w.pushChunks) {
            ck.io(b);
            checkpointChunkPtr(ck, c);
        }
        checkpointChunkPtr(ck, w.popChunk);
    }
    ck.transient("machine_");
}

} // namespace minnow::worklist
