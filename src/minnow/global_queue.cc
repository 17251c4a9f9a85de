#include "minnow/global_queue.hh"

#include <algorithm>

#include "base/logging.hh"
#include "minnow/engine.hh"
#include "sim/hostprof.hh"

namespace minnow::minnowengine
{

using runtime::CoTask;

MinnowGlobalQueue::MinnowGlobalQueue(SimAlloc *alloc,
                                     std::uint32_t lgBucketInterval,
                                     std::uint32_t packages)
    : alloc_(alloc), lg_(lgBucketInterval),
      packages_(std::max(1u, packages))
{
    mapLine_ = alloc->alloc("minnow.globalq.map", 64);
}

MinnowGlobalQueue::Bucket &
MinnowGlobalQueue::ensureBucket(std::int64_t b)
{
    HostProfScope hp(HostClass::Worklist);
    auto it = buckets_.find(b);
    if (it == buckets_.end()) {
        Bucket bkt;
        bkt.sub.resize(packages_);
        for (auto &sl : bkt.sub) {
            sl.base = alloc_->allocAnon(64);
            sl.itemsBase = alloc_->allocAnon(
                kBucketRingSlots * worklist::kItemBytes);
        }
        it = buckets_.emplace(b, std::move(bkt)).first;
    }
    return it->second;
}

std::int64_t
MinnowGlobalQueue::minBucket() const
{
    HostProfScope hp(HostClass::Worklist);
    for (const auto &[b, bkt] : buckets_) {
        if (bkt.total() > 0)
            return b;
    }
    return kNoBucket;
}

void
MinnowGlobalQueue::pushInitial(WorkItem item)
{
    Bucket &bkt = ensureBucket(bucketOf(item));
    // Scatter seeds round-robin over the sublists.
    bkt.sub[size_ % packages_].items.push_back(item);
    size_ += 1;
}

CoTask<void>
MinnowGlobalQueue::spillBatch(ThreadletCtx &tc,
                              const std::vector<WorkItem> &items,
                              std::int64_t bucket, std::uint32_t pkg)
{
    // NOTE: concurrent fills may erase empty buckets during any
    // suspension; never hold a Bucket reference across a co_await.
    pkg %= packages_;
    tc.exec(6);
    // Ordered-map probe, then lock our package's sublist head.
    co_await tc.load(mapLine_);
    tc.exec(4);
    Addr head = ensureBucket(bucket).sub[pkg].base;
    co_await tc.atomic(head);
    // Touch one line per four task records written.
    std::size_t i = 0;
    while (i < items.size()) {
        Addr slotAddr;
        {
            SubList &sl = ensureBucket(bucket).sub[pkg];
            slotAddr = itemAddr(sl, sl.items.size() + i);
        }
        co_await tc.load(slotAddr);
        i += 4;
        tc.exec(3);
    }
    SubList &sl = ensureBucket(bucket).sub[pkg];
    for (const WorkItem &item : items)
        sl.items.push_back(item);
    size_ += items.size();
    spillCount_ += items.size();
}

CoTask<std::uint32_t>
MinnowGlobalQueue::fill(
    ThreadletCtx &tc, std::uint32_t max,
    // LINT-OK(coro-suspend-safety): every caller co_awaits fill()
    std::vector<WorkItem> &out, std::int64_t &bucket,
    std::uint32_t pkg)
{
    pkg %= packages_;
    tc.exec(6);
    co_await tc.load(mapLine_);

    bucket = kNoBucket;
    std::uint32_t got = 0;
    // Stream the globally best tasks: drain ascending buckets until
    // the burst is filled (a fill crossing a thin bucket boundary
    // costs one more scan step, not a round trip). Bounded so a
    // single fill cannot monopolize the engine.
    for (int rounds = 0; rounds < 8 && got < max; ++rounds) {
        // Find the lowest non-empty bucket, erasing drained ones.
        std::int64_t found = kNoBucket;
        for (auto it = buckets_.begin(); it != buckets_.end();) {
            tc.exec(3);
            if (it->second.total() > 0) {
                found = it->first;
                break;
            }
            it = buckets_.erase(it);
        }
        if (found == kNoBucket)
            break;
        if (bucket == kNoBucket)
            bucket = found;

        // Drain its sublists: own package first, then round-robin.
        // Re-find everything by key after each suspension.
        for (std::uint32_t i = 0; i < packages_ && got < max; ++i) {
            std::uint32_t p = (pkg + i) % packages_;
            {
                auto it = buckets_.find(found);
                if (it == buckets_.end())
                    break; // vanished; rescan in the next round.
                if (it->second.sub[p].items.empty())
                    continue;
                co_await tc.atomic(it->second.sub[p].base);
            }
            while (got < max) {
                auto it = buckets_.find(found);
                if (it == buckets_.end() ||
                    it->second.sub[p].items.empty()) {
                    break; // drained (possibly by a racing engine).
                }
                // One line covers several task records.
                Addr slotAddr =
                    itemAddr(it->second.sub[p],
                             it->second.sub[p].items.size());
                co_await tc.load(slotAddr);
                it = buckets_.find(found);
                if (it == buckets_.end() ||
                    it->second.sub[p].items.empty()) {
                    break;
                }
                out.push_back(it->second.sub[p].items.front());
                it->second.sub[p].items.pop_front();
                size_ -= 1;
                got += 1;
                tc.exec(2);
            }
        }
    }
    if (got > 0)
        fillCount_ += 1;
    co_return got;
}

CoTask<bool>
MinnowGlobalQueue::popSoftware(runtime::SimContext &ctx,
                               WorkItem &out, std::uint32_t pkg)
{
    runtime::PhaseGuard guard(ctx, cpu::Phase::Worklist);
    pkg %= packages_;
    co_await ctx.sync();
    ctx.compute(6);
    Cycle t = ctx.load(mapLine_);

    // Same bucket-scan shape as fill(), but issued from the worker
    // core itself: a faulted engine's core pays full software
    // scheduling cost. One item per call keeps the baseline path's
    // pop granularity.
    for (int rounds = 0; rounds < 8; ++rounds) {
        std::int64_t found = kNoBucket;
        for (auto it = buckets_.begin(); it != buckets_.end();) {
            ctx.compute(3, t);
            if (it->second.total() > 0) {
                found = it->first;
                break;
            }
            it = buckets_.erase(it);
        }
        if (found == kNoBucket)
            co_return false;

        for (std::uint32_t i = 0; i < packages_; ++i) {
            std::uint32_t p = (pkg + i) % packages_;
            {
                auto it = buckets_.find(found);
                if (it == buckets_.end())
                    break; // vanished; rescan in the next round.
                if (it->second.sub[p].items.empty())
                    continue;
                co_await ctx.atomicAccess(it->second.sub[p].base);
            }
            // Re-find after the suspension: a racing engine may have
            // drained the sublist or erased the bucket entirely.
            auto it = buckets_.find(found);
            if (it == buckets_.end() || it->second.sub[p].items.empty())
                continue;
            ctx.load(itemAddr(it->second.sub[p],
                              it->second.sub[p].items.size()));
            ctx.compute(2);
            out = it->second.sub[p].items.front();
            it->second.sub[p].items.pop_front();
            size_ -= 1;
            softwarePops_ += 1;
            co_return true;
        }
    }
    co_return false;
}

} // namespace minnow::minnowengine
