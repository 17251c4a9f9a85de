/**
 * @file
 * The global priority worklist that Minnow engines run in software
 * (Section 5.2 / Fig. 13).
 *
 * It is a simplified OBIM: a concurrent ordered map from bucket
 * number to an unordered task list. All timed accesses are made by
 * engine threadlets through their core's L2 (the EngineContext),
 * which is what decentralizes the design: spilled tasks live in the
 * ordinary cache hierarchy, not in dedicated buffers.
 */

#ifndef MINNOW_MINNOW_GLOBAL_QUEUE_HH
#define MINNOW_MINNOW_GLOBAL_QUEUE_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "base/ckpt.hh"
#include "base/sim_alloc.hh"
#include "runtime/task.hh"
#include "worklist/worklist.hh"

namespace minnow::minnowengine
{

class ThreadletCtx;

using worklist::WorkItem;

/** Software global priority worklist shared by all Minnow engines. */
class MinnowGlobalQueue
{
  public:
    static constexpr std::int64_t kNoBucket =
        std::numeric_limits<std::int64_t>::max();

    /**
     * @param alloc Simulated address allocator.
     * @param lgBucketInterval OBIM bucket = priority >> this.
     * @param packages Per-bucket sublist count: engines spill/fill
     *        their own package's sublist first (the same topology
     *        trick Galois OBIM uses), so bucket-head atomics from
     *        different packages proceed in parallel.
     */
    MinnowGlobalQueue(SimAlloc *alloc,
                      std::uint32_t lgBucketInterval,
                      std::uint32_t packages = 8);

    std::int64_t bucketOf(const WorkItem &item) const
    {
        return item.priority >> lg_;
    }

    /** Functional: total queued items. */
    std::uint64_t size() const { return size_; }

    /** Functional: lowest non-empty bucket (kNoBucket if empty). */
    std::int64_t minBucket() const;

    /** Functional-only seeding before simulated time starts. */
    void pushInitial(WorkItem item);

    /**
     * Timed spill of a batch of same-bucket tasks, executed by an
     * engine threadlet: one map probe and one head atomic amortized
     * over the whole batch (the grouped operations of Section 5.2).
     * The monitor transfer to "stealable" is the caller's job.
     */
    runtime::CoTask<void> spillBatch(ThreadletCtx &tc,
                                     const std::vector<WorkItem> &items,
                                     std::int64_t bucket,
                                     std::uint32_t pkg);

    /**
     * Timed fill: take up to @p max tasks from the lowest bucket.
     * Items are appended to @p out; returns the bucket they came
     * from via @p bucket. Accounting is the caller's job.
     */
    runtime::CoTask<std::uint32_t> fill(ThreadletCtx &tc,
                                        std::uint32_t max,
                                        std::vector<WorkItem> &out,
                                        std::int64_t &bucket,
                                        std::uint32_t pkg);

    /**
     * Timed software pop executed directly by a worker core — the
     * degraded-mode path used when the core's engine has been killed
     * or stalled by fault injection. Takes one task from the lowest
     * non-empty bucket; returns false when nothing is obtainable
     * right now. Monitor accounting is the caller's job.
     */
    runtime::CoTask<bool> popSoftware(runtime::SimContext &ctx,
                                      WorkItem &out,
                                      std::uint32_t pkg);

    std::uint64_t spills() const { return spillCount_; }
    std::uint64_t fills() const { return fillCount_; }
    std::uint64_t softwarePops() const { return softwarePops_; }

    /**
     * Serialize the full logical content (sorted bucket order, items
     * in queue order) plus counters: the deques hold values, not
     * pointers, so the witness compares the queue itself.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(lg_);
        ck.io(packages_);
        ck.io(mapLine_);
        ck.io(size_);
        ck.io(spillCount_);
        ck.io(fillCount_);
        ck.io(softwarePops_);
        ck.io(std::uint64_t(buckets_.size()));
        for (const auto &[key, b] : buckets_) {
            ck.io(key);
            ck.io(std::uint64_t(b.sub.size()));
            for (const SubList &sl : b.sub) {
                ck.io(sl.base);
                ck.io(sl.itemsBase);
                ck.io(sl.items);
            }
        }
        ck.transient("alloc_");
    }

  private:
    struct SubList
    {
        std::deque<WorkItem> items;
        Addr base = 0;      //!< line for head/lock.
        Addr itemsBase = 0; //!< simulated backing for item slots.
    };

    struct Bucket
    {
        std::vector<SubList> sub;

        std::uint64_t
        total() const
        {
            std::uint64_t n = 0;
            for (const auto &s : sub)
                n += s.items.size();
            return n;
        }
    };

    Bucket &ensureBucket(std::int64_t b);

    /** Simulated address of a sublist item slot (ring-indexed). */
    Addr
    itemAddr(const SubList &sl, std::uint64_t idx) const
    {
        return sl.itemsBase +
               (idx % kBucketRingSlots) * worklist::kItemBytes;
    }

    static constexpr std::uint64_t kBucketRingSlots = 4096;

    SimAlloc *alloc_;
    std::uint32_t lg_;
    std::uint32_t packages_;
    std::map<std::int64_t, Bucket> buckets_;
    Addr mapLine_ = 0;
    std::uint64_t size_ = 0;
    std::uint64_t spillCount_ = 0;
    std::uint64_t fillCount_ = 0;
    std::uint64_t softwarePops_ = 0;
};

} // namespace minnow::minnowengine

#endif // MINNOW_MINNOW_GLOBAL_QUEUE_HH
