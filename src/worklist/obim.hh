/**
 * @file
 * OBIM: the ordered-by-integer-metric priority worklist (Lenharth,
 * Nguyen, Pingali) used by Galois and offloaded by Minnow.
 *
 * Priorities are discretized into buckets
 * (bucket = priority >> lgBucketInterval, Section 2.1); work inside a
 * bucket is unordered and flows through per-package chunk lists, and
 * buckets are processed in ascending order. A shared "minimum bucket"
 * hint line lets workers notice when higher-priority work appears —
 * and is also the structure whose cache-line ping-pong makes OBIM
 * expensive at high thread counts, which is exactly the overhead
 * Minnow offloads.
 */

#ifndef MINNOW_WORKLIST_OBIM_HH
#define MINNOW_WORKLIST_OBIM_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "runtime/machine.hh"
#include "worklist/chunk.hh"
#include "worklist/chunked.hh"
#include "worklist/worklist.hh"

namespace minnow::worklist
{

/** Bucketed priority worklist (Galois OBIM). */
class ObimWorklist : public Worklist
{
  public:
    /**
     * @param machine   The machine.
     * @param lgBucketInterval Bucket = priority >> this. 0 is
     *                  near-strict ordering; large values approach an
     *                  unordered worklist.
     * @param chunkSize Items per chunk (smaller than plain chunked
     *                  FIFO for priority responsiveness).
     * @param packages  Package count (the paper's 8x8 topology fix).
     */
    ObimWorklist(runtime::Machine *machine,
                 std::uint32_t lgBucketInterval,
                 std::uint32_t chunkSize = 16,
                 std::uint32_t packages = 8);

    runtime::CoTask<void> push(runtime::SimContext &ctx,
                               WorkItem item) override;
    runtime::CoTask<bool> pop(runtime::SimContext &ctx,
                              WorkItem &out) override;
    void pushInitial(WorkItem item) override;
    std::uint64_t size() const override;
    std::string name() const override
    {
        return "obim" + std::to_string(lg_);
    }

    std::uint32_t lgBucketInterval() const { return lg_; }

    /** Adds the live minimum-bucket hint as a counter track. */
    void registerTimeline(timeline::Timeline &tl) override;

    void checkpoint(ckpt::Ckpt &ck) const override;

  private:
    static constexpr std::int64_t kNoBucket =
        std::numeric_limits<std::int64_t>::max();

    struct GlobalBucket
    {
        std::vector<std::deque<Chunk *>> perPkg;
        Addr descBase = 0; //!< one line per package head pointer.

        Addr headLine(std::uint32_t pkg) const
        {
            return descBase + Addr(pkg) * kLineBytes;
        }
    };

    struct PerWorker
    {
        std::int64_t curBucket = kNoBucket;
        std::map<std::int64_t, Chunk *> pushChunks;
        Chunk *popChunk = nullptr;
    };

    std::uint32_t pkgOf(CoreId core) const
    {
        return core / coresPerPkg_;
    }

    std::int64_t bucketOf(const WorkItem &item) const
    {
        return item.priority >> lg_;
    }

    /** Find or create the global structure for a bucket (timed). */
    GlobalBucket &ensureBucket(runtime::SimContext &ctx,
                               std::int64_t bucket, bool &created);

    /** Timed publish of a chunk into its bucket's package list. */
    runtime::CoTask<void> publishChunk(runtime::SimContext &ctx,
                                       std::int64_t bucket,
                                       std::uint32_t pkg, Chunk *c);

    /** Timed update of the shared minimum-bucket hint. */
    runtime::CoTask<void> raiseMinHint(runtime::SimContext &ctx,
                                       std::int64_t bucket);

    runtime::Machine *machine_;
    std::uint32_t lg_;
    ChunkPool pool_;
    std::uint32_t packages_;
    std::uint32_t coresPerPkg_;
    std::map<std::int64_t, GlobalBucket> buckets_;
    std::int64_t minHint_ = kNoBucket;
    Addr minLine_ = 0;
    Addr mapLock_ = 0;
    std::vector<PerWorker> workers_;
    std::uint32_t seedRotorForInitial_ = 0;
};

} // namespace minnow::worklist

#endif // MINNOW_WORKLIST_OBIM_HH
