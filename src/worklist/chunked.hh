/**
 * @file
 * Chunked FIFO/LIFO worklist, modelled on Galois dChunkedFIFO/LIFO.
 *
 * Topology-aware: chunks are published to per-package lists; workers
 * drain their own package first and steal from others in round-robin
 * order. This implements the paper's Section 6.2.1 scalability fix of
 * treating the 64-core machine as 8 packages x 8 cores.
 *
 * The LIFO policy with a shared list is what the paper uses to model
 * Carbon's scheduling behaviour in Fig. 3.
 */

#ifndef MINNOW_WORKLIST_CHUNKED_HH
#define MINNOW_WORKLIST_CHUNKED_HH

#include <deque>
#include <vector>

#include "runtime/machine.hh"
#include "worklist/chunk.hh"
#include "worklist/worklist.hh"

namespace minnow::worklist
{

/** Load-site tags used by worklist code (PC proxies). */
enum WorklistSite : std::uint16_t
{
    kSiteWlHead = 200,   //!< shared list-head lines.
    kSiteWlItem = 201,   //!< chunk item slots.
    kSiteWlChunkHdr = 202,
    kSiteWlBucketMap = 203,
};

/** Chunked worklist with FIFO or LIFO chunk ordering. */
class ChunkedWorklist : public Worklist
{
  public:
    enum class Policy
    {
        Fifo,
        Lifo,
    };

    /**
     * @param machine   The machine (for chunk addresses + monitor).
     * @param policy    Chunk scheduling order.
     * @param chunkSize Items per chunk (Galois default 32).
     * @param packages  Package count for the per-package lists.
     */
    ChunkedWorklist(runtime::Machine *machine, Policy policy,
                    std::uint32_t chunkSize = 32,
                    std::uint32_t packages = 8);

    runtime::CoTask<void> push(runtime::SimContext &ctx,
                               WorkItem item) override;
    runtime::CoTask<bool> pop(runtime::SimContext &ctx,
                              WorkItem &out) override;
    void pushInitial(WorkItem item) override;
    std::uint64_t size() const override;
    std::string name() const override
    {
        return policy_ == Policy::Fifo ? "cfifo" : "clifo";
    }

    void checkpoint(ckpt::Ckpt &ck) const override;

  private:
    struct PerPackage
    {
        std::deque<Chunk *> list;
        Addr headLine = 0; //!< simulated address of the list head.
    };

    struct PerWorker
    {
        Chunk *pushChunk = nullptr;
        Chunk *popChunk = nullptr;
    };

    std::uint32_t pkgOf(CoreId core) const
    {
        return core / coresPerPkg_;
    }

    /** Timed publish of a full push chunk to a package list. */
    runtime::CoTask<void> publish(runtime::SimContext &ctx,
                                  std::uint32_t pkg, Chunk *chunk);

    /** Hand one item from the worker's pop chunk to @p out. */
    void deliver(runtime::SimContext &ctx, PerWorker &w,
                 WorkItem &out);

    runtime::Machine *machine_;
    Policy policy_;
    ChunkPool pool_;
    std::uint32_t packages_;
    std::uint32_t coresPerPkg_;
    std::vector<PerPackage> pkgs_;
    std::vector<PerWorker> workers_;
    std::uint32_t seedRotor_ = 0;
};

} // namespace minnow::worklist

#endif // MINNOW_WORKLIST_CHUNKED_HH
