/**
 * @file
 * Chunk storage shared by the chunked worklist implementations.
 *
 * Following Galois's dChunked* worklists, items move in fixed-size
 * chunks: workers fill a private push chunk and publish it whole;
 * consumers grab whole chunks and drain them privately. Only the
 * publish/acquire steps touch shared state, amortizing atomics over
 * chunkSize items.
 *
 * Each chunk has a simulated address so item reads/writes and chunk
 * headers generate real cache traffic. Chunks are recycled through a
 * free list to keep the simulated address space bounded.
 */

#ifndef MINNOW_WORKLIST_CHUNK_HH
#define MINNOW_WORKLIST_CHUNK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/ckpt.hh"
#include "base/logging.hh"
#include "base/sim_alloc.hh"
#include "worklist/worklist.hh"

namespace minnow::worklist
{

/** A fixed-capacity run of work items with a simulated address. */
struct Chunk
{
    Addr base = 0;                //!< simulated address of item 0.
    std::int64_t bucket = 0;      //!< OBIM bucket tag (0 otherwise).
    std::uint32_t head = 0;       //!< items consumed so far.
    std::vector<WorkItem> items;  //!< appended in push order.

    std::uint32_t remaining() const
    {
        return std::uint32_t(items.size()) - head;
    }

    bool empty() const { return head == items.size(); }

    /** Simulated address of the item at index @p i. */
    Addr itemAddr(std::uint32_t i) const
    {
        return base + Addr(i) * kItemBytes;
    }

    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(base);
        ck.io(bucket);
        ck.io(head);
        ck.io(items);
    }
};

/** Allocator/recycler for chunks of one fixed capacity. */
class ChunkPool
{
  public:
    ChunkPool(SimAlloc *alloc, std::uint32_t chunkSize)
        : alloc_(alloc), chunkSize_(chunkSize)
    {
    }

    std::uint32_t chunkSize() const { return chunkSize_; }

    /** Get an empty chunk (recycled or freshly addressed). */
    Chunk *
    acquire()
    {
        if (!freeList_.empty()) {
            Chunk *c = freeList_.back();
            freeList_.pop_back();
            c->head = 0;
            c->bucket = 0;
            c->items.clear();
            return c;
        }
        auto owned = std::make_unique<Chunk>();
        owned->base =
            alloc_->allocAnon(std::uint64_t(chunkSize_) * kItemBytes);
        owned->items.reserve(chunkSize_);
        Chunk *raw = owned.get();
        chunks_.push_back(std::move(owned));
        return raw;
    }

    /** Return a drained chunk for reuse. */
    void
    release(Chunk *c)
    {
        panic_if(!c->empty(), "releasing a chunk with live items");
        freeList_.push_back(c);
    }

    std::size_t liveChunks() const
    {
        return chunks_.size() - freeList_.size();
    }

    /**
     * Witness serialization: pool shape only. Chunk *contents* are
     * serialized by the worklist that owns the live chunks; the
     * pool's pointers are host state and are not saved.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(chunkSize_);
        ck.io(std::uint64_t(chunks_.size()));
        ck.io(std::uint64_t(freeList_.size()));
        ck.transient("alloc_");
    }

  private:
    SimAlloc *alloc_;
    std::uint32_t chunkSize_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<Chunk *> freeList_;
};

/** Serialize a maybe-null live chunk (witness helper). */
inline void
checkpointChunkPtr(ckpt::Ckpt &ck, const Chunk *c)
{
    ck.io(std::uint8_t(c != nullptr));
    if (c)
        c->checkpoint(ck);
}

} // namespace minnow::worklist

#endif // MINNOW_WORKLIST_CHUNK_HH
