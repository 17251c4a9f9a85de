/**
 * @file
 * Simulated address-space allocator.
 *
 * Functional data (graph arrays, worklist chunks, per-thread stacks)
 * lives in ordinary host containers, but every structure that the
 * timing model touches is also assigned a *simulated* address range so
 * that cache indexing, line sharing, and bank/channel interleaving are
 * deterministic and independent of the host heap layout.
 *
 * SimAlloc is a simple bump allocator over a fixed virtual region. It
 * never frees; the simulator's structures are allocated once per run.
 * Named regions are recorded so tools can print a memory map.
 */

#ifndef MINNOW_BASE_SIM_ALLOC_HH
#define MINNOW_BASE_SIM_ALLOC_HH

#include <string>
#include <vector>

#include "base/ckpt.hh"
#include "base/types.hh"

namespace minnow
{

/** One named simulated allocation, for memory-map dumps. */
struct SimRegion
{
    std::string name;
    Addr base;
    std::uint64_t bytes;
};

/** Bump allocator for simulated addresses (no host backing). */
class SimAlloc
{
  public:
    /** Simulated allocations start above the null page. */
    static constexpr Addr kBase = 0x10000;

    SimAlloc() : cursor_(kBase) {}

    /**
     * Reserve a named, line-aligned simulated range.
     *
     * @param name  Human-readable tag for the memory map.
     * @param bytes Size in bytes; rounded up to a whole line.
     * @return Base simulated address of the range.
     */
    Addr
    alloc(const std::string &name, std::uint64_t bytes)
    {
        Addr base = cursor_;
        std::uint64_t rounded = (bytes + kLineBytes - 1)
                              & ~std::uint64_t(kLineBytes - 1);
        if (rounded == 0)
            rounded = kLineBytes;
        cursor_ += rounded;
        regions_.push_back({name, base, rounded});
        return base;
    }

    /**
     * Reserve an unnamed range; cheaper bookkeeping for per-chunk
     * allocations that would flood the memory map.
     */
    Addr
    allocAnon(std::uint64_t bytes)
    {
        Addr base = cursor_;
        std::uint64_t rounded = (bytes + kLineBytes - 1)
                              & ~std::uint64_t(kLineBytes - 1);
        if (rounded == 0)
            rounded = kLineBytes;
        cursor_ += rounded;
        return base;
    }

    /** Total simulated bytes handed out so far. */
    std::uint64_t bytesAllocated() const { return cursor_ - kBase; }

    /** Named regions, in allocation order. */
    const std::vector<SimRegion> &regions() const { return regions_; }

    /** Serialize the cursor and the named memory map. */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(cursor_);
        ck.io(std::uint64_t(regions_.size()));
        for (const SimRegion &r : regions_) {
            ck.io(r.name);
            ck.io(r.base);
            ck.io(r.bytes);
        }
    }

  private:
    Addr cursor_;
    std::vector<SimRegion> regions_;
};

} // namespace minnow

#endif // MINNOW_BASE_SIM_ALLOC_HH
