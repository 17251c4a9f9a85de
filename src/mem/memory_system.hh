/**
 * @file
 * The full simulated memory hierarchy.
 *
 * Per core: a private L1D and a private L2 (inclusive of L1). Shared:
 * an address-hash-banked L3 (one bank per core tile, inclusive of all
 * private caches) with a MESI-lite sharer directory, an 8x8 mesh NoC,
 * and a channel-interleaved DRAM model.
 *
 * The hierarchy is timing + coherence state only; functional data
 * lives in host containers owned by the workloads. Every access
 * returns its completion cycle so the core model and Minnow engines
 * can account latency.
 *
 * Prefetch support (Section 5.3.1): L2 lines carry a prefetch bit.
 * Prefetch-marked fills report back through a credit hook when the
 * line is used by a demand access, evicted, or invalidated, which is
 * how the Minnow credit throttle and the Fig. 20 efficiency metric
 * are implemented. Optional per-core baseline prefetchers (stride or
 * IMP) observe the demand load stream and inject their own fills.
 */

#ifndef MINNOW_MEM_MEMORY_SYSTEM_HH
#define MINNOW_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/bits.hh"
#include "base/flat_table.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/noc.hh"
#include "mem/prefetcher.hh"
#include "sim/config.hh"

namespace minnow
{
class FaultInjector;
} // namespace minnow

namespace minnow::mem
{

class Attribution;

/** Kind of memory operation. */
enum class AccessType
{
    Load,
    Store,
    Atomic,
};

/** One memory request from a core or Minnow engine. */
struct MemAccess
{
    Addr addr = 0;
    AccessType type = AccessType::Load;
    CoreId core = 0;
    Cycle when = 0;

    std::uint16_t site = 0;    //!< load-site tag (PC proxy).
    std::uint64_t value = 0;   //!< functional value (IMP training).
    bool hasValue = false;

    bool engine = false;       //!< from a Minnow engine (skip L1).
    bool prefetch = false;     //!< mark the L2 fill as a prefetch.
    bool hwPrefetch = false;   //!< HW prefetcher fill (no credits).

    /** Trigger-task lineage id (--attribution; 0 = untracked). */
    std::uint64_t lineage = 0;
};

/** Where an access was satisfied. */
enum class HitLevel
{
    L1 = 1,
    L2 = 2,
    L3 = 3,
    Mem = 4,
};

/** Timing outcome of one access. */
struct AccessResult
{
    Cycle done = 0;
    HitLevel level = HitLevel::L1;
    /** A new prefetch-marked L2 line was installed (credit consumed). */
    bool prefetchFilled = false;
    /** The access hit a prefetched line (fully or in flight). */
    bool hitPrefetched = false;
};

/** Per-core memory statistics. */
struct MemStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t engineAccesses = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2HitsUnderFill = 0; //!< prefetch arrived late.
    std::uint64_t l2DemandMisses = 0;  //!< core demand misses (MPKI).
    std::uint64_t l3Hits = 0;
    std::uint64_t memAccesses = 0;

    std::uint64_t invalidationsSent = 0;
    std::uint64_t invalidationsTaken = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t prefetchFills = 0;
    std::uint64_t prefetchUsed = 0;
    std::uint64_t prefetchUsedLate = 0;
    std::uint64_t prefetchEvictedUnused = 0;
    std::uint64_t prefetchInvalidated = 0;
    std::uint64_t prefetchRedundant = 0;
};

/**
 * Called when a prefetch-marked line stops being tracked.
 * @param core The owning core.
 * @param used True if a demand access consumed the line.
 */
using CreditHook = std::function<void(CoreId core, bool used)>;

/** The complete cache/NoC/DRAM hierarchy. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &cfg);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Perform one timed access; updates all cache/coherence state. */
    AccessResult access(const MemAccess &req);

    /**
     * Install the Minnow credit-return hook; fired whenever a
     * prefetch-marked line is consumed, evicted, or invalidated.
     */
    void setCreditHook(CreditHook hook) { creditHook_ = std::move(hook); }

    /**
     * Attach the machine's fault injector (nullptr detaches). Adds
     * noc_delay/dram_delay latency spikes on the demand path and
     * drops hardware prefetch issues per drop_prefetch clauses.
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /**
     * Attach the causal-attribution tracker (nullptr detaches).
     * When set, every prefetch fill/use/eviction and demand miss is
     * reported for lifecycle classification (--attribution).
     */
    void setAttribution(Attribution *attr) { attr_ = attr; }

    /**
     * Register the functional-read oracle used by the IMP prefetcher
     * to chase index arrays ahead of the demand stream.
     */
    void setValueOracle(ValueOracle oracle);

    const MemStats &stats(CoreId core) const { return stats_[core]; }
    MemStats totals() const;

    const Noc &noc() const { return noc_; }
    const Dram &dram() const { return dram_; }


    /**
     * Register hierarchy totals (plus NoC/DRAM counters and the
     * derived prefetch coverage/accuracy) as the "mem" group.
     */
    void registerStats(StatsRegistry &reg);

    /**
     * Register core @p i's private-cache counters into @p g (the
     * machine's "l2_<i>" group), including per-slice prefetch
     * coverage and accuracy formulas.
     */
    void registerCoreStats(StatsGroup &g, CoreId i);

    /**
     * Engine-prefetched (credit-tracked) L2 lines currently resident
     * or in flight, summed over all cores. Feeds the timeline's L2
     * occupancy counter track; HW-prefetcher fills are excluded.
     */
    std::uint64_t prefetchLinesTracked() const
    {
        return pfLinesTracked_;
    }

    /** Probe helpers for tests. */
    bool inL1(CoreId core, Addr addr) const;
    bool inL2(CoreId core, Addr addr) const;
    bool inL3(Addr addr) const;

    /**
     * Serialize the hierarchy: every cache array, the directory and
     * atomic serialization points (sorted by line for determinism),
     * NoC/DRAM meters and per-core counters, as the checkpoint
     * witness. Hardware prefetcher tables are transient: any
     * divergence they could cause shows up in the cache and stats
     * sections of the witness.
     */
    void checkpoint(ckpt::Ckpt &ck) const;

  private:
    /** Directory entry for a line cached somewhere on chip. */
    struct DirEntry
    {
        std::uint64_t sharers = 0; //!< bitmask of cores with the line.
        std::int32_t owner = -1;   //!< core with a dirty copy, or -1.

        // Per-member: 4 tail padding bytes must not leak into a
        // checkpoint stream.
        void
        checkpoint(ckpt::Ckpt &ck) const
        {
            ck.io(sharers);
            ck.io(owner);
        }
    };

    std::uint32_t bankOf(Addr lnum) const;
    std::uint32_t tileOf(std::uint32_t unit) const { return unit; }

    /**
     * Remove a line from one core's private caches, returning credit
     * if it was an unused prefetch. Updates stats but not directory.
     */
    void invalidatePrivate(CoreId core, Addr lnum);

    /** Handle L2 victim: writeback, inclusion, credits, directory. */
    void handleL2Eviction(CoreId core, const Eviction &ev);

    /**
     * Fill L3 bank for a line fetched from memory; returns the
     * installed frame (saves the caller a re-lookup).
     */
    Frame fillL3(std::uint32_t bank, Addr lnum);

    /** Run the baseline hardware prefetcher for one demand load. */
    void runHwPrefetcher(const MemAccess &req, Cycle when);

    MachineConfig cfg_;
    Divisor bankMod_; //!< % numCores without a divide.
    std::vector<CacheArray> l1_;
    std::vector<CacheArray> l2_;
    std::vector<CacheArray> l3_;
    FlatTable<Addr, DirEntry> directory_;
    /**
     * Per-line serialization point for locked RMWs: concurrent
     * atomics to one line execute back to back (the CAS-retry /
     * locked-bus behaviour contended lines exhibit on real x86).
     * Booked in call order, which tracks simulated-time order to
     * within the sync quantum (callers sync before shared-state
     * RMWs).
     */
    FlatTable<Addr, Cycle> atomicBusy_;
    Noc noc_;
    Dram dram_;
    std::vector<MemStats> stats_;
    CreditHook creditHook_;
    Attribution *attr_ = nullptr;
    FaultInjector *faults_ = nullptr;
    std::vector<std::unique_ptr<Prefetcher>> hwPrefetchers_;
    ValueOracle oracle_;
    std::vector<Addr> pfScratch_;
    bool inPrefetchIssue_ = false;
    std::uint64_t pfLinesTracked_ = 0;
    /** The "mem" group: its formulas capture `this`. */
    StatsClaim statsClaim_;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_MEMORY_SYSTEM_HH
