/**
 * @file
 * Causal attribution layer (--attribution; DESIGN.md section 5k).
 *
 * Two trackers behind one object, both deterministic and
 * checkpoint-safe:
 *
 *  - Prefetch provenance: every in-flight prefetched L2 line is
 *    tagged with {issuer core, trigger task lineage id, issue/fill
 *    cycles} and classified at first demand use or eviction as
 *    timely / late (demand arrived between issue and fill, with
 *    stall-cycles-covered accounting) / early-evicted / redundant
 *    (line already present or in flight) / polluting (the fill's
 *    victim demand-misses again within --attribution-window).
 *
 *  - Task lineage: a compact id assigned at push time rides the
 *    WorkItem through worklist push -> engine fill/spill ->
 *    dequeue/spec-slot delivery, yielding a per-task critical-path
 *    split (parent-push -> enqueue -> dequeue -> first demand miss)
 *    and push->pop flow arrows in the timeline trace.
 *
 * Exported as the "attribution" stats group (class counters,
 * issue->fill->use delta histograms with P50/P95/P99, per-core class
 * counts) and as Chrome-trace flow events when a timeline is active.
 *
 * Overhead contract: with --attribution unset no Attribution exists
 * and every emit site costs one pointer null-check (the same
 * contract as sim/timeline.hh).
 *
 * Determinism: ids are assigned in simulated push/classify order and
 * every counter derives from simulated state only — byte-identical
 * per seed. The hot-path line/lineage maps are
 * base/flat_table.hh tables (no per-insert node allocation at ~100k
 * fills per run); their layout never leaks into results, and they
 * serialize sorted by key so the "attribution" section bytes stay
 * canonical.
 */

#ifndef MINNOW_MEM_ATTRIBUTION_HH
#define MINNOW_MEM_ATTRIBUTION_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/ckpt.hh"
#include "base/flat_table.hh"
#include "base/ring_queue.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "sim/timeline.hh"

namespace minnow::mem
{

/** Outcome-class counters (one aggregate set + one per core). */
struct AttrClassCounts
{
    std::uint64_t timely = 0;
    std::uint64_t late = 0;
    std::uint64_t earlyEvicted = 0;
    std::uint64_t redundant = 0;
    std::uint64_t polluting = 0;

    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(timely);
        ck.io(late);
        ck.io(earlyEvicted);
        ck.io(redundant);
        ck.io(polluting);
    }
};

/** The causal-attribution tracker (owned by the Machine). */
class Attribution
{
  public:
    /**
     * @param reg      registry receiving the "attribution" group.
     * @param tl       timeline for flow arrows (null: stats only).
     * @param numCores core count (per-core counters, track lookup).
     * @param window   pollution / re-miss window in cycles (> 0).
     */
    Attribution(StatsRegistry &reg, timeline::Timeline *tl,
                std::uint32_t numCores, std::uint32_t window);

    Attribution(const Attribution &) = delete;
    Attribution &operator=(const Attribution &) = delete;

    /** Clock used when a hook site has no cycle of its own. */
    void bindClock(const Cycle *now) { now_ = now; }

    Cycle now() const { return now_ ? *now_ : 0; }

    // ---- prefetch lifecycle (called from mem::MemorySystem) ----

    /**
     * A prefetch-marked L2 fill was installed on @p core.
     * @param issue   cycle the prefetch request was issued.
     * @param fill    cycle the line becomes ready (fill arrival).
     * @param lineage trigger task id (0 = none/untracked).
     * @param hw      hardware-prefetcher fill (no engine credits).
     */
    void prefetchFilled(CoreId core, Addr lnum, Cycle issue,
                        Cycle fill, std::uint64_t lineage, bool hw);

    /**
     * A prefetch fill displaced valid line @p victim on @p core: if
     * the victim demand-misses within the window, the displacing
     * prefetch is charged as polluting.
     */
    void fillVictim(CoreId core, Addr victim, Cycle at);

    /** A prefetch hit a line already present or in flight. */
    void prefetchRedundant(CoreId core);

    /**
     * A tracked line was evicted or invalidated before any demand
     * use: early-evicted. The line enters the re-miss window so a
     * demand miss shortly after is attributed (missAfterEvict).
     */
    void prefetchEvicted(CoreId core, Addr lnum);

    /**
     * A demand access consumed a tracked line. @p late is true when
     * the fill was still in flight (hit-under-fill): the class is
     * `late` and the prefetch covered (demand - issue) stall cycles;
     * otherwise `timely`.
     */
    void prefetchDemandUse(CoreId core, Addr lnum, Cycle demand,
                           bool late);

    /**
     * A core demand access missed past the L2: drives the pollution
     * / re-miss windows and the lineage first-miss split.
     */
    void demandMiss(CoreId core, Addr lnum, Cycle at);

    // ---- task lineage (called from sinks / worker loops) ----

    /**
     * Assign a lineage id to a task being pushed from @p core at
     * @p at; store the result in the WorkItem before push. Ids are
     * never 0 (0 marks seeds / untracked items everywhere).
     */
    std::uint64_t pushTask(CoreId core, Cycle at);

    /** The item reached queue storage (engine insert / wl push). */
    void taskEnqueued(std::uint64_t lineage, Cycle at);

    /**
     * A worker on @p core dequeued the item: completes the
     * push->pop flow arrow, samples the critical-path histograms,
     * and makes @p lineage the core's current task for first-miss
     * attribution. Call with lineage 0 to just roll the occupancy.
     */
    void taskDequeued(CoreId core, std::uint64_t lineage, Cycle at);

    // ---- inspection (tests / reports) ----

    std::uint64_t trackedLines() const { return tracked_.size(); }
    std::uint64_t liveLineage() const { return lineage_.size(); }
    const AttrClassCounts &counts() const { return total_; }
    std::uint64_t stallCyclesCovered() const { return stallCovered_; }
    std::uint64_t missAfterEvict() const { return missAfterEvict_; }
    std::uint64_t demandMisses() const { return demandMisses_; }

    /**
     * Serialize all tracker state (ordered containers, so the bytes
     * are deterministic) for the restore witness.
     */
    void checkpoint(ckpt::Ckpt &ck) const;

  private:
    /** Map key: (core, line number). */
    using Key = std::pair<std::uint32_t, Addr>;

    /** One tracked in-flight/resident prefetched line. */
    struct Tracked
    {
        Cycle issue = 0;
        Cycle fill = 0;
        std::uint64_t lineage = 0;
        std::uint8_t hw = 0;

        void
        checkpoint(ckpt::Ckpt &ck) const
        {
            ck.io(issue);
            ck.io(fill);
            ck.io(lineage);
            ck.io(hw);
        }
    };

    /** One in-flight lineage id (assigned at push, drained at pop). */
    struct LineageEntry
    {
        Cycle pushCycle = 0;
        Cycle enqueueCycle = 0;
        std::uint32_t pushCore = 0;

        void
        checkpoint(ckpt::Ckpt &ck) const
        {
            ck.io(pushCycle);
            ck.io(enqueueCycle);
            ck.io(pushCore);
        }
    };

    /** Per-core current-task occupancy for first-miss attribution. */
    struct CurTask
    {
        Cycle dequeueCycle = 0;
        std::uint8_t active = 0; //!< lineage != 0 task running.

        void
        checkpoint(ckpt::Ckpt &ck) const
        {
            ck.io(dequeueCycle);
            ck.io(active);
        }
    };

    /** A keyed cycle map + FIFO implementing a sliding window. */
    struct Window
    {
        FlatTable<Key, Cycle> at;
        RingQueue<std::pair<Cycle, Key>> fifo;

        void insert(const Key &k, Cycle c, Cycle window);
        /** Expire entries older than @p window before @p c. */
        void expire(Cycle c, Cycle window);
        /** Remove and report a live entry for @p k at cycle @p c. */
        bool take(const Key &k, Cycle c, Cycle window);

        void checkpoint(ckpt::Ckpt &ck) const;
    };

    void charge(CoreId core,
                std::uint64_t AttrClassCounts::*field);
    void emitPrefetchFlow(CoreId core, const Tracked &t, Cycle use,
                          bool late);
    void registerStats(StatsRegistry &reg);

    const Cycle *now_ = nullptr;
    timeline::Timeline *tl_ = nullptr;
    std::uint32_t numCores_;
    std::uint32_t window_;

    FlatTable<Key, Tracked> tracked_;
    Window victims_; //!< lines displaced by prefetch fills.
    Window evicted_; //!< early-evicted prefetched lines.

    FlatTable<std::uint64_t, LineageEntry> lineage_;
    std::vector<CurTask> cur_;
    std::uint64_t nextId_ = 0;

    AttrClassCounts total_;
    std::vector<AttrClassCounts> perCore_;
    std::uint64_t fills_ = 0;
    std::uint64_t stallCovered_ = 0;
    std::uint64_t missAfterEvict_ = 0;
    std::uint64_t demandMisses_ = 0;
    std::uint64_t lineageAssigned_ = 0;
    std::uint64_t lineageDequeued_ = 0;

    // Histograms (registry-owned; see registerStats()).
    HistogramStat *issueToFill_ = nullptr;
    HistogramStat *fillToUse_ = nullptr;
    HistogramStat *issueToUse_ = nullptr;
    HistogramStat *pushToEnqueue_ = nullptr;
    HistogramStat *enqueueToDequeue_ = nullptr;
    HistogramStat *dequeueToFirstMiss_ = nullptr;

    /** The "attribution" group: its formulas capture `this`. */
    StatsClaim statsClaim_;
};

} // namespace minnow::mem

#endif // MINNOW_MEM_ATTRIBUTION_HH
