/**
 * @file
 * Out-of-order core timing model.
 *
 * This is a limit-study model in the ZSim tradition: instead of
 * simulating a pipeline structurally, it tracks the analytic
 * constraints that bound how far an OOO core can run ahead:
 *
 *  - frontend dispatch width (uops per cycle),
 *  - ROB occupancy with in-order retirement,
 *  - unified reservation-station occupancy (frees at completion),
 *  - load-queue and store-queue occupancy,
 *  - x86-TSO fences: an atomic cannot issue until every older load
 *    and store has completed, and younger memory ops wait for it,
 *  - branch mispredictions: issue of younger ops is gated until the
 *    mispredicted branch's input operand is ready plus the redirect
 *    penalty.
 *
 * Every constraint is O(1) amortized per micro-op via segmented ring
 * windows, so the model adds little to simulation cost. Workloads
 * feed it a stream of micro-ops (load / store / atomic / compute /
 * branch) with explicit data dependencies; loads return their
 * completion cycle so dependent ops can be chained.
 *
 * These are precisely the mechanisms Sections 3.3-3.4 of the paper
 * reason about, so Fig. 4 (ROB sweep, perfect-branch / no-fence
 * modes), Fig. 5 (cycle breakdown), and Fig. 6 (delinquent load
 * density) all fall out of this model.
 */

#ifndef MINNOW_CPU_OOO_CORE_HH
#define MINNOW_CPU_OOO_CORE_HH

#include <cstdint>

#include "base/bits.hh"
#include "base/ckpt.hh"
#include "base/ring_queue.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"

namespace minnow::timeline
{
class Timeline;
}

namespace minnow::cpu
{

/** Classes of conditional branches with distinct predictability. */
enum class BranchKind
{
    Loop,           //!< loop back-edges; TAGE nearly always right.
    DataDependent,  //!< compares on freshly loaded graph data.
};

/** Execution phase for cycle attribution (Fig. 5). */
enum class Phase
{
    App,       //!< user operator work.
    Worklist,  //!< scheduler enqueue/dequeue/steal work.
    Idle,      //!< blocked waiting for work.
};

/** Extra metadata attached to a load micro-op. */
struct LoadInfo
{
    std::uint16_t site = 0;    //!< load-site tag (PC proxy).
    std::uint64_t value = 0;   //!< functional value (IMP training).
    bool hasValue = false;
    bool delinquent = false;   //!< first access to a node/edge.
};

/** Per-phase cycle/uop accounting. */
struct PhaseStats
{
    Cycle cycles = 0;
    std::uint64_t uops = 0;
};

/** Aggregated core statistics. */
struct CoreStats
{
    std::uint64_t uops = 0;
    std::uint64_t loads = 0;
    std::uint64_t cheapLoads = 0;
    std::uint64_t delinquentLoads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    Cycle branchStallCycles = 0;
    Cycle fenceStallCycles = 0;
    Cycle robStallCycles = 0;
    PhaseStats phases[3];
};

/**
 * Sliding window of (index -> time) used to model a fixed-capacity
 * in-order-allocated structure (ROB, RS, LQ, SQ). Entries are pushed
 * in index order as (count, time) segments; timeAt() queries are
 * monotonically nondecreasing in index, so lookups pop from the
 * front and the whole structure is O(1) amortized. Segments live in
 * a RingQueue, which stops allocating once it reaches the window's
 * high-water mark.
 */
class SegmentedWindow
{
  public:
    /** Record @p count consecutive entries carrying time @p t. */
    void
    push(std::uint64_t count, Cycle t)
    {
        if (count == 0)
            return;
        std::uint64_t end = tail_ + count;
        if (!segs_.empty() && segs_.back().time == t)
            segs_.back().end = end;
        else
            segs_.push_back({end, t});
        tail_ = end;
    }

    /**
     * Time recorded for entry @p idx. Queries must be monotonic.
     * Entries below the window (already consumed) report 0.
     */
    Cycle
    timeAt(std::uint64_t idx)
    {
        while (!segs_.empty() && segs_.front().end <= idx) {
            head_ = segs_.front().end;
            segs_.pop_front();
        }
        if (segs_.empty() || idx < head_)
            return 0;
        return segs_.front().time;
    }

    std::uint64_t tail() const { return tail_; }

    /** Segments held (tests). */
    std::size_t segments() const { return segs_.size(); }

    /** Serialize segments (count, then each) and cursors. */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(std::uint64_t(segs_.size()));
        for (std::size_t i = 0; i < segs_.size(); ++i) {
            ck.io(segs_.at(i).end);
            ck.io(segs_.at(i).time);
        }
        ck.io(head_);
        ck.io(tail_);
    }

  private:
    struct Segment
    {
        std::uint64_t end; //!< one past the last entry of the run.
        Cycle time;
    };

    RingQueue<Segment> segs_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

/** The per-core OOO timing model. */
class OooCore
{
  public:
    OooCore(CoreId id, const CoreParams &params,
            mem::MemorySystem *memory, std::uint64_t seed);

    /**
     * Issue a load. @p dep is the ready cycle of its address operand
     * (0 if none). Returns the cycle the value is available.
     */
    Cycle load(Addr addr, Cycle dep = 0, const LoadInfo &info = {});

    /**
     * Account @p n always-L1-hit loads (stack traffic, register
     * spills, secondary structure fields). They consume frontend
     * bandwidth, ROB and LQ entries but do not access the hierarchy.
     */
    void cheapLoads(std::uint32_t n);

    /** Issue a store; returns its completion (visibility) cycle. */
    Cycle store(Addr addr, Cycle dep = 0);

    /**
     * Issue an atomic read-modify-write. Applies fence semantics when
     * enabled. Returns the cycle the old value is available; younger
     * ops are gated behind it.
     */
    Cycle atomic(Addr addr, Cycle dep = 0);

    /** Account @p n single-cycle ALU micro-ops. */
    void compute(std::uint32_t n, Cycle dep = 0);

    /**
     * Resolve a conditional branch whose input is ready at @p dep.
     * Draws a deterministic misprediction by kind; on mispredict the
     * frontend restarts at resolve + penalty. Returns resolve cycle.
     */
    Cycle branch(BranchKind kind, Cycle dep);

    /** Frontend position: earliest cycle the next uop can dispatch. */
    Cycle frontier() const;

    /** Cycle by which everything issued so far has completed. */
    Cycle drain() const;

    /** Jump the frontend forward (core sat idle until @p t). */
    void idleUntil(Cycle t);

    /** Switch attribution phase; deltas accrue to the current one. */
    void setPhase(Phase p);
    Phase phase() const { return phase_; }

    /**
     * Attach the machine's timeline: every phase switch then emits a
     * residency span on @p track covering the frontier window spent
     * in the outgoing phase (the frontier only moves forward, so it
     * is a valid span clock). Null detaches.
     */
    void bindTimeline(timeline::Timeline *tl, std::uint32_t track);

    CoreId id() const { return id_; }
    const CoreStats &stats() const { return stats_; }

    /**
     * Register this core's counters into @p g as dump-time formulas
     * over the live CoreStats (no hot-path cost).
     */
    void registerStats(StatsGroup &g);

    /**
     * Serialize the analytic pipeline state: RNG, frontend cursors,
     * occupancy windows, phase accounting and stats: everything here
     * is value state, so the witness compares all of it.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        rng_.checkpoint(ck);
        ck.io(feCycle_);
        ck.io(feSlot_);
        ck.io(minIssue_);
        ck.io(maxMemComplete_);
        ck.io(retireCursor_);
        ck.io(uopIndex_);
        ck.io(loadIndex_);
        ck.io(storeIndex_);
        robWindow_.checkpoint(ck);
        rsWindow_.checkpoint(ck);
        lqWindow_.checkpoint(ck);
        sqWindow_.checkpoint(ck);
        ck.io(phase_);
        ck.io(stats_);
        ck.io(tlPhaseStart_);
        ck.transient("id_ params_ width_ memory_ tl_ tlTrack_");
    }

  private:
    /**
     * Common dispatch bookkeeping for a run of @p n uops whose
     * issue also depends on @p dep. Returns the issue cycle.
     */
    Cycle dispatch(std::uint32_t n, Cycle dep);

    /** Record completion of the current uop run. */
    void complete(std::uint32_t n, Cycle t);

    /** Track a load/store entry in its queue window. */
    Cycle lqConstraint();
    Cycle sqConstraint();

    /** Charge elapsed frontier time to the current phase. */
    void accrue(Cycle before, std::uint32_t uops);

    CoreId id_;
    CoreParams params_;
    Divisor width_; //!< dispatch width, divided by multiplication.
    mem::MemorySystem *memory_;
    Rng rng_;

    /**
     * Frontend position: the next uop dispatches in slot feSlot_
     * (< dispatch width) of cycle feCycle_.
     */
    Cycle feCycle_ = 0;
    std::uint32_t feSlot_ = 0;
    Cycle minIssue_ = 0;        //!< serialization floor.
    Cycle maxMemComplete_ = 0;  //!< latest load/store completion.
    Cycle retireCursor_ = 0;    //!< in-order retirement clock.

    std::uint64_t uopIndex_ = 0;
    std::uint64_t loadIndex_ = 0;
    std::uint64_t storeIndex_ = 0;

    SegmentedWindow robWindow_;  //!< uop idx -> retire time.
    SegmentedWindow rsWindow_;   //!< uop idx -> completion time.
    SegmentedWindow lqWindow_;   //!< load idx -> completion time.
    SegmentedWindow sqWindow_;   //!< store idx -> completion time.

    Phase phase_ = Phase::App;
    CoreStats stats_;

    timeline::Timeline *tl_ = nullptr; //!< phase-span sink (or null).
    std::uint32_t tlTrack_ = 0;
    Cycle tlPhaseStart_ = 0; //!< frontier when phase_ was entered.
};

} // namespace minnow::cpu

#endif // MINNOW_CPU_OOO_CORE_HH
