/**
 * @file
 * Host-side self-profiling: how fast is the *simulator* running?
 *
 * Enabled with --host-profile. Measures, on the host wall clock:
 *
 *  - events/sec through the EventQueue (the universal currency of
 *    simulation speed) and total run() wall time,
 *  - host nanoseconds attributed per component class — core timing
 *    model, memory hierarchy, Minnow engines, worklist — via
 *    HostProfScope markers placed in the synchronous entry points of
 *    each component,
 *  - a queue-occupancy histogram (sampled every 64th event).
 *
 * Everything is exported through the existing StatsRegistry JSON
 * path as the "hostprof" group, so `--stats-json` dumps carry it and
 * scripts/bench_simspeed.py can harvest it.
 *
 * Attribution is exclusive: while a nested scope (e.g. the memory
 * system called from a core) is open, the outer class's clock is
 * paused. Time inside run() not covered by any scope (coroutine
 * resumption glue, the scheduler itself) shows up as "otherNs".
 *
 * IMPORTANT: a HostProfScope must never live across a co_await —
 * host time spent while the coroutine is suspended would be
 * misattributed. Only synchronous functions are instrumented.
 *
 * Sharded-host mode (--shards=N, DESIGN.md 5j): the ShardPool's
 * worker threads attribute into per-lane counter banks. Each host
 * thread is bound to a lane with setThreadLane() once at spawn, and
 * the pool attaches the machine's profiler to a worker for exactly
 * the span of each fork-join job with setThreadActive(); the active
 * pointer is thread-local so an idle worker costs nothing and a
 * foreign Machine's scopes never cross-talk. Lane banks are
 * cache-line separated and merged only at report time, in lane
 * order, by the stats formulas (which run on the leader). The
 * barrierWaitNs stat reads 0: no Machine hands work to a pool any
 * more (ROADMAP item 1 removes it). When no profiler is active (the
 * default), HostProfScope costs one thread-local load and a
 * predictable branch.
 */

#ifndef MINNOW_SIM_HOSTPROF_HH
#define MINNOW_SIM_HOSTPROF_HH

#include <cstddef>
#include <cstdint>

#include "base/stats.hh"

namespace minnow
{

/** Component classes host time is attributed to. */
enum class HostClass : std::uint8_t
{
    Core = 0, //!< OOO core timing model
    Memory,   //!< caches + directory + NoC + DRAM
    Engine,   //!< Minnow engines (threadlets, credits, local queue)
    Worklist, //!< software worklists / global queue
    kNumClasses,
};

/** Collects host-speed measurements for one Machine. */
class HostProfiler
{
  public:
    /** Attribution lanes (leader + pool workers); more host threads
     *  than this fold into the last lane. */
    static constexpr std::size_t kMaxLanes = 16;

    HostProfiler() = default;
    ~HostProfiler()
    {
        deactivate();
        // The "hostprof" formulas capture `this`; drop them before
        // the profiler dies (the registry may outlive us).
        if (statsReg_)
            statsReg_->removeGroup(kHostTimeGroup);
    }
    HostProfiler(const HostProfiler &) = delete;
    HostProfiler &operator=(const HostProfiler &) = delete;

    /**
     * Make this the process-wide active profiler picked up by
     * HostProfScope. Nesting-safe: the previously active profiler
     * (if any) is restored by deactivate().
     */
    void activate();

    /** Detach; no-op unless this profiler is the active one. */
    void deactivate();

    /** The profiler HostProfScope reports to (null when disabled).
     *  Thread-local: pool workers see only what setThreadActive()
     *  attached to them. */
    static HostProfiler *active() { return active_; }

    /**
     * Bind the calling host thread to an attribution lane. Called
     * once per ShardPool worker at spawn (lane 0 is the leader and
     * needs no call). Lanes beyond the compiled-in maximum fold into
     * the last lane — attribution stays correct, only per-lane
     * resolution degrades.
     */
    static void
    setThreadLane(std::uint32_t lane)
    {
        threadLane_ = lane < kMaxLanes ? lane : kMaxLanes - 1;
    }

    /**
     * Attach @p p as the calling thread's active profiler for the
     * duration of a pool job (null detaches). Workers call this
     * around each job so scopes inside the job attribute to the
     * owning Machine's profiler; between jobs the thread profiles
     * nothing.
     */
    static void setThreadActive(HostProfiler *p) { active_ = p; }

    // ---- EventQueue side ----

    void beginRun();
    void endRun();

    /** Per-event hook; @p depth is the post-pop queue occupancy. */
    void
    eventTick(std::size_t depth)
    {
        ++events_;
        if ((events_ & (kOccupancyPeriod - 1)) == 0)
            occupancy_.sample(depth);
    }

    // ---- component side (via HostProfScope) ----

    void enter(HostClass c);
    void exit();

    /** Register the "hostprof" group. */
    void registerStats(StatsRegistry &reg);

    std::uint64_t events() const { return events_; }

    /** Total run() wall time so far, live even mid-run. */
    std::uint64_t wallNs() const;

    /** Host ns attributed to @p c, merged over all lanes. */
    std::uint64_t
    classNs(HostClass c) const
    {
        std::uint64_t sum = 0;
        for (std::size_t l = 0; l < kMaxLanes; ++l)
            sum += lanes_[l].classNs[std::size_t(c)];
        return sum;
    }

    /** Instrumented calls into @p c, merged over all lanes. */
    std::uint64_t
    classCalls(HostClass c) const
    {
        std::uint64_t sum = 0;
        for (std::size_t l = 0; l < kMaxLanes; ++l)
            sum += lanes_[l].classCalls[std::size_t(c)];
        return sum;
    }

  private:
    static constexpr std::uint64_t kOccupancyPeriod = 64;
    static constexpr std::size_t kMaxDepth = 64;

    static std::uint64_t nowNs();

    static thread_local HostProfiler *active_;
    static thread_local std::uint32_t threadLane_;
    HostProfiler *prev_ = nullptr;
    bool activated_ = false;

    std::uint64_t events_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t runNs_ = 0;
    std::uint64_t runStart_ = 0;
    bool inRun_ = false;

    /**
     * One attribution bank per host-thread lane. Cache-line
     * separated so concurrent scope bookkeeping on pool workers
     * never false-shares; each lane is only ever written by its own
     * thread, and the merge happens at report time on the leader
     * (after the join barrier, so the values are stable).
     */
    struct alignas(64) Lane
    {
        std::uint64_t classNs[std::size_t(HostClass::kNumClasses)] =
            {};
        std::uint64_t
            classCalls[std::size_t(HostClass::kNumClasses)] = {};
        std::uint8_t stack[kMaxDepth] = {};
        std::size_t depth = 0;
        std::uint64_t sliceStart = 0;
    };
    Lane lanes_[kMaxLanes];

    StatHistogram occupancy_;

    /** Registry holding our "hostprof" group (for dtor removal). */
    StatsRegistry *statsReg_ = nullptr;
};

/**
 * RAII attribution marker. Place at the top of a *synchronous*
 * component entry point; never across a co_await.
 */
class HostProfScope
{
  public:
    explicit HostProfScope(HostClass c) : p_(HostProfiler::active())
    {
        if (p_)
            p_->enter(c);
    }
    ~HostProfScope()
    {
        if (p_)
            p_->exit();
    }
    HostProfScope(const HostProfScope &) = delete;
    HostProfScope &operator=(const HostProfScope &) = delete;

  private:
    HostProfiler *p_;
};

} // namespace minnow

#endif // MINNOW_SIM_HOSTPROF_HH
