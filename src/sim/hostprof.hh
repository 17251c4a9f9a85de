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
 * One Machine runs on one host thread. The active profiler is
 * thread-local because the --host-par point farm (DESIGN.md 5j) runs
 * one Machine per host thread, and their scopes must not cross-talk.
 * When no profiler is active (the default), HostProfScope costs one
 * thread-local load and a predictable branch.
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

    /** The calling thread's profiler for HostProfScope (null when
     *  disabled). */
    static HostProfiler *active() { return active_; }

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

    /** Host ns attributed to @p c. */
    std::uint64_t
    classNs(HostClass c) const
    {
        return classNs_[std::size_t(c)];
    }

    /** Instrumented calls into @p c. */
    std::uint64_t
    classCalls(HostClass c) const
    {
        return classCalls_[std::size_t(c)];
    }

  private:
    static constexpr std::uint64_t kOccupancyPeriod = 64;
    static constexpr std::size_t kMaxDepth = 64;

    static std::uint64_t nowNs();

    static thread_local HostProfiler *active_;
    HostProfiler *prev_ = nullptr;
    bool activated_ = false;

    std::uint64_t events_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t runNs_ = 0;
    std::uint64_t runStart_ = 0;
    bool inRun_ = false;

    std::uint64_t classNs_[std::size_t(HostClass::kNumClasses)] = {};
    std::uint64_t classCalls_[std::size_t(HostClass::kNumClasses)] =
        {};
    /** Open scopes' classes, innermost last. */
    std::uint8_t stack_[kMaxDepth] = {};
    std::size_t depth_ = 0;
    std::uint64_t sliceStart_ = 0;

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
