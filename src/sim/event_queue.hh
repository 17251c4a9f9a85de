/**
 * @file
 * Deterministic discrete-event engine.
 *
 * The whole simulation is single-host-threaded: simulated cores,
 * Minnow engines, and DRAM callbacks are all events on this queue.
 * Events at equal cycles fire in scheduling order, so runs are
 * bit-exact reproducible.
 *
 * Two event flavours are supported: resuming a suspended C++20
 * coroutine (the common case: a simulated thread waiting for memory),
 * and calling a plain function pointer with a context argument.
 *
 * Implementation: a hierarchical timing wheel rather than a binary
 * heap. Almost every event in this simulator is scheduled a small,
 * bounded number of cycles ahead (fixed L1/L2/L3/NoC/engine
 * latencies, all well under 1024), so events within the next
 * kWheelBuckets cycles go straight into a bucket indexed by
 * `when mod kWheelBuckets` — O(1) schedule, O(1) amortized pop, and
 * the bucket vectors recycle their storage so steady-state
 * scheduling performs zero allocation. Rare far-future events
 * (watchdog ticks, fault timers, stats-sampling intervals) sit in a
 * small overflow min-heap keyed by (when, seq) and migrate into the
 * wheel when the clock comes within the horizon. See DESIGN.md
 * "Event queue" for the geometry and the determinism argument.
 */

#ifndef MINNOW_SIM_EVENT_QUEUE_HH
#define MINNOW_SIM_EVENT_QUEUE_HH

#include <array>
#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "base/ckpt.hh"
#include "base/logging.hh"
#include "base/types.hh"

namespace minnow
{

class HostProfiler;

/** Global discrete-event queue; owns simulated time. */
class EventQueue
{
  public:
    using Callback = void (*)(void *);

    /**
     * Wheel geometry: the near-horizon window, in cycles. Power of
     * two so the bucket index is a mask. 1024 comfortably covers
     * every fixed latency in the machine model (DRAM access ~120 +
     * queueing, sync quantum 400); only multi-thousand-cycle timers
     * overflow.
     */
    static constexpr std::size_t kWheelBuckets = 1024;

    EventQueue() { occupied_.fill(0); }
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /** Stable reference to the clock (debug-trace timestamping). */
    const Cycle &nowRef() const { return now_; }

    /** Schedule a coroutine to resume at the given absolute cycle. */
    void
    schedule(Cycle when, std::coroutine_handle<> coro)
    {
        scheduleCompact(when, Compact{nullptr, coro.address()});
    }

    /** Schedule a callback at the given absolute cycle. */
    void
    schedule(Cycle when, Callback fn, void *arg)
    {
        scheduleCompact(when, Compact{fn, arg});
    }

    /**
     * True when nothing remains to execute. The event currently
     * being executed does not count as pending.
     */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /**
     * Daemon accounting for periodic housekeeping events (the stats
     * and timeline samplers, the watchdog). A daemon re-arms itself
     * only while real work remains — but "real work" must exclude
     * the other daemons, or any two of them keep each other alive
     * and run() never drains. Protocol: call daemonScheduled() when
     * scheduling the event, daemonFired() first thing in its
     * handler, and re-arm only while quiescent() is false.
     */
    void daemonScheduled() { ++daemons_; }

    void
    daemonFired()
    {
        panic_if(daemons_ == 0, "daemonFired with no daemon pending");
        --daemons_;
    }

    /** True when only daemon (housekeeping) events remain pending. */
    bool quiescent() const { return size_ <= daemons_; }

    /** Cycle of the earliest pending event (now() when empty). */
    Cycle headTime() const;

    /**
     * Install a hook invoked when run() gives up with work still
     * queued (event-budget exhaustion). The Machine points this at
     * the watchdog's structured diagnostic dump so a timed-out run
     * leaves the same post-mortem as a hung one.
     */
    void
    setDiagnosticHook(std::function<void(const char *)> hook)
    {
        diagHook_ = std::move(hook);
    }

    /**
     * Attach the host-side self-profiler (null detaches). When set,
     * run() reports per-event counts, wall-clock run time and
     * periodic queue-occupancy samples to it.
     */
    void setHostProfiler(HostProfiler *p) { prof_ = p; }

    /**
     * Run events until the queue drains, stop() is called, or the
     * event budget is exhausted (a runaway-simulation guard).
     * Events on the queue must not call run() themselves.
     *
     * @param maxEvents Abort the run after this many events; 0 means
     *                  unlimited.
     * @return Number of events executed.
     */
    std::uint64_t run(std::uint64_t maxEvents = 0);

    /** Ask run() to return after the current event completes. */
    void stop() { stopped_ = true; }

    /** True if stop() ended the last run() call. */
    bool stopped() const { return stopped_; }

    /** Events fully executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * One-shot: stop run() at the first event boundary where
     * now() >= @p when. The check runs at the top of the run loop —
     * between events, never from inside one, and scheduling
     * nothing — so arming it perturbs no event ordering, sequence
     * numbers, or daemon accounting, and the caller may simply call
     * run() again to continue. The `--checkpoint-after=N` save arms
     * it at N; 0 fires before the first event.
     */
    void
    setStopTrigger(Cycle when)
    {
        stopAtCycle_ = when;
        stopTriggerArmed_ = true;
        stopTriggerFired_ = false;
        triggersArmed_ = true;
    }

    /** True once the stop trigger has halted a run(). */
    bool stopTriggerFired() const { return stopTriggerFired_; }

    /** Consume the fired flag so a resume loop can run() again. */
    void ackStopTrigger() { stopTriggerFired_ = false; }

    /**
     * Point the run loop at a signal-handler flag (null detaches).
     * The flag is polled every 1024 events; when it becomes nonzero,
     * run() returns at the next event boundary with interrupted()
     * true so the caller can flush its output. Polling at event
     * boundaries keeps the interrupted prefix of the run
     * bit-identical to an uninterrupted one. The flag is atomic
     * because the handler and the --host-par farm threads polling it
     * are different host threads.
     */
    void
    // LINT-OK(host-threading): lock-free signal flag, read-only here
    setInterruptSource(const std::atomic<int> *src)
    {
        interruptSource_ = src;
        triggersArmed_ = true;
    }

    /** True if the interrupt source ended the last run() call. */
    bool interrupted() const { return interrupted_; }

    /**
     * Serialize the deterministic scheduling coordinates: the
     * clock, pending/daemon counts and the executed-event count.
     * The events themselves (bucket and heap contents) hold
     * coroutine addresses and cannot be serialized; two runs that
     * save at the same anchor reach the same coordinates, and this
     * section is the witness they are compared by (DESIGN.md
     * section 5i). The intra-bucket drain position and
     * the overflow tie-break are queue layout, not coordinates, and
     * do not travel.
     */
    void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(now_);
        ck.io(std::uint64_t(size_));
        ck.io(std::uint64_t(daemons_));
        ck.io(executed_);
        ck.transient("buckets_ occupied_ far_ cursor_ farSeq_"
                     " stopped_ running_ diagHook_ prof_"
                     " interrupted_ interruptSource_ triggersArmed_"
                     " stopAtCycle_ stopTriggerArmed_"
                     " stopTriggerFired_");
    }

  private:
    static constexpr std::size_t kWheelMask = kWheelBuckets - 1;
    static constexpr std::size_t kWheelWords = kWheelBuckets / 64;

    /**
     * 16-byte tagged event payload: fn == nullptr means arg is the
     * address of a coroutine to resume, otherwise fn(arg) is called.
     * Bucket entries carry no timestamp (the bucket implies it) and
     * no sequence number (bucket position is scheduling order).
     */
    struct Compact
    {
        Callback fn;
        void *arg;
    };

    /** Overflow entry: far-future events keep an explicit key. */
    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        Compact ev;

        bool
        operator>(const FarEvent &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    using Bucket = std::vector<Compact>;

    void
    scheduleCompact(Cycle when, Compact ev)
    {
        panic_if(when < now_, "scheduling into the past (%llu < %llu)",
                 (unsigned long long)when, (unsigned long long)now_);
        if (when - now_ < kWheelBuckets) {
            std::size_t idx = std::size_t(when) & kWheelMask;
            buckets_[idx].push_back(ev);
            occupied_[idx >> 6] |= std::uint64_t(1) << (idx & 63);
        } else {
            far_.push(FarEvent{when, farSeq_++, ev});
        }
        ++size_;
    }

    /** Advance now_ to the next pending event's cycle. */
    void advance();

    /**
     * Cold path for the loop-top trigger/interrupt checks; returns
     * true when the interrupt source asks run() to stop.
     */
    bool pollTriggers();

    /**
     * Earliest occupied bucket cycle strictly after now_. At least
     * one wheel event beyond now_ must exist.
     */
    Cycle nextWheelTime() const;

    std::array<Bucket, kWheelBuckets> buckets_;
    /** One bit per bucket; scan via std::countr_zero. */
    std::array<std::uint64_t, kWheelWords> occupied_;
    std::priority_queue<FarEvent, std::vector<FarEvent>,
                        std::greater<>>
        far_;

    Cycle now_ = 0;
    std::size_t size_ = 0;   //!< total pending events (wheel + far)
    std::size_t daemons_ = 0; //!< pending daemon events (<= size_)
    std::size_t cursor_ = 0; //!< drain position in the now_ bucket
    std::uint64_t farSeq_ = 0;
    bool stopped_ = false;
    bool running_ = false; //!< run() re-entrancy guard
    std::function<void(const char *)> diagHook_;
    HostProfiler *prof_ = nullptr;

    std::uint64_t executed_ = 0; //!< events fully executed
    bool interrupted_ = false;
    /** True while the stop trigger or an interrupt source is armed. */
    bool triggersArmed_ = false;
    // LINT-OK(host-threading): see setInterruptSource
    const std::atomic<int> *interruptSource_ = nullptr;
    Cycle stopAtCycle_ = 0;
    bool stopTriggerArmed_ = false;
    bool stopTriggerFired_ = false;
};

} // namespace minnow

#endif // MINNOW_SIM_EVENT_QUEUE_HH
