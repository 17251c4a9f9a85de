/**
 * @file
 * Canonical-order weave driver for the per-shard timing wheels
 * (--shards=N; DESIGN.md section 5j).
 *
 * Each shard owns a 1024-bucket EventQueue wheel holding the events
 * of its core slice (cores, L2 traffic initiators, Minnow engines);
 * machine-global components (work monitor, samplers, watchdog,
 * fault timers) live on shard 0's wheel. Every schedule on any
 * wheel draws a tag from one machine-global sequence counter, and
 * the scheduler executes events in exact (cycle, seq) order by a
 * k-way merge across the wheels — the same total order the
 * single-wheel path produces, by construction, which is what keeps
 * --shards=1 and --shards=N byte-identical in stats, timeline and
 * checkpoint witnesses.
 *
 * Handler execution is therefore serialized on the weave leader
 * (the simulator's semantics are defined by exact global event
 * order: handlers read shared functional state and the analytic
 * memory system mutates shared L3/directory/NoC state in call
 * order). No host threads run beside it; host parallelism comes
 * from the --host-par point farm (task_farm.hh).
 *
 * The run()/stop-trigger/interrupt protocol mirrors EventQueue
 * exactly (same budget accounting, same every-1024-events interrupt
 * poll cadence), so the galois executor's resume loop drives either
 * engine through the Machine wrappers without behavioral skew.
 */

#ifndef MINNOW_SIM_PARALLEL_SHARDED_SCHEDULER_HH
#define MINNOW_SIM_PARALLEL_SHARDED_SCHEDULER_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace minnow::parallel
{

/** Drives N seq-tagged shard wheels in global (cycle, seq) order. */
class ShardedScheduler final : public QuiescenceProbe
{
  public:
    /**
     * @param wheels One EventQueue per shard; wheel 0 carries the
     *               canonical clock and the machine-global events.
     *               The scheduler attaches its sequence counter and
     *               quiescence probe to every wheel.
     */
    explicit ShardedScheduler(std::vector<EventQueue *> wheels);

    ShardedScheduler(const ShardedScheduler &) = delete;
    ShardedScheduler &operator=(const ShardedScheduler &) = delete;

    /** Current simulated cycle (all wheels advance in lockstep). */
    Cycle now() const { return wheels_[0]->now(); }

    /** Pending events summed over every wheel. */
    std::size_t pending() const;

    /** Pending daemon events summed over every wheel. */
    std::size_t daemonsPending() const;

    /** Earliest pending event cycle over all wheels (now() when
     *  everything is drained); the sharded headTime(). */
    Cycle headTime() const;

    /** Group-wide "only daemons remain" (wheels delegate here). */
    bool quiescent() const override;

    /** Events fully executed by the weave. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events in global order until all wheels drain, stop() is
     * called, or the budget is exhausted; mirrors EventQueue::run.
     */
    std::uint64_t run(std::uint64_t maxEvents = 0);

    void stop() { stopped_ = true; }
    bool stopped() const { return stopped_; }

    /** One-shot reproducible stop; see EventQueue::setStopTrigger. */
    void
    setStopTrigger(Cycle when, std::uint64_t execCount)
    {
        stopAtCycle_ = when;
        stopAtExec_ = execCount;
        stopTriggerArmed_ = true;
        stopTriggerFired_ = false;
        triggersArmed_ = true;
    }

    bool stopTriggerFired() const { return stopTriggerFired_; }
    void ackStopTrigger() { stopTriggerFired_ = false; }

    void
    setInterruptSource(const volatile std::sig_atomic_t *src)
    {
        interruptSource_ = src;
        triggersArmed_ = true;
    }

    bool interrupted() const { return interrupted_; }

    void
    setDiagnosticHook(std::function<void(const char *)> hook)
    {
        diagHook_ = std::move(hook);
    }

    void setHostProfiler(HostProfiler *p) { prof_ = p; }

  private:
    bool pollTriggers();

    /**
     * All buckets at the current cycle are drained: recycle them,
     * advance every wheel to the globally earliest pending cycle
     * and migrate newly in-horizon overflow events per wheel.
     */
    void advanceAll();

    std::vector<EventQueue *> wheels_;
    std::uint64_t seq_ = 0; //!< machine-global schedule counter.

    std::uint64_t executed_ = 0;
    bool stopped_ = false;
    bool running_ = false;
    bool interrupted_ = false;
    bool triggersArmed_ = false;
    const volatile std::sig_atomic_t *interruptSource_ = nullptr;
    Cycle stopAtCycle_ = 0;
    std::uint64_t stopAtExec_ = 0;
    bool stopTriggerArmed_ = false;
    bool stopTriggerFired_ = false;
    std::function<void(const char *)> diagHook_;
    HostProfiler *prof_ = nullptr;
};

} // namespace minnow::parallel

#endif // MINNOW_SIM_PARALLEL_SHARDED_SCHEDULER_HH
