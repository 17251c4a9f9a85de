/**
 * @file
 * Worklist abstraction.
 *
 * A worklist stores WorkItems — the paper's task representation of
 * two 64-bit words: an integer priority and a payload pointer
 * (Section 4.1). Software worklist implementations are *simulated*:
 * their push/pop coroutines perform the same instruction mix, memory
 * touches (on arena-shadowed chunk storage) and atomic operations the
 * real scheduler code would, so scheduling overhead, contention and
 * cache pollution all emerge from the machine model rather than from
 * hard-coded constants.
 */

#ifndef MINNOW_WORKLIST_WORKLIST_HH
#define MINNOW_WORKLIST_WORKLIST_HH

#include <cstdint>
#include <string>

#include "base/ckpt.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"

namespace minnow::timeline
{
class Timeline;
} // namespace minnow::timeline

namespace minnow::worklist
{

/** A scheduled task: integer priority + payload (Section 4.1). */
struct WorkItem
{
    std::int64_t priority = 0;
    std::uint64_t payload = 0;

    /**
     * Causal-attribution lineage id (--attribution): the id assigned
     * to this task at push time, 0 for seeds or when attribution is
     * off. Host-side bookkeeping only — it occupies no simulated
     * bytes (kItemBytes stays 16) and does not affect identity, so
     * stale-task comparisons ignore it.
     */
    std::uint64_t lineage = 0;

    bool
    operator==(const WorkItem &o) const
    {
        return priority == o.priority && payload == o.payload;
    }
};

/** Bytes one item occupies in simulated chunk storage. */
constexpr std::uint32_t kItemBytes = 16;

/** Abstract simulated software worklist. */
class Worklist
{
  public:
    virtual ~Worklist() = default;

    /**
     * Attach this worklist's observability group ("worklist") to the
     * machine's registry: a live size formula, plus whatever run
     * counters the executor adds to the returned group. The group is
     * removed when the worklist dies, so formulas capturing `this`
     * cannot dangle in a registry that outlives the run.
     */
    StatsGroup &
    attachStats(StatsRegistry &reg)
    {
        statsClaim_ = StatsClaim(reg, "worklist");
        StatsGroup &g = reg.freshGroup("worklist");
        g.formula("size", "tasks currently queued",
                  [this] { return double(size()); });
        return g;
    }

    /** Timed enqueue executed on the calling worker's core. */
    virtual runtime::CoTask<void> push(runtime::SimContext &ctx,
                                       WorkItem item) = 0;

    /**
     * Timed try-pop. Returns false when no work is obtainable right
     * now (the caller should park on the WorkMonitor).
     */
    virtual runtime::CoTask<bool> pop(runtime::SimContext &ctx,
                                      WorkItem &out) = 0;

    /**
     * Functional-only seeding before simulated time starts; must
     * account the items with the machine's WorkMonitor.
     */
    virtual void pushInitial(WorkItem item) = 0;

    /** Total queued items (functional; for tests and debugging). */
    virtual std::uint64_t size() const = 0;

    /** Scheduler name for reports ("obim", "cfifo", ...). */
    virtual std::string name() const = 0;

    /**
     * Register implementation-specific counter tracks with a run's
     * timeline, owner-tagged `this`. The executor removes every
     * provider owned by this worklist when the run ends, so
     * overrides need no matching teardown.
     */
    virtual void registerTimeline(timeline::Timeline &) {}

    /**
     * Witness serialization of the worklist's logical content, in
     * deterministic order. Chunk-based lists save their logical
     * content, not their pointer structure (DESIGN.md section 5i).
     */
    virtual void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.transient("statsClaim_");
    }

  private:
    StatsClaim statsClaim_;
};

} // namespace minnow::worklist

#endif // MINNOW_WORKLIST_WORKLIST_HH
