/**
 * @file
 * The one definition of where a worker's cycles go, per task, under
 * every executor: Galois software worklists, Minnow offload and BSP
 * (DESIGN.md section 5c defines the four metrics).
 *
 * The probe owns the always-on "tasks" stats group. It is the only
 * code that samples its histograms, draws the matching spans on each
 * core's timeline task track, and makes the attribution lineage
 * calls for push and dequeue; worker loops, task sinks and the
 * Minnow engine's park report to it and do nothing else.
 */

#ifndef MINNOW_RUNTIME_TASK_PROBE_HH
#define MINNOW_RUNTIME_TASK_PROBE_HH

#include <cstdint>
#include <cstdio>

#include "base/stats.hh"
#include "base/types.hh"
#include "mem/attribution.hh"
#include "sim/timeline.hh"

namespace minnow::runtime
{

/** Per-task cycle probe (owned by the Machine). */
class TaskProbe
{
  public:
    /**
     * @param reg  registry receiving the "tasks" group.
     * @param now  simulated clock (the EventQueue's now).
     * @param tl   timeline for task-track spans (null: none).
     * @param attr lineage tracker (null: --attribution off).
     */
    TaskProbe(StatsRegistry &reg, const Cycle *now,
              timeline::Timeline *tl, mem::Attribution *attr)
        : now_(now), tl_(tl), attr_(attr), statsClaim_(reg, "tasks")
    {
        static constexpr const char *kNames[kNum] = {
            "popWait", "dequeue", "execute", "push",
        };
        static constexpr const char *kDescs[kNum] = {
            "cycles parked with no work, per park that ends with work",
            "cycles from the start of a pop to having the task, per"
            " task",
            "cycles running the operator plus sync, per task",
            "cycles inside push/minnow_enqueue, per push",
        };
        StatsGroup &g = reg.freshGroup("tasks");
        for (int m = 0; m < kNum; ++m) {
            HistogramStat &h = g.histogram(kNames[m], kDescs[m], 64, 256);
            hist_[m] = &h;
            for (double frac : {0.50, 0.95, 0.99}) {
                char name[32];
                std::snprintf(name, sizeof(name), "%sP%.0f", kNames[m],
                              frac * 100);
                g.formula(name, "task-latency percentile (cycles)",
                          [&h, frac] {
                              return double(h.percentile(frac));
                          });
            }
        }
    }

    TaskProbe(const TaskProbe &) = delete;
    TaskProbe &operator=(const TaskProbe &) = delete;

    /** @p core parked with no work from @p start and woke with work. */
    void
    popWait(CoreId core, Cycle start)
    {
        record(kPopWait, core, start, timeline::Name::PopWait);
    }

    /** @p core holds task @p lineage now, from a pop begun at @p start. */
    void
    dequeued(CoreId core, std::uint64_t lineage, Cycle start)
    {
        if (attr_)
            attr_->taskDequeued(core, lineage, *now_);
        record(kDequeue, core, start, timeline::Name::Dequeue);
    }

    /** @p core ran one operator (plus its sync) from @p start. */
    void
    executed(CoreId core, Cycle start)
    {
        record(kExecute, core, start, timeline::Name::Task);
    }

    /** @p core starts a push now; @return the lineage to stamp on
     *  the pushed task (0 with --attribution off). */
    std::uint64_t
    pushStarted(CoreId core)
    {
        return attr_ ? attr_->pushTask(core, *now_) : 0;
    }

    /**
     * @p core's push of task @p lineage, begun at @p start, returned.
     * @p enqueued: the task sits in its queue now (software
     * worklists; the Minnow engine reports its own enqueue).
     */
    void
    pushed(CoreId core, std::uint64_t lineage, Cycle start,
           bool enqueued)
    {
        if (enqueued && attr_)
            attr_->taskEnqueued(lineage, *now_);
        record(kPush, core, start, timeline::Name::Push);
    }

  private:
    enum Metric
    {
        kPopWait,
        kDequeue,
        kExecute,
        kPush,
        kNum,
    };

    void
    record(Metric m, CoreId core, Cycle start, timeline::Name span)
    {
        Cycle end = *now_;
        hist_[m]->sample(end - start);
        if (tl_)
            tl_->span(tl_->coreTaskTrack(core), span, start, end);
    }

    const Cycle *now_;
    timeline::Timeline *tl_;
    mem::Attribution *attr_;
    HistogramStat *hist_[kNum] = {};
    /** The "tasks" group: its formulas capture the histograms. */
    StatsClaim statsClaim_;
};

} // namespace minnow::runtime

#endif // MINNOW_RUNTIME_TASK_PROBE_HH
