/**
 * @file
 * Maximal independent set — one of the "other classes of irregular
 * workloads" the paper's conclusion targets for Minnow.
 *
 * Deterministic dataflow formulation of the greedy lexicographic
 * MIS: a node may decide once every lower-id neighbour has decided;
 * it joins the set iff none of those neighbours joined. Each
 * decision releases the node's higher-id neighbours by decrementing
 * their wait counts (an atomic per edge to a higher neighbour), so
 * tasks flow through the worklist exactly like the paper's
 * benchmark operators — and the result equals the serial greedy MIS
 * bit for bit under any schedule.
 */

#ifndef MINNOW_APPS_MIS_HH
#define MINNOW_APPS_MIS_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Greedy lexicographic maximal independent set (dataflow). */
class MisApp : public App
{
  public:
    MisApp(const graph::CsrGraph *g, std::uint32_t split)
        : App(g, split)
    {
        reset();
    }

    std::string name() const override { return "mis"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    const std::vector<std::uint8_t> &inSet() const { return in_; }
    std::uint64_t setSize() const;

    /** Serial greedy reference (identical by construction). */
    std::vector<std::uint8_t> referenceSet() const;

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(in_);
        ck.io(blocked_);
        ck.io(waits_);
    }

  private:
    std::vector<std::uint8_t> in_;       //!< 1 if in the MIS.
    std::vector<std::uint8_t> blocked_;  //!< lower neighbour joined.
    std::vector<std::uint32_t> waits_;   //!< undecided lower nbrs.
};

} // namespace minnow::apps

#endif // MINNOW_APPS_MIS_HH
