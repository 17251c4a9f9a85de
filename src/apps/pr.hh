/**
 * @file
 * Data-driven, push-based PageRank (Whang et al., Euro-Par'15), the
 * paper's PR workload. Each task drains a node's residual into its
 * out-neighbours with one atomic add per edge — the unconditional
 * atomic stream that makes PR fence-bound in Figs. 4-5. Work is
 * prioritized by descending residual.
 */

#ifndef MINNOW_APPS_PR_HH
#define MINNOW_APPS_PR_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Push-based data-driven PageRank. */
class PrApp : public App
{
  public:
    /**
     * @param g       Input (directed) graph.
     * @param alpha   Damping factor (0.85 in the literature).
     * @param epsilon Residual threshold for generating work.
     * @param split   Task-splitting threshold.
     */
    PrApp(const graph::CsrGraph *g, double alpha, double epsilon,
          std::uint32_t split)
        : App(g, split), alpha_(alpha), epsilon_(epsilon)
    {
        reset();
    }

    std::string name() const override { return "pr"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    const std::vector<double> &ranks() const { return rank_; }

    /** Host-side serial push PageRank to the same epsilon. */
    std::vector<double> referenceRanks() const;

    std::function<bool(const WorkItem &)>
    staleTaskPredicate() const override
    {
        const std::vector<double> *residual = &residual_;
        double eps = epsilon_;
        return [residual, eps](const WorkItem &item) {
            return (*residual)[taskNode(item.payload)] < eps;
        };
    }

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(alpha_);
        ck.io(epsilon_);
        ck.io(rank_);
        ck.io(residual_);
    }

  private:
    /** Priority: descending residual, discretized. */
    std::int64_t priorityOf(double residual) const;

    double alpha_;
    double epsilon_;
    std::vector<double> rank_;
    std::vector<double> residual_;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_PR_HH
