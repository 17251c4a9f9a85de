/**
 * @file
 * Connected components via non-blocking minimum-label propagation
 * (Nguyen et al., SOSP'13), prioritized by ascending component id as
 * in the paper. Tasks are tiny — one label compare per edge — which
 * is what makes CC the most worklist-bound workload in Fig. 5.
 */

#ifndef MINNOW_APPS_CC_HH
#define MINNOW_APPS_CC_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Min-label propagation connected components. */
class CcApp : public App
{
  public:
    CcApp(const graph::CsrGraph *g, std::uint32_t split)
        : App(g, split)
    {
        reset();
    }

    std::string name() const override { return "cc"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    const std::vector<NodeId> &labels() const { return label_; }

    /** Host union-find reference labels (min node id per set). */
    std::vector<NodeId> referenceLabels() const;

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(label_);
    }

  private:
    std::vector<NodeId> label_;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_CC_HH
