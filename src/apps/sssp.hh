/**
 * @file
 * Single-source shortest path (delta-stepping, Fig. 1 of the paper)
 * and BFS (the unit-weight special case, covering the BFS and G500
 * workloads).
 *
 * The operator mirrors the paper's Fig. 1 pseudocode: load the
 * node, walk its edges, relax each destination with an atomic
 * minimum, and enqueue improved destinations with their new distance
 * as priority. Work efficiency therefore depends on the worklist's
 * priority order — the Section 3.1 story.
 */

#ifndef MINNOW_APPS_SSSP_HH
#define MINNOW_APPS_SSSP_HH

#include <limits>
#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Delta-stepping SSSP / push-based BFS operator. */
class SsspApp : public App
{
  public:
    static constexpr std::uint32_t kInf =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * @param g           Input graph.
     * @param source      Source node.
     * @param unitWeights Ignore edge weights (BFS/G500 mode).
     * @param split       Task-splitting threshold in edges.
     * @param label       Workload name for reports.
     */
    SsspApp(const graph::CsrGraph *g, NodeId source,
            bool unitWeights, std::uint32_t split,
            std::string label)
        : App(g, split),
          source_(source),
          unitWeights_(unitWeights),
          label_(std::move(label))
    {
        reset();
    }

    std::string name() const override { return label_; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    const std::vector<std::uint32_t> &distances() const
    {
        return dist_;
    }

    /** Host-side Dijkstra for verification and tests. */
    std::vector<std::uint32_t> referenceDistances() const;

    std::function<bool(const WorkItem &)>
    staleTaskPredicate() const override
    {
        const std::vector<std::uint32_t> *dist = &dist_;
        return [dist](const WorkItem &item) {
            std::uint32_t d = (*dist)[taskNode(item.payload)];
            return d != kInf && std::uint64_t(item.priority) > d;
        };
    }

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(source_);
        ck.io(unitWeights_);
        ck.io(label_);
        ck.io(dist_);
    }

  private:
    NodeId source_;
    bool unitWeights_;
    std::string label_;
    std::vector<std::uint32_t> dist_;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_SSSP_HH
