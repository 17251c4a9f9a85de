/**
 * @file
 * Triangle counting with the node-iterator-hashed algorithm (Schank):
 * for every node v and ordered neighbour pair u < w, test edge (u, w)
 * by binary search in u's (sorted) adjacency list. No atomics, no
 * dynamically generated work, no useful priority order — the paper's
 * least worklist-bound workload, and the one with a custom Minnow
 * prefetch function that also chases neighbour adjacency lists.
 *
 * Per Section 6.2 the TC node record is 64 bytes (all others are 32).
 */

#ifndef MINNOW_APPS_TC_HH
#define MINNOW_APPS_TC_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Node-iterator-hashed triangle counting. */
class TcApp : public App
{
  public:
    TcApp(const graph::CsrGraph *g, std::uint32_t split)
        : App(g, split)
    {
        reset();
    }

    std::string name() const override { return "tc"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;
    bool prefetchChasesAdjacency() const override { return true; }

    std::uint64_t triangles() const { return triangles_; }

    /** Host-side count (same algorithm, serial). */
    std::uint64_t referenceTriangles() const;

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(triangles_);
    }

  private:
    std::uint64_t triangles_ = 0;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_TC_HH
