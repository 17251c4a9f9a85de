/**
 * @file
 * Bipartite coloring: decide 2-colourability by non-blocking colour
 * propagation — each task colours a node's uncoloured neighbours
 * with the opposite colour and flags conflicts. No useful priority
 * order (per the paper). Seeds are one node per connected component,
 * found by a host union-find pass over the input.
 */

#ifndef MINNOW_APPS_BC_HH
#define MINNOW_APPS_BC_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Two-coloring / bipartiteness check by colour propagation. */
class BcApp : public App
{
  public:
    static constexpr std::uint8_t kUncolored = 2;

    BcApp(const graph::CsrGraph *g, std::uint32_t split)
        : App(g, split)
    {
        reset();
    }

    std::string name() const override { return "bc"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    bool conflictFound() const { return conflict_; }
    const std::vector<std::uint8_t> &colors() const
    {
        return color_;
    }

    /** Host-side bipartiteness test (BFS 2-coloring). */
    bool referenceIsBipartite() const;

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(color_);
        ck.io(conflict_);
    }

  private:
    std::vector<std::uint8_t> color_;
    bool conflict_ = false;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_BC_HH
