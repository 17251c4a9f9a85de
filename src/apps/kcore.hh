/**
 * @file
 * k-core decomposition by parallel peeling — a second "other
 * irregular workload" extension.
 *
 * Every node starts alive with its degree; nodes whose alive-degree
 * drops below k are removed, decrementing their neighbours (one
 * atomic per edge), which may cascade. The surviving set (the
 * k-core) is schedule-independent, so any worklist order verifies
 * against serial peeling.
 */

#ifndef MINNOW_APPS_KCORE_HH
#define MINNOW_APPS_KCORE_HH

#include <vector>

#include "apps/app.hh"

namespace minnow::apps
{

/** Parallel k-core peeling. */
class KcoreApp : public App
{
  public:
    KcoreApp(const graph::CsrGraph *g, std::uint32_t k,
             std::uint32_t split)
        : App(g, split), k_(k)
    {
        reset();
    }

    std::string name() const override { return "kcore"; }
    void reset() override;
    std::vector<WorkItem> initialWork() override;
    runtime::CoTask<void> process(runtime::SimContext &ctx,
                                  WorkItem item,
                                  TaskSink &sink) override;
    bool verify() const override;

    const std::vector<std::uint8_t> &inCore() const
    {
        return alive_;
    }
    std::uint64_t coreSize() const;

    /** Serial peeling reference. */
    std::vector<std::uint8_t> referenceCore() const;

    void
    checkpoint(ckpt::Ckpt &ck) const override
    {
        App::checkpoint(ck);
        ck.io(k_);
        ck.io(alive_);
        ck.io(degree_);
    }

  private:
    std::uint32_t k_;
    std::vector<std::uint8_t> alive_;
    std::vector<std::uint32_t> degree_;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_KCORE_HH
