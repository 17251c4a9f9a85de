/**
 * @file
 * Application (benchmark workload) interface.
 *
 * Each paper workload (SSSP, BFS, G500, CC, PR, TC, BC) implements
 * App: it owns its functional state (distances, labels, residuals),
 * describes its per-task operator as a coroutine over the simulated
 * machine API, declares its initial work, and can verify its final
 * state against a serial host reference.
 *
 * Operators push generated tasks through a TaskSink, so the same
 * operator code runs under a software Galois worklist and under
 * Minnow offload.
 *
 * Task splitting (paper Section 6.2.1): tasks carry a part index in
 * the payload's upper 32 bits; nodes whose degree exceeds the app's
 * split threshold are enqueued as multiple parts, each covering a
 * contiguous slice of the edge array.
 */

#ifndef MINNOW_APPS_APP_HH
#define MINNOW_APPS_APP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/ckpt.hh"
#include "graph/csr.hh"
#include "runtime/sim_context.hh"
#include "runtime/task.hh"
#include "worklist/worklist.hh"

namespace minnow::apps
{

using worklist::WorkItem;

/** Destination for tasks generated inside an operator. */
class TaskSink
{
  public:
    virtual ~TaskSink() = default;

    /** Timed enqueue of one generated task. */
    virtual runtime::CoTask<void> put(runtime::SimContext &ctx,
                                      WorkItem item) = 0;
};

/** Load-site tags (PC proxies) used by application operators. */
enum AppSite : std::uint16_t
{
    kSiteTask = 1,
    kSiteNode = 2,
    kSiteEdge = 3,
    kSiteDstNode = 4,
    kSiteAux = 5,
};

/** Pack a (node, part) pair into a task payload. */
constexpr std::uint64_t
makeTaskPayload(NodeId node, std::uint32_t part = 0)
{
    return (std::uint64_t(part) << 32) | node;
}

constexpr NodeId
taskNode(std::uint64_t payload)
{
    return NodeId(payload & 0xffffffffu);
}

constexpr std::uint32_t
taskPart(std::uint64_t payload)
{
    return std::uint32_t(payload >> 32);
}

/** Per-run workload counters shared by all apps. */
struct AppCounters
{
    std::uint64_t tasks = 0;       //!< operator invocations.
    std::uint64_t edgesVisited = 0;
    std::uint64_t updates = 0;     //!< successful relax/label/etc.
    std::uint64_t pushes = 0;      //!< tasks generated.
};

/** A benchmark workload over one graph. */
class App
{
  public:
    /**
     * @param g     Input graph (addresses must be assigned).
     * @param split Task-splitting threshold in edges; parts beyond
     *              the first reuse the same node with a part index.
     */
    App(const graph::CsrGraph *g, std::uint32_t split)
        : graph_(g), splitThreshold_(split)
    {
    }

    virtual ~App() = default;

    virtual std::string name() const = 0;

    /** Reset functional state for a fresh run. */
    virtual void reset() = 0;

    /** Initial work items (already split if needed). */
    virtual std::vector<WorkItem> initialWork() = 0;

    /** The per-task operator. */
    virtual runtime::CoTask<void> process(runtime::SimContext &ctx,
                                          WorkItem item,
                                          TaskSink &sink) = 0;

    /** Check the final state against a serial host reference. */
    virtual bool verify() const = 0;

    /**
     * Whether the Minnow prefetch program should also chase the
     * destination nodes' own adjacency lists (TC's custom program,
     * Section 5.3).
     */
    virtual bool prefetchChasesAdjacency() const { return false; }

    /**
     * Optional predicate telling the Minnow prefetch program that a
     * queued task has been superseded (its node was already improved
     * past the task's priority). The engine evaluates it right after
     * fetching the task's node record — data it has in hand — and
     * skips the task's edge/destination prefetches, exactly like the
     * worker's own stale-task cutoff. Null when the app has no such
     * cutoff.
     */
    virtual std::function<bool(const WorkItem &)>
    staleTaskPredicate() const
    {
        return nullptr;
    }

    const graph::CsrGraph &graph() const { return *graph_; }
    std::uint32_t splitThreshold() const { return splitThreshold_; }
    const AppCounters &counters() const { return counters_; }
    void resetCounters() { counters_ = AppCounters{}; }

    /**
     * Serialize functional state plus counters; subclasses call the
     * base then add their own arrays. The graph pointer and split
     * threshold are configuration, rebuilt at machine build (the
     * graph has its own checkpoint section).
     */
    virtual void
    checkpoint(ckpt::Ckpt &ck) const
    {
        ck.io(counters_);
        ck.transient("graph_ splitThreshold_");
    }

    /** Edge sub-range of a (possibly split) task. */
    void
    taskEdgeRange(std::uint64_t payload, EdgeId &begin,
                  EdgeId &end) const
    {
        NodeId v = taskNode(payload);
        std::uint32_t part = taskPart(payload);
        EdgeId b = graph_->edgeBegin(v);
        EdgeId e = graph_->edgeEnd(v);
        begin = b + EdgeId(part) * splitThreshold_;
        end = std::min(e, begin + splitThreshold_);
        if (begin > e)
            begin = e;
    }

    /** Number of parts a node's task splits into. */
    std::uint32_t
    partsFor(NodeId v) const
    {
        std::uint32_t deg = graph_->degree(v);
        if (deg <= splitThreshold_)
            return 1;
        return (deg + splitThreshold_ - 1) / splitThreshold_;
    }

    /** Split-aware initial seeding helper. */
    void
    seedNode(std::vector<WorkItem> &out, NodeId v,
             std::int64_t priority)
    {
        std::uint32_t parts = partsFor(v);
        for (std::uint32_t p = 0; p < parts; ++p)
            out.push_back({priority, makeTaskPayload(v, p)});
    }

    /** Split-aware timed enqueue helper. */
    runtime::CoTask<void>
    pushNode(runtime::SimContext &ctx, TaskSink &sink, NodeId v,
             std::int64_t priority)
    {
        std::uint32_t parts = partsFor(v);
        for (std::uint32_t p = 0; p < parts; ++p) {
            counters_.pushes += 1;
            co_await sink.put(ctx,
                              {priority, makeTaskPayload(v, p)});
        }
    }

  protected:
    const graph::CsrGraph *graph_;
    std::uint32_t splitThreshold_;
    AppCounters counters_;
};

} // namespace minnow::apps

#endif // MINNOW_APPS_APP_HH
