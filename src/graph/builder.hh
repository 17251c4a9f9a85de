/**
 * @file
 * Edge-list to CSR conversion with the transformations the
 * benchmark inputs need: symmetrization, deduplication, self-loop
 * removal, and per-node adjacency sorting (required by TC's binary
 * searches).
 */

#ifndef MINNOW_GRAPH_BUILDER_HH
#define MINNOW_GRAPH_BUILDER_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "graph/csr.hh"

namespace minnow::graph
{

/** One input edge. */
struct RawEdge
{
    NodeId src;
    NodeId dst;
    std::uint32_t weight = 1;
};

/**
 * Accumulates edges and finalizes them into a CsrGraph.
 *
 * Order contract. symmetrize(), removeSelfLoops() and dedup() are
 * flags, not steps: their call order does not matter, and build()
 * applies them as if self-loops were removed first, then the
 * reverses added, then duplicates dropped. Row v of the result holds
 * one arc (v, d, w) per added edge (v, d, w) and, when symmetrizing,
 * one more per added edge (d, v, w), so a kept self-loop appears
 * twice. Each row is sorted by (dst, weight), ascending; with
 * dedup() it keeps only the first (lowest-weight) arc to each dst.
 * Arcs equal in (dst, weight) are indistinguishable, so the graph
 * depends on the multiset of added edges alone: not on the order of
 * addEdge() calls, nor on the standard library's sort.
 */
class GraphBuilder
{
  public:
    explicit GraphBuilder(NodeId numNodes) : numNodes_(numNodes) {}

    void
    addEdge(NodeId src, NodeId dst, std::uint32_t weight = 1)
    {
        edges_.push_back({src, dst, weight});
    }

    /** Make room for @p edges addEdge() calls. */
    void reserve(std::size_t edges) { edges_.reserve(edges); }

    std::size_t edgeCount() const { return edges_.size(); }
    NodeId numNodes() const { return numNodes_; }

    /** Also store the reverse of every edge (undirected graphs). */
    GraphBuilder &
    symmetrize()
    {
        symmetrize_ = true;
        return *this;
    }

    /** Drop (u, u) edges. */
    GraphBuilder &
    removeSelfLoops()
    {
        dropSelfLoops_ = true;
        return *this;
    }

    /** Keep one copy of each (u, v), lowest weight wins. */
    GraphBuilder &
    dedup()
    {
        dedup_ = true;
        return *this;
    }

    /**
     * Produce the CSR graph in one counting pass (see the order
     * contract above); panics on an edge outside [0, numNodes).
     * Consumes the edges: the builder is empty afterwards.
     * @param keepWeights Store the weight array; otherwise the graph
     *                    is unweighted (all weights read as 1).
     */
    CsrGraph build(bool keepWeights = true);

  private:
    /** Call fn(row, dst, weight) for every arc the flags keep. */
    template <class Fn> void forEachArc(Fn &&fn) const;

    NodeId numNodes_;
    bool symmetrize_ = false;
    bool dropSelfLoops_ = false;
    bool dedup_ = false;
    std::vector<RawEdge> edges_;
};

} // namespace minnow::graph

#endif // MINNOW_GRAPH_BUILDER_HH
