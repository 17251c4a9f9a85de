/**
 * @file
 * Compressed sparse row graph.
 *
 * Functional topology lives in host vectors; the *simulated* memory
 * layout follows the paper's Section 6.2: node records of 32 bytes
 * (64 for triangle counting) holding algorithm data plus edge
 * metadata, and edge records of 16 bytes (destination + weight), both
 * in flat arrays. Algorithms compute simulated addresses with
 * nodeAddr()/edgeAddr(), so a load of node v's distance and of its
 * edge pointer naturally share a cache line, exactly as in the real
 * layout.
 */

#ifndef MINNOW_GRAPH_CSR_HH
#define MINNOW_GRAPH_CSR_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "base/ckpt.hh"
#include "base/logging.hh"
#include "base/sim_alloc.hh"
#include "base/types.hh"

namespace minnow::graph
{

/** CSR graph with a declared simulated layout. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /** Construct from prebuilt CSR arrays (see GraphBuilder). */
    CsrGraph(std::vector<std::uint64_t> rowPtr,
             std::vector<NodeId> dst,
             std::vector<std::uint32_t> weight)
        : rowPtr_(std::move(rowPtr)),
          dst_(std::move(dst)),
          weight_(std::move(weight))
    {
        panic_if(rowPtr_.empty(), "CSR needs at least the sentinel");
        panic_if(rowPtr_.back() != dst_.size(),
                 "rowPtr sentinel disagrees with edge count");
        panic_if(!weight_.empty() && weight_.size() != dst_.size(),
                 "weight array size mismatch");
    }

    NodeId numNodes() const { return NodeId(rowPtr_.size() - 1); }
    EdgeId numEdges() const { return dst_.size(); }
    bool weighted() const { return !weight_.empty(); }

    EdgeId edgeBegin(NodeId v) const { return rowPtr_[v]; }
    EdgeId edgeEnd(NodeId v) const { return rowPtr_[v + 1]; }

    std::uint32_t degree(NodeId v) const
    {
        return std::uint32_t(rowPtr_[v + 1] - rowPtr_[v]);
    }

    NodeId edgeDst(EdgeId e) const { return dst_[e]; }

    std::uint32_t edgeWeight(EdgeId e) const
    {
        return weight_.empty() ? 1u : weight_[e];
    }

    std::span<const NodeId> neighbors(NodeId v) const
    {
        return {dst_.data() + rowPtr_[v],
                dst_.data() + rowPtr_[v + 1]};
    }

    /** True if (u, v) exists; binary search (adjacency is sorted). */
    bool hasEdge(NodeId u, NodeId v) const;

    // ---- Simulated layout ----

    /**
     * Reserve simulated address ranges for the node and edge arrays.
     * @param nodeBytes 32 normally, 64 for TC (paper Section 6.2).
     */
    void
    assignAddresses(SimAlloc &alloc, std::uint32_t nodeBytes = 32)
    {
        nodeBytes_ = nodeBytes;
        nodeBase_ = alloc.alloc(
            "graph.nodes",
            std::uint64_t(numNodes()) * nodeBytes_);
        edgeBase_ = alloc.alloc("graph.edges",
                                numEdges() * kEdgeBytes);
    }

    bool hasAddresses() const { return nodeBase_ != 0; }

    Addr nodeAddr(NodeId v) const
    {
        return nodeBase_ + Addr(v) * nodeBytes_;
    }

    Addr edgeAddr(EdgeId e) const
    {
        return edgeBase_ + e * kEdgeBytes;
    }

    Addr nodeBase() const { return nodeBase_; }
    Addr edgeBase() const { return edgeBase_; }
    std::uint32_t nodeBytes() const { return nodeBytes_; }

    /** Simulated footprint in bytes (Table 1 "Size" column). */
    std::uint64_t
    simBytes() const
    {
        return std::uint64_t(numNodes()) * nodeBytes_ +
               numEdges() * kEdgeBytes;
    }

    /**
     * Functional-read oracle over the edge array for the IMP
     * prefetcher: resolves an edge-record address to its destination
     * node id (what the hardware would see in the fill data).
     */
    std::function<bool(Addr, std::uint64_t &)> makeEdgeOracle() const;

    /** Edge record size per the paper (16 B). */
    static constexpr std::uint32_t kEdgeBytes = 16;

    /**
     * Serialize topology and simulated layout. A restore regenerates
     * the graph and only compares it with this section: generators
     * are deterministic, so a regenerated graph matches the
     * checkpoint's section byte for byte, and one that does not is
     * named by the witness.
     */
    void
    checkpoint(ckpt::Ckpt &ck)
    {
        ck.io(rowPtr_);
        ck.io(dst_);
        ck.io(weight_);
        ck.io(nodeBase_);
        ck.io(edgeBase_);
        ck.io(nodeBytes_);
    }

  private:
    std::vector<std::uint64_t> rowPtr_;
    std::vector<NodeId> dst_;
    std::vector<std::uint32_t> weight_;

    Addr nodeBase_ = 0;
    Addr edgeBase_ = 0;
    std::uint32_t nodeBytes_ = 32;
};

} // namespace minnow::graph

#endif // MINNOW_GRAPH_CSR_HH
