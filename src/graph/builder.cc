#include "graph/builder.hh"

#include <algorithm>

#include "base/logging.hh"

namespace minnow::graph
{

template <class Fn>
void
GraphBuilder::forEachArc(Fn &&fn) const
{
    for (const RawEdge &e : edges_) {
        if (dropSelfLoops_ && e.src == e.dst)
            continue;
        fn(e.src, e.dst, e.weight);
        if (symmetrize_)
            fn(e.dst, e.src, e.weight);
    }
}

CsrGraph
GraphBuilder::build(bool keepWeights)
{
    for (const RawEdge &e : edges_) {
        panic_if(e.src >= numNodes_ || e.dst >= numNodes_,
                 "edge (%u,%u) out of range for %u nodes", e.src,
                 e.dst, numNodes_);
    }

    // Row degrees, then their inclusive prefix sums: rowPtr[v] is
    // the end of row v until the scatter counts it down to the
    // row's start.
    std::vector<std::uint64_t> rowPtr(std::size_t(numNodes_) + 1, 0);
    forEachArc([&](NodeId row, NodeId, std::uint32_t) { ++rowPtr[row]; });
    for (std::size_t v = 1; v < rowPtr.size(); ++v)
        rowPtr[v] += rowPtr[v - 1];

    const std::uint64_t arcs = rowPtr.back();
    std::vector<NodeId> dst(arcs);
    std::vector<std::uint32_t> weight(keepWeights ? arcs : 0);
    forEachArc([&](NodeId row, NodeId d, std::uint32_t w) {
        const std::uint64_t at = --rowPtr[row];
        dst[at] = d;
        if (keepWeights)
            weight[at] = w;
    });
    edges_ = std::vector<RawEdge>();

    // Sort each row by (dst, weight); with dedup keep the first arc
    // to each dst. Rows only move left, so this works in place.
    std::vector<std::uint64_t> keys; // one row, dst << 32 | weight.
    std::uint64_t out = 0;
    for (NodeId v = 0; v < numNodes_; ++v) {
        const std::uint64_t begin = rowPtr[v];
        const std::uint64_t end = rowPtr[v + 1];
        rowPtr[v] = out;
        keys.clear();
        for (std::uint64_t i = begin; i < end; ++i)
            keys.push_back(std::uint64_t(dst[i]) << 32 |
                           (keepWeights ? weight[i] : 0));
        std::sort(keys.begin(), keys.end());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (dedup_ && i > 0 && keys[i] >> 32 == keys[i - 1] >> 32)
                continue;
            dst[out] = NodeId(keys[i] >> 32);
            if (keepWeights)
                weight[out] = std::uint32_t(keys[i]);
            ++out;
        }
    }
    rowPtr.back() = out;
    if (out != arcs) {
        dst.resize(out);
        dst.shrink_to_fit();
        if (keepWeights) {
            weight.resize(out);
            weight.shrink_to_fit();
        }
    }
    return CsrGraph(std::move(rowPtr), std::move(dst),
                    std::move(weight));
}

} // namespace minnow::graph
