#include "graph/generators.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "base/bits.hh"
#include "base/rng.hh"
#include "graph/builder.hh"

namespace minnow::graph
{

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
{
    fatal_if(n == 0, "Zipf sampler needs at least one value");
    cdf_.resize(n);
    double acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(double(i + 1), alpha);
        cdf_[i] = acc;
    }
    total_ = acc;
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    // std::lower_bound's index for the draw, clamped to the last
    // value, with the halving step as a multiply instead of a
    // data-dependent branch.
    const double u = rng.real() * total_;
    const double *first = cdf_.data();
    std::size_t len = cdf_.size();
    while (len > 1) {
        const std::size_t half = len / 2;
        first += half * std::size_t(first[half] < u);
        len -= half;
    }
    const std::size_t at =
        std::size_t(first - cdf_.data()) + std::size_t(*first < u);
    return std::min(at, cdf_.size() - 1);
}

CsrGraph
gridGraph(std::uint32_t width, std::uint32_t height,
          std::uint32_t maxWeight, std::uint64_t seed)
{
    fatal_if(width == 0 || height == 0, "grid must be non-empty");
    Rng rng(seed);
    NodeId n = width * height;
    GraphBuilder b(n);
    b.reserve(2 * std::size_t(n) - width - height);
    auto id = [&](std::uint32_t x, std::uint32_t y) {
        return NodeId(y * width + x);
    };
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            if (x + 1 < width) {
                auto w = std::uint32_t(rng.range(1, maxWeight));
                b.addEdge(id(x, y), id(x + 1, y), w);
            }
            if (y + 1 < height) {
                auto w = std::uint32_t(rng.range(1, maxWeight));
                b.addEdge(id(x, y), id(x, y + 1), w);
            }
        }
    }
    return b.symmetrize().build(true);
}

CsrGraph
randomGraph(NodeId n, double avgDegree, std::uint64_t seed)
{
    fatal_if(n < 2, "random graph needs at least two nodes");
    Rng rng(seed);
    auto undirected =
        std::uint64_t(std::llround(double(n) * avgDegree / 2.0));
    GraphBuilder b(n);
    b.reserve(undirected);
    for (std::uint64_t i = 0; i < undirected; ++i) {
        NodeId u = NodeId(rng.below(n));
        NodeId v = NodeId(rng.below(n));
        auto w = std::uint32_t(rng.range(1, 255));
        b.addEdge(u, v, w);
    }
    return b.removeSelfLoops().symmetrize().dedup().build(true);
}

CsrGraph
rmatGraph(std::uint32_t scale, std::uint32_t edgeFactor,
          std::uint64_t seed, double a, double b, double c)
{
    fatal_if(scale == 0 || scale > 28, "unreasonable RMAT scale %u",
             scale);
    fatal_if(a < 0 || b < 0 || c < 0,
             "RMAT quadrant probabilities must be non-negative");
    Rng rng(seed);
    NodeId n = NodeId(1) << scale;
    std::uint64_t m = std::uint64_t(edgeFactor) << scale;
    GraphBuilder builder(n);
    builder.reserve(m);
    const double ab = a + b;
    const double abc = a + b + c;
    for (std::uint64_t i = 0; i < m; ++i) {
        NodeId u = 0, v = 0;
        for (std::uint32_t bit = 0; bit < scale; ++bit) {
            double r = rng.real();
            // Quadrants: a = (0,0), b = (0,1), c = (1,0), d = (1,1).
            // a <= ab <= abc, so the count of bounds r reaches is
            // the quadrant: an if-else chain's three comparisons,
            // without its unpredictable branches.
            std::uint32_t q = std::uint32_t(!(r < a)) +
                              std::uint32_t(!(r < ab)) +
                              std::uint32_t(!(r < abc));
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        builder.addEdge(u, v, std::uint32_t(rng.range(1, 255)));
    }
    return builder.removeSelfLoops().symmetrize().dedup().build(true);
}

CsrGraph
powerLawGraph(NodeId n, double avgDegree, double alpha,
              std::uint64_t seed, bool symmetric)
{
    fatal_if(n < 2, "power-law graph needs at least two nodes");
    Rng rng(seed);
    ZipfSampler popularity(n, alpha);
    GraphBuilder b(n);
    // The mean out-degree is at most avgDegree; the slack covers
    // the heavy tail's spread (unwritten capacity costs no RSS).
    b.reserve(std::size_t(double(n) * avgDegree * 1.25) + 64);

    // Out-degrees follow a (discrete) Pareto distribution with tail
    // exponent 1 + alpha, rescaled to the requested mean and capped
    // at n/8 so a single node cannot absorb the whole edge budget.
    const double tail = 1.0 + alpha;
    const double rawMean = 1.0 / (tail - 1.0);
    const double scale = avgDegree / (1.0 + rawMean);
    const double cap = double(n) / 8.0;
    // Scramble node ids so hubs are not clustered at low ids.
    auto scramble = [n](std::uint64_t x) {
        return NodeId(hashMix(x) % n);
    };
    for (NodeId v = 0; v < n; ++v) {
        double u01 = rng.real();
        double raw = std::pow(1.0 - u01, -1.0 / tail) - 1.0;
        double want = std::min(cap, (1.0 + raw) * scale);
        auto deg = std::uint32_t(want);
        if (rng.real() < want - deg)
            ++deg;
        for (std::uint32_t e = 0; e < deg; ++e) {
            NodeId u = scramble(popularity.sample(rng));
            if (u != v)
                b.addEdge(v, u, std::uint32_t(rng.range(1, 255)));
        }
    }
    if (symmetric)
        b.symmetrize().dedup();
    return b.build(true);
}

CsrGraph
wattsStrogatz(NodeId n, std::uint32_t k, double beta,
              std::uint64_t seed)
{
    fatal_if(k % 2 != 0, "Watts-Strogatz k must be even");
    fatal_if(n <= k, "Watts-Strogatz needs n > k");
    Rng rng(seed);
    GraphBuilder b(n);
    b.reserve(std::size_t(n) * (k / 2));
    for (NodeId v = 0; v < n; ++v) {
        for (std::uint32_t j = 1; j <= k / 2; ++j) {
            NodeId u = NodeId((v + j) % n);
            if (rng.real() < beta) {
                // Rewire to a uniform random target.
                u = NodeId(rng.below(n));
                if (u == v)
                    u = NodeId((v + 1) % n);
            }
            b.addEdge(v, u);
        }
    }
    return b.removeSelfLoops().symmetrize().dedup().build(false);
}

CsrGraph
bipartiteGraph(NodeId nLeft, NodeId nRight, double avgLeftDegree,
               double alpha, std::uint64_t seed)
{
    fatal_if(nLeft == 0 || nRight == 0, "bipartite parts must be"
             " non-empty");
    Rng rng(seed);
    ZipfSampler popularity(nRight, alpha);
    NodeId n = nLeft + nRight;
    GraphBuilder b(n);
    b.reserve(std::size_t(double(nLeft) *
                          std::max(1.0, std::ceil(avgLeftDegree))));
    auto scramble = [nRight](std::uint64_t x) {
        return NodeId(hashMix(x) % nRight);
    };
    for (NodeId v = 0; v < nLeft; ++v) {
        double want = avgLeftDegree;
        auto deg = std::uint32_t(want);
        if (rng.real() < want - deg)
            ++deg;
        if (deg == 0)
            deg = 1; // keep the graph connected-ish.
        for (std::uint32_t e = 0; e < deg; ++e) {
            NodeId u = nLeft + scramble(popularity.sample(rng));
            b.addEdge(v, u);
        }
    }
    return b.symmetrize().dedup().build(false);
}

} // namespace minnow::graph
