/**
 * @file
 * Deterministic graph generators covering the input classes of
 * Table 1. Real datasets are unavailable offline, so each paper
 * input is replaced by a generator of the same class (DESIGN.md §2):
 *
 *  - gridGraph:          USA-road-d.W (high diameter, degree <= 4,
 *                        weighted) — SSSP.
 *  - randomGraph:        r4-2e23 (random "mesh", avg degree 4, low
 *                        max degree, log diameter) — BFS.
 *  - rmatGraph:          rmat16-2e22 Kronecker (scale-free, one node
 *                        holding a large share of edges) — G500.
 *  - powerLawGraph:      wikipedia / wiki-Talk (directed, skewed in-
 *                        and out-degree) — CC, PR.
 *  - wattsStrogatz:      com-dblp (clustered; rich in triangles) —
 *                        TC.
 *  - bipartiteGraph:     amazon-ratings (bipartite, skewed) — BC.
 *
 * All generators are seeded and bit-reproducible.
 */

#ifndef MINNOW_GRAPH_GENERATORS_HH
#define MINNOW_GRAPH_GENERATORS_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"

namespace minnow
{
class Rng;
} // namespace minnow

namespace minnow::graph
{

/**
 * Sampler for a Zipf(alpha) distribution over [0, n) using the
 * inverse CDF over precomputed cumulative weights: O(log n) per draw
 * by a branch-free binary search, fully deterministic.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double alpha);

    /** One draw: consumes one rng.real(). */
    std::uint64_t sample(Rng &rng) const;

  private:
    std::vector<double> cdf_;
    double total_ = 0;
};

/**
 * 4-connected W x H grid with uniform random weights in
 * [1, maxWeight]; undirected. Diameter = W + H - 2.
 */
CsrGraph gridGraph(std::uint32_t width, std::uint32_t height,
                   std::uint32_t maxWeight, std::uint64_t seed);

/**
 * Erdős–Rényi-style random undirected graph: n nodes and
 * round(n * avgDegree / 2) undirected edges placed uniformly.
 */
CsrGraph randomGraph(NodeId n, double avgDegree, std::uint64_t seed);

/**
 * RMAT / Kronecker generator (Graph500 parameters by default):
 * 2^scale nodes, edgeFactor * 2^scale undirected edges recursively
 * placed with quadrant probabilities (a, b, c, d).
 */
CsrGraph rmatGraph(std::uint32_t scale, std::uint32_t edgeFactor,
                   std::uint64_t seed, double a = 0.57,
                   double b = 0.19, double c = 0.19);

/**
 * Directed power-law graph: out-degrees and target popularity both
 * Zipf(alpha) distributed — web/wiki-like hubs.
 */
CsrGraph powerLawGraph(NodeId n, double avgDegree, double alpha,
                       std::uint64_t seed, bool symmetric = false);

/**
 * Watts–Strogatz small world: ring lattice with k nearest
 * neighbours, each edge rewired with probability beta. High
 * clustering coefficient (many triangles) at small beta.
 */
CsrGraph wattsStrogatz(NodeId n, std::uint32_t k, double beta,
                       std::uint64_t seed);

/**
 * Bipartite undirected graph: left part [0, nLeft) connects only to
 * right part [nLeft, nLeft+nRight), with Zipf-skewed right-side
 * popularity (user-item ratings shape). Always 2-colourable.
 */
CsrGraph bipartiteGraph(NodeId nLeft, NodeId nRight,
                        double avgLeftDegree, double alpha,
                        std::uint64_t seed);

} // namespace minnow::graph

#endif // MINNOW_GRAPH_GENERATORS_HH
