/**
 * @file
 * Unit tests for the graph substrate: builder transforms, CSR
 * invariants, generators (shape properties per Table 1 classes),
 * statistics, and file I/O round-trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "base/sim_alloc.hh"
#include "graph/builder.hh"
#include "graph/csr.hh"
#include "graph/generators.hh"
#include "graph/gstats.hh"
#include "graph/io.hh"
#include "harness/workloads.hh"

namespace minnow::graph
{
namespace
{

TEST(Builder, BasicCsr)
{
    GraphBuilder b(4);
    b.addEdge(0, 1, 5);
    b.addEdge(0, 2, 7);
    b.addEdge(2, 3, 1);
    CsrGraph g = b.build(true);
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.edgeDst(g.edgeBegin(0)), 1u);
    EXPECT_EQ(g.edgeWeight(g.edgeBegin(0)), 5u);
    EXPECT_TRUE(g.hasEdge(0, 2));
    EXPECT_FALSE(g.hasEdge(1, 0));
}

TEST(Builder, SymmetrizeDedupSelfLoops)
{
    GraphBuilder b(3);
    b.addEdge(0, 1);
    b.addEdge(1, 0);
    b.addEdge(1, 1);
    b.addEdge(0, 2);
    CsrGraph g =
        b.removeSelfLoops().symmetrize().dedup().build(false);
    EXPECT_EQ(g.numEdges(), 4u); // 0-1, 1-0, 0-2, 2-0.
    EXPECT_TRUE(g.hasEdge(2, 0));
    EXPECT_FALSE(g.hasEdge(1, 1));
}

TEST(Builder, AdjacencySorted)
{
    GraphBuilder b(5);
    b.addEdge(0, 4);
    b.addEdge(0, 1);
    b.addEdge(0, 3);
    CsrGraph g = b.build(false);
    auto nbrs = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

/** The builder's contract spelled out the slow way: one global sort
 *  by (src, dst, weight), then unique on (src, dst). */
struct ReferenceCsr
{
    std::vector<std::uint64_t> rowPtr;
    std::vector<NodeId> dst;
    std::vector<std::uint32_t> weight;
};

ReferenceCsr
referenceBuild(NodeId n, std::vector<RawEdge> edges, bool selfLoops,
               bool symmetric, bool dedup, bool keepWeights)
{
    if (selfLoops)
        std::erase_if(edges,
                      [](const RawEdge &e) { return e.src == e.dst; });
    if (symmetric) {
        const std::size_t m = edges.size();
        for (std::size_t i = 0; i < m; ++i)
            edges.push_back({edges[i].dst, edges[i].src, edges[i].weight});
    }
    auto key = [](const RawEdge &e) {
        return std::tuple(e.src, e.dst, e.weight);
    };
    std::sort(edges.begin(), edges.end(),
              [&](const RawEdge &a, const RawEdge &b) {
                  return key(a) < key(b);
              });
    if (dedup) {
        edges.erase(std::unique(edges.begin(), edges.end(),
                                [](const RawEdge &a, const RawEdge &b) {
                                    return a.src == b.src &&
                                           a.dst == b.dst;
                                }),
                    edges.end());
    }
    ReferenceCsr r;
    r.rowPtr.assign(std::size_t(n) + 1, 0);
    for (const RawEdge &e : edges) {
        r.rowPtr[e.src + 1] += 1;
        r.dst.push_back(e.dst);
        if (keepWeights)
            r.weight.push_back(e.weight);
    }
    for (NodeId v = 0; v < n; ++v)
        r.rowPtr[v + 1] += r.rowPtr[v];
    return r;
}

TEST(Builder, MatchesGlobalSortReference)
{
    Rng rng(2024);
    for (int trial = 0; trial < 200; ++trial) {
        // Few nodes and few weights, so self-loops, duplicate arcs
        // and duplicate (dst, weight) pairs are all common.
        const auto n = NodeId(1 + rng.below(24));
        const auto m = rng.below(120);
        const auto maxWeight = 1 + rng.below(4);
        std::vector<RawEdge> edges;
        for (std::uint64_t i = 0; i < m; ++i) {
            edges.push_back({NodeId(rng.below(n)), NodeId(rng.below(n)),
                             std::uint32_t(rng.range(1, maxWeight))});
        }
        for (int flags = 0; flags < 8; ++flags) {
            const bool selfLoops = flags & 1;
            const bool symmetric = flags & 2;
            const bool dedup = flags & 4;
            for (bool keepWeights : {true, false}) {
                ReferenceCsr want = referenceBuild(
                    n, edges, selfLoops, symmetric, dedup, keepWeights);
                GraphBuilder b(n);
                for (const RawEdge &e : edges)
                    b.addEdge(e.src, e.dst, e.weight);
                // Flags, not steps: set them in reverse order.
                if (dedup)
                    b.dedup();
                if (symmetric)
                    b.symmetrize();
                if (selfLoops)
                    b.removeSelfLoops();
                CsrGraph g = b.build(keepWeights);
                SCOPED_TRACE("trial " + std::to_string(trial) +
                             " flags " + std::to_string(flags) +
                             " weights " + std::to_string(keepWeights));
                ASSERT_EQ(g.numNodes(), n);
                ASSERT_EQ(g.numEdges(), want.dst.size());
                EXPECT_EQ(g.weighted(), keepWeights && !want.dst.empty());
                for (NodeId v = 0; v <= n; ++v) {
                    ASSERT_EQ(v < n ? g.edgeBegin(v) : g.numEdges(),
                              want.rowPtr[v]);
                }
                for (EdgeId e = 0; e < g.numEdges(); ++e) {
                    ASSERT_EQ(g.edgeDst(e), want.dst[e]);
                    ASSERT_EQ(g.edgeWeight(e),
                              keepWeights ? want.weight[e] : 1u);
                }
            }
        }
    }
}

TEST(Builder, OutOfRangeEdgePanics)
{
    GraphBuilder b(3);
    b.addEdge(0, 1);
    b.addEdge(1, 3);
    EXPECT_DEATH(b.build(false), "out of range");
}

TEST(Csr, SimulatedLayout)
{
    GraphBuilder b(10);
    b.addEdge(0, 1);
    b.addEdge(1, 2);
    CsrGraph g = b.build(false);
    SimAlloc alloc;
    g.assignAddresses(alloc, 32);
    EXPECT_TRUE(g.hasAddresses());
    EXPECT_EQ(g.nodeAddr(1) - g.nodeAddr(0), 32u);
    EXPECT_EQ(g.edgeAddr(1) - g.edgeAddr(0), 16u);
    EXPECT_EQ(g.simBytes(), 10 * 32 + 2 * 16u);
    // Two 32 B nodes share a 64 B line.
    EXPECT_EQ(lineAddr(g.nodeAddr(0)), lineAddr(g.nodeAddr(1)));
}

TEST(Csr, TcLayoutIs64Bytes)
{
    GraphBuilder b(4);
    b.addEdge(0, 1);
    CsrGraph g = b.build(false);
    SimAlloc alloc;
    g.assignAddresses(alloc, 64);
    EXPECT_EQ(g.nodeAddr(1) - g.nodeAddr(0), 64u);
}

TEST(Csr, EdgeOracle)
{
    GraphBuilder b(4);
    b.addEdge(0, 3);
    b.addEdge(0, 1);
    CsrGraph g = b.build(false);
    SimAlloc alloc;
    g.assignAddresses(alloc);
    auto oracle = g.makeEdgeOracle();
    std::uint64_t v = 0;
    ASSERT_TRUE(oracle(g.edgeAddr(0), v));
    EXPECT_EQ(v, 1u); // sorted adjacency: (0,1) first.
    ASSERT_TRUE(oracle(g.edgeAddr(1), v));
    EXPECT_EQ(v, 3u);
    EXPECT_FALSE(oracle(g.nodeAddr(0), v));
}

TEST(Generators, GridShape)
{
    CsrGraph g = gridGraph(10, 7, 100, 42);
    EXPECT_EQ(g.numNodes(), 70u);
    // Interior nodes have degree 4, corners 2.
    GraphStats s = analyzeGraph(g);
    EXPECT_EQ(s.maxDegree, 4u);
    EXPECT_EQ(s.estDiameter, 15u); // (10-1) + (7-1).
    EXPECT_EQ(s.reachableFrom0, 70u);
}

TEST(Generators, GridDeterministic)
{
    CsrGraph a = gridGraph(8, 8, 50, 7);
    CsrGraph b = gridGraph(8, 8, 50, 7);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (EdgeId e = 0; e < a.numEdges(); ++e) {
        EXPECT_EQ(a.edgeDst(e), b.edgeDst(e));
        EXPECT_EQ(a.edgeWeight(e), b.edgeWeight(e));
    }
}

TEST(Generators, RandomGraphShape)
{
    CsrGraph g = randomGraph(2000, 4.0, 11);
    GraphStats s = analyzeGraph(g);
    EXPECT_NEAR(s.avgDegree, 4.0, 0.5);
    // Random graph: low max degree, logarithmic diameter.
    EXPECT_LT(s.maxDegree, 20u);
    EXPECT_LT(s.estDiameter, 40u);
    EXPECT_GT(s.reachableFrom0, NodeId(1600)); // giant component.
}

TEST(Generators, RmatIsSkewed)
{
    CsrGraph g = rmatGraph(12, 8, 5);
    GraphStats s = analyzeGraph(g);
    // Scale-free: the hub dwarfs the average degree.
    EXPECT_GT(s.maxDegree, 50 * std::uint32_t(s.avgDegree + 1));
    EXPECT_LT(s.estDiameter, 12u);
}

TEST(Generators, PowerLawSkew)
{
    CsrGraph g = powerLawGraph(4000, 8.0, 1.0, 3);
    GraphStats s = analyzeGraph(g);
    EXPECT_GT(s.maxDegree, 10 * std::uint32_t(s.avgDegree + 1));
}

TEST(Generators, WattsStrogatzHasTriangles)
{
    CsrGraph g = wattsStrogatz(1000, 8, 0.05, 9);
    // Count triangles around a few nodes; ring lattices are dense in
    // them.
    std::uint64_t tri = 0;
    for (NodeId v = 0; v < 50; ++v) {
        auto nbrs = g.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
                if (g.hasEdge(nbrs[i], nbrs[j]))
                    ++tri;
            }
        }
    }
    EXPECT_GT(tri, 100u);
}

TEST(Generators, BipartiteIsBipartite)
{
    CsrGraph g = bipartiteGraph(500, 300, 5.0, 0.8, 21);
    EXPECT_EQ(g.numNodes(), 800u);
    // No edge inside either part.
    for (NodeId v = 0; v < 500; ++v) {
        for (NodeId u : g.neighbors(v))
            EXPECT_GE(u, 500u);
    }
    for (NodeId v = 500; v < 800; ++v) {
        for (NodeId u : g.neighbors(v))
            EXPECT_LT(u, 500u);
    }
}

TEST(Stats, EmptyAndSingle)
{
    GraphBuilder b(1);
    CsrGraph g = b.build(false);
    GraphStats s = analyzeGraph(g);
    EXPECT_EQ(s.nodes, 1u);
    EXPECT_EQ(s.edges, 0u);
    EXPECT_EQ(s.maxDegree, 0u);
    EXPECT_EQ(s.estDiameter, 0u);
}

TEST(Io, DimacsRoundTrip)
{
    CsrGraph g = gridGraph(5, 5, 20, 3);
    std::string path = testing::TempDir() + "/mg_test.gr";
    writeDimacs(g, path);
    CsrGraph h = readDimacs(path);
    ASSERT_EQ(h.numNodes(), g.numNodes());
    ASSERT_EQ(h.numEdges(), g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(h.edgeDst(e), g.edgeDst(e));
        EXPECT_EQ(h.edgeWeight(e), g.edgeWeight(e));
    }
    std::remove(path.c_str());
}

TEST(Io, BinaryRoundTrip)
{
    CsrGraph g = randomGraph(300, 4.0, 17);
    std::string path = testing::TempDir() + "/mg_test.bin";
    writeBinary(g, path);
    CsrGraph h = readBinary(path);
    ASSERT_EQ(h.numNodes(), g.numNodes());
    ASSERT_EQ(h.numEdges(), g.numEdges());
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        EXPECT_EQ(h.edgeDst(e), g.edgeDst(e));
        EXPECT_EQ(h.edgeWeight(e), g.edgeWeight(e));
    }
    std::remove(path.c_str());
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(Io, WriteReadWriteIsAFixedPoint)
{
    // A directed power-law graph keeps its duplicate arcs, each with
    // its own weight: reading a file back must not reorder them.
    CsrGraph g = powerLawGraph(3000, 8.0, 0.9, 5);
    const std::string dir = testing::TempDir();
    writeDimacs(g, dir + "/mg_fix_a.gr");
    CsrGraph h = readDimacs(dir + "/mg_fix_a.gr");
    writeBinary(g, dir + "/mg_fix_a.bin");
    writeBinary(h, dir + "/mg_fix_b.bin");
    writeDimacs(readBinary(dir + "/mg_fix_b.bin"), dir + "/mg_fix_b.gr");
    const std::string gr = fileBytes(dir + "/mg_fix_a.gr");
    const std::string bin = fileBytes(dir + "/mg_fix_a.bin");
    EXPECT_FALSE(gr.empty());
    EXPECT_EQ(gr, fileBytes(dir + "/mg_fix_b.gr"));
    EXPECT_EQ(bin, fileBytes(dir + "/mg_fix_b.bin"));
    for (const char *f : {"a.gr", "b.gr", "a.bin", "b.bin"})
        std::remove((dir + "/mg_fix_" + f).c_str());
}

TEST(Io, BinaryRoundTripOfEmptyGraph)
{
    CsrGraph g = GraphBuilder(0).build(false);
    std::string path = testing::TempDir() + "/mg_empty.bin";
    writeBinary(g, path);
    CsrGraph h = readBinary(path);
    EXPECT_EQ(h.numNodes(), 0u);
    EXPECT_EQ(h.numEdges(), 0u);
    std::remove(path.c_str());
}

TEST(Io, EdgeListParsing)
{
    std::string path = testing::TempDir() + "/mg_test.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "# comment line\n10 20\n20 30 7\n10 30\n");
    std::fclose(f);
    CsrGraph g = readEdgeList(path);
    EXPECT_EQ(g.numNodes(), 3u); // ids compacted.
    EXPECT_EQ(g.numEdges(), 3u);
    std::remove(path.c_str());
}

TEST(Io, EdgeListSymmetrize)
{
    std::string path = testing::TempDir() + "/mg_test2.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "0 1\n1 2\n");
    std::fclose(f);
    CsrGraph g = readEdgeList(path, true);
    EXPECT_EQ(g.numEdges(), 4u);
    std::remove(path.c_str());
}

/**
 * A binary graph file: the header (magic, @p n, @p m, unweighted),
 * then @p rowPtr and @p dst as given, whatever the header says.
 */
std::string
writeRawBinary(const std::string &name, std::uint64_t n, std::uint64_t m,
               const std::vector<std::uint64_t> &rowPtr,
               const std::vector<NodeId> &dst)
{
    const std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t header[4] = {0x4d494e4e4f575247ull, n, m, 0};
    out.write(reinterpret_cast<const char *>(header), sizeof header);
    out.write(reinterpret_cast<const char *>(rowPtr.data()),
              std::streamsize(rowPtr.size() * sizeof(std::uint64_t)));
    out.write(reinterpret_cast<const char *>(dst.data()),
              std::streamsize(dst.size() * sizeof(NodeId)));
    return path;
}

TEST(IoDeath, BinaryNodeCountBeyondNodeIdIsFatal)
{
    // n + 1 would wrap to 0 in a NodeId.
    const std::string path =
        writeRawBinary("mg_bad_n.bin", 0xFFFFFFFFull, 0, {0, 0, 0}, {});
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_n.bin claims 4294967295 nodes; at most"
                " 4294967294 fit a NodeId");
    std::remove(path.c_str());
}

TEST(IoDeath, BinaryHeaderThatDisagreesWithTheLengthIsFatal)
{
    // 72 bytes whose header claims 2^40 edges: nothing is allocated.
    const std::string path = writeRawBinary(
        "mg_bad_m.bin", 1, std::uint64_t(1) << 40, {0, 0},
        std::vector<NodeId>(6, 0));
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_m.bin is 72 bytes, but its header claims 1"
                " nodes and 1099511627776 edges");
    std::remove(path.c_str());
}

TEST(IoDeath, BinaryRowPtrNotStartingAtZeroIsFatal)
{
    const std::string path =
        writeRawBinary("mg_bad_r0.bin", 2, 1, {1, 1, 1}, {0});
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_r0.bin: rowPtr\\[0\\] is 1, not 0");
    std::remove(path.c_str());
}

TEST(IoDeath, BinaryDecreasingRowPtrIsFatal)
{
    const std::string path =
        writeRawBinary("mg_bad_rd.bin", 3, 2, {0, 2, 1, 2}, {0, 1});
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_rd.bin: rowPtr decreases after node 1");
    std::remove(path.c_str());
}

TEST(IoDeath, BinaryRowPtrNotEndingAtTheEdgeCountIsFatal)
{
    const std::string path =
        writeRawBinary("mg_bad_rn.bin", 2, 2, {0, 1, 1}, {0, 1});
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_rn.bin: rowPtr ends at 1, not at its 2 edges");
    std::remove(path.c_str());
}

TEST(IoDeath, BinaryEdgeToAMissingNodeIsFatal)
{
    const std::string path =
        writeRawBinary("mg_bad_dst.bin", 2, 1, {0, 1, 1}, {2});
    EXPECT_EXIT(readBinary(path), testing::ExitedWithCode(1),
                "mg_bad_dst.bin: edge 0 points to node 2 of 2");
    std::remove(path.c_str());
}

TEST(IoDeath, DimacsNodeCountBeyondNodeIdIsFatal)
{
    // 2^32 nodes used to truncate silently to 0.
    const std::string path = testing::TempDir() + "/mg_bad_n.gr";
    std::ofstream(path) << "p sp 4294967296 0\n";
    EXPECT_EXIT(readDimacs(path), testing::ExitedWithCode(1),
                "mg_bad_n.gr claims 4294967296 nodes; at most"
                " 4294967294 fit a NodeId");
    std::remove(path.c_str());
}

/** FNV-1a over @p n bytes, continuing from @p h. */
std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Generators, GoldenCsrDigests)
{
    // Every workload's input at scale 0.05, seeds 1-3: the topology
    // digest covers rowPtr then dst, the weight digest the weights
    // as read through edgeWeight(). A change to a generator, to the
    // RNG or to the builder's order contract moves them.
    struct Golden
    {
        const char *workload;
        std::uint64_t seed;
        std::uint64_t topology;
        std::uint64_t weights;
    };
    const Golden golden[] = {
        {"sssp", 1, 0xd1b4449f47d58c25ull, 0x3f2238f577c160a5ull},
        {"sssp", 2, 0xd1b4449f47d58c25ull, 0x62bffc946b75c2a5ull},
        {"sssp", 3, 0xd1b4449f47d58c25ull, 0xd075a1c01e3fbf95ull},
        {"bfs", 1, 0xa4188d7508b07f9dull, 0xde1f5ea9bdee1b45ull},
        {"bfs", 2, 0xe1d9f9c52e74d1e6ull, 0x29e4bc57f2f7cc35ull},
        {"bfs", 3, 0x4a372ed4b488bb26ull, 0x1839373997c501a5ull},
        {"g500", 1, 0xae4b2fa7448bf9a0ull, 0x64b961a462b4e7e5ull},
        {"g500", 2, 0xf8521aa18cd3928aull, 0xf1e56cf95ded01c5ull},
        {"g500", 3, 0xddd710920435fa69ull, 0x51b0bb619ed05c55ull},
        {"cc", 1, 0x5b71820951c34d62ull, 0x1d59ca30338d15b5ull},
        {"cc", 2, 0x7eef411b1673a9c8ull, 0x9ce27fa26a274d45ull},
        {"cc", 3, 0x4f429d0ff7c26636ull, 0xadaa6b5ad6659d75ull},
        {"pr", 1, 0x39f6de1af82350abull, 0x5f61f08c46e91ce6ull},
        {"pr", 2, 0xd87efa304cfe630cull, 0xd581eab39cc63034ull},
        {"pr", 3, 0x19c4b1e72a81d0faull, 0x71f5644abf465af9ull},
        {"tc", 1, 0x23d0e0f081cc98afull, 0x09b60ba2c05462d5ull},
        {"tc", 2, 0x7e76b35651b9785dull, 0xdb9442dc3c29a2f5ull},
        {"tc", 3, 0x76aa98cf8dd6147bull, 0x1edf21aa5d702ab5ull},
        {"bc", 1, 0x63824a4d4fff3faaull, 0x20a635f0f999c985ull},
        {"bc", 2, 0x8c422ae420bda60dull, 0x776d4274fbd30eb5ull},
        {"bc", 3, 0x98070c3ff3b64d76ull, 0x776d4274fbd30eb5ull},
    };
    for (const Golden &want : golden) {
        harness::Workload w =
            harness::makeWorkload(want.workload, 0.05, want.seed);
        const CsrGraph &g = w.graph;
        std::vector<std::uint64_t> rowPtr;
        std::vector<NodeId> dst;
        std::vector<std::uint32_t> weight;
        for (NodeId v = 0; v < g.numNodes(); ++v)
            rowPtr.push_back(g.edgeBegin(v));
        rowPtr.push_back(g.numEdges());
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            dst.push_back(g.edgeDst(e));
            weight.push_back(g.edgeWeight(e));
        }
        const std::uint64_t topology =
            fnv1a(dst.data(), dst.size() * sizeof(NodeId),
                  fnv1a(rowPtr.data(), rowPtr.size() * 8));
        const std::uint64_t weights =
            fnv1a(weight.data(), weight.size() * 4);
        EXPECT_EQ(topology, want.topology)
            << want.workload << " seed " << want.seed;
        EXPECT_EQ(weights, want.weights)
            << want.workload << " seed " << want.seed;
    }
}

} // anonymous namespace
} // namespace minnow::graph
