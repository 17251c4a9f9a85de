/**
 * @file
 * Scenario: social-network analytics pipeline.
 *
 * The intro workloads the paper motivates — community structure and
 * influence ranking over a skewed social graph — run back to back
 * on one simulated CMP: connected components to find communities,
 * then PageRank to rank members, both under Minnow with
 * worklist-directed prefetching, with a software-Galois reference
 * run for comparison.
 *
 *   ./examples/social_network_analytics [--users=20000]
 *       [--threads=32] [--minnow=true]
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "apps/cc.hh"
#include "apps/pr.hh"
#include "base/options.hh"
#include "base/table.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"
#include "worklist/obim.hh"

using namespace minnow;

namespace
{

galois::RunResult
runOnce(apps::App &app, graph::CsrGraph &g, std::uint32_t threads,
        bool useMinnow, std::uint32_t lgDelta)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = threads;
    cfg.minnow.enabled = useMinnow;
    cfg.minnow.prefetchEnabled = useMinnow;
    runtime::Machine m(cfg);
    g.assignAddresses(m.alloc);
    app.reset();
    galois::RunConfig rc;
    rc.threads = threads;
    if (useMinnow)
        return galois::runMinnow(m, app, lgDelta, rc);
    worklist::ObimWorklist wl(&m, lgDelta, 16, 8);
    return galois::runParallel(m, app, wl, rc);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    NodeId users = opts.getU32("users", 20000);
    std::uint32_t threads = opts.getU32("threads", 32);
    bool useMinnow = opts.getBool("minnow", true);
    opts.rejectUnused();

    // A follower-style graph: power-law in and out degrees.
    graph::CsrGraph g =
        graph::powerLawGraph(users, 8.0, 0.9, 42, true);
    std::printf("social graph: %s users, %s follow edges\n\n",
                TextTable::count(g.numNodes()).c_str(),
                TextTable::count(g.numEdges()).c_str());

    // Stage 1: communities via connected components.
    apps::CcApp cc(&g, 256);
    galois::RunResult ccRun =
        runOnce(cc, g, threads, useMinnow, 6);
    std::map<NodeId, std::uint64_t> sizes;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        sizes[cc.labels()[v]] += 1;
    std::uint64_t biggest = 0;
    for (const auto &[label, n] : sizes)
        biggest = std::max(biggest, n);
    std::printf("stage 1 (components): %zu communities, largest"
                " %s users  [%s cycles, verified=%s]\n",
                sizes.size(), TextTable::count(biggest).c_str(),
                TextTable::count(ccRun.cycles).c_str(),
                ccRun.verified ? "yes" : "NO");

    // Stage 2: influence ranking via data-driven PageRank.
    apps::PrApp pr(&g, 0.85, 1e-4, 1u << 30);
    galois::RunResult prRun =
        runOnce(pr, g, threads, useMinnow, 4);
    std::vector<NodeId> order(g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](NodeId a, NodeId b) {
                          return pr.ranks()[a] > pr.ranks()[b];
                      });
    std::printf("stage 2 (pagerank):  [%s cycles, verified=%s]\n"
                "top influencers:\n",
                TextTable::count(prRun.cycles).c_str(),
                prRun.verified ? "yes" : "NO");
    for (int i = 0; i < 5; ++i) {
        std::printf("  user %-8u rank %.5f  degree %u\n", order[i],
                    pr.ranks()[order[i]], g.degree(order[i]));
    }

    std::printf("\npipeline total: %s simulated cycles under %s\n",
                TextTable::count(ccRun.cycles + prRun.cycles)
                    .c_str(),
                useMinnow ? "Minnow (offload + prefetch)"
                          : "software Galois");
    return 0;
}
