/**
 * @file
 * Quickstart: the paper's Fig. 1 scenario end to end.
 *
 * Builds a weighted road-style grid, runs SSSP delta-stepping three
 * ways on a simulated 16-core machine — software Galois OBIM,
 * Minnow offload, and Minnow with worklist-directed prefetching —
 * verifies each against Dijkstra, and prints the cycle counts and
 * cache behaviour side by side.
 *
 *   ./examples/quickstart [--threads=16] [--side=100] [--seed=1]
 */

#include <cstdio>

#include "apps/sssp.hh"
#include "base/options.hh"
#include "base/table.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "graph/gstats.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"
#include "worklist/obim.hh"

using namespace minnow;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    std::uint32_t threads =
        std::uint32_t(opts.getUint("threads", 16));
    std::uint32_t side = std::uint32_t(opts.getUint("side", 100));
    std::uint64_t seed = opts.getUint("seed", 1);
    opts.rejectUnused();

    // 1. Build the input graph: a weighted grid, the road-network
    //    class that makes SSSP priority-sensitive.
    graph::CsrGraph g = graph::gridGraph(side, side, 100, seed);
    graph::GraphStats gs = graph::analyzeGraph(g);
    std::printf("input: %ux%u grid, %s nodes, %s edges, diameter"
                " ~%u\n\n",
                side, side, TextTable::count(gs.nodes).c_str(),
                TextTable::count(gs.edges).c_str(), gs.estDiameter);

    TextTable table;
    table.header({"config", "cycles", "L2 MPKI", "tasks",
                  "verified"});

    auto report = [&](const char *label,
                      const galois::RunResult &r) {
        table.row({label, TextTable::count(r.cycles),
                   TextTable::num(r.l2Mpki, 1),
                   TextTable::count(r.tasks),
                   r.verified ? "yes" : "NO"});
    };

    // 2. Software baseline: Galois-style OBIM priority worklist.
    {
        MachineConfig cfg = scaledMachine();
        cfg.numCores = threads;
        runtime::Machine m(cfg);
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        worklist::ObimWorklist wl(&m, 4, 16, 8);
        galois::RunConfig rc;
        rc.threads = threads;
        report("galois-obim", galois::runParallel(m, app, wl, rc));
    }

    // 3. Minnow: worklist scheduling offloaded to per-core engines.
    {
        MachineConfig cfg = scaledMachine();
        cfg.numCores = threads;
        cfg.minnow.enabled = true;
        runtime::Machine m(cfg);
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        galois::RunConfig rc;
        rc.threads = threads;
        report("minnow",
               galois::runMinnow(m, app, 4, rc));
    }

    // 4. Minnow + worklist-directed prefetching: the engines also
    //    prefetch each scheduled task's node/edge/destination data
    //    into the L2, throttled by 32 cacheline credits.
    {
        MachineConfig cfg = scaledMachine();
        cfg.numCores = threads;
        cfg.minnow.enabled = true;
        cfg.minnow.prefetchEnabled = true;
        runtime::Machine m(cfg);
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
        galois::RunConfig rc;
        rc.threads = threads;
        minnowengine::EngineStats es;
        galois::RunResult r =
            galois::runMinnow(m, app, 4, rc, &es);
        report("minnow+prefetch", r);
        std::printf("prefetch: %s fills, %.1f%% used before"
                    " eviction\n",
                    TextTable::count(r.mem.prefetchFills).c_str(),
                    r.mem.prefetchFills
                        ? 100.0 * double(r.mem.prefetchUsed) /
                              double(r.mem.prefetchFills)
                        : 0.0);
    }

    std::printf("\n");
    table.print();
    return 0;
}
