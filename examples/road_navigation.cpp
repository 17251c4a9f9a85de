/**
 * @file
 * Scenario: road-network navigation server.
 *
 * A batch of point-to-point shortest-path queries over a large
 * weighted road grid (the USA-road class input), answered by
 * delta-stepping SSSP runs on the simulated CMP. Demonstrates the
 * scheduler-choice story of Section 3.1: the same query answered
 * under OBIM, plain FIFO, and Minnow differs massively in executed
 * work, and the DIMACS I/O path for loading real road files.
 *
 *   ./examples/road_navigation [--side=120] [--queries=3]
 *       [--threads=16] [--gr=path/to/file.gr]
 */

#include <cstdio>

#include "apps/sssp.hh"
#include "base/options.hh"
#include "base/table.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "graph/gstats.hh"
#include "graph/io.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"
#include "worklist/chunked.hh"
#include "worklist/obim.hh"

using namespace minnow;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    std::uint32_t side = opts.getU32("side", 120);
    std::uint32_t queries = opts.getU32("queries", 3);
    std::uint32_t threads = opts.getU32("threads", 16);
    std::string grPath = opts.getString("gr", "");
    opts.rejectUnused();

    // Load a real DIMACS road file when given one; otherwise
    // generate the scaled road-grid stand-in.
    graph::CsrGraph g;
    if (!grPath.empty()) {
        std::printf("loading DIMACS file %s...\n", grPath.c_str());
        g = graph::readDimacs(grPath);
    } else {
        g = graph::gridGraph(side, side, 100, 7);
    }
    graph::GraphStats gs = graph::analyzeGraph(g);
    std::printf("road network: %s junctions, %s segments,"
                " diameter ~%u hops\n\n",
                TextTable::count(gs.nodes).c_str(),
                TextTable::count(gs.edges).c_str(), gs.estDiameter);

    Rng rng(99);
    TextTable table;
    table.header({"query", "dest-dist", "obim-cycles",
                  "fifo-cycles", "minnow-pf-cycles",
                  "obim-edges", "fifo-edges"});

    for (std::uint32_t q = 0; q < queries; ++q) {
        NodeId src = NodeId(rng.below(g.numNodes()));
        NodeId dst = NodeId(rng.below(g.numNodes()));

        auto query = [&](int mode) {
            MachineConfig cfg = scaledMachine();
            cfg.numCores = threads;
            cfg.minnow.enabled = mode == 2;
            cfg.minnow.prefetchEnabled = mode == 2;
            runtime::Machine m(cfg);
            g.assignAddresses(m.alloc);
            apps::SsspApp app(&g, src, false, 1u << 30, "sssp");
            galois::RunConfig rc;
            rc.threads = threads;
            galois::RunResult r;
            if (mode == 0) {
                worklist::ObimWorklist wl(&m, 4, 16, 8);
                r = galois::runParallel(m, app, wl, rc);
            } else if (mode == 1) {
                worklist::ChunkedWorklist wl(
                    &m, worklist::ChunkedWorklist::Policy::Fifo,
                    32, 8);
                r = galois::runParallel(m, app, wl, rc);
            } else {
                r = galois::runMinnow(m, app, 4, rc);
            }
            if (!r.verified && !r.timedOut) {
                std::fprintf(stderr,
                             "WARNING: query verification failed\n");
            }
            return std::pair<galois::RunResult, std::uint32_t>(
                r, app.distances()[dst]);
        };

        auto [obim, d0] = query(0);
        auto [fifo, d1] = query(1);
        auto [mpf, d2] = query(2);
        if (d0 != d1 || d1 != d2) {
            std::fprintf(stderr, "WARNING: query %u distance"
                                 " mismatch across schedulers\n",
                         q);
        }
        table.row({std::to_string(q),
                   d0 == apps::SsspApp::kInf ? "unreachable"
                                             : std::to_string(d0),
                   TextTable::count(obim.cycles),
                   TextTable::count(fifo.cycles),
                   TextTable::count(mpf.cycles),
                   TextTable::count(obim.workload.edgesVisited),
                   TextTable::count(fifo.workload.edgesVisited)});
    }
    table.print();
    std::printf("\nnote: FIFO visits more edges than OBIM on road"
                " networks (work inefficiency of unordered"
                " scheduling); Minnow answers fastest.\n");
    return 0;
}
