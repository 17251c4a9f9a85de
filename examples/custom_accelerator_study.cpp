/**
 * @file
 * Scenario: architecture study with the simulator's public API.
 *
 * Uses the library the way a computer-architecture researcher
 * would: define a candidate Minnow engine configuration, sweep one
 * design parameter (prefetch credits), and read out the
 * cost/performance curve together with the area model — a
 * miniature design-space exploration built entirely on the public
 * API (Machine, runMinnow, estimateArea).
 *
 *   ./examples/custom_accelerator_study [--threads=16]
 */

#include <cstdio>

#include "apps/sssp.hh"
#include "base/options.hh"
#include "base/table.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "minnow/area.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"

using namespace minnow;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    std::uint32_t threads =
        std::uint32_t(opts.getUint("threads", 16));
    opts.rejectUnused();

    graph::CsrGraph g = graph::randomGraph(20000, 4.0, 11);
    std::printf("design-space study: BFS on random graph (%s"
                " nodes), %u cores\n\n",
                TextTable::count(g.numNodes()).c_str(), threads);

    TextTable table;
    table.header({"credits", "cycles", "L2 MPKI", "pf-efficiency%",
                  "engine mm^2@14nm", "perf/area"});

    double bestPerfPerArea = 0;
    std::uint32_t bestCredits = 0;
    for (std::uint32_t credits : {4u, 16u, 32u, 64u, 128u}) {
        MachineConfig cfg = scaledMachine();
        cfg.numCores = threads;
        cfg.minnow.enabled = true;
        cfg.minnow.prefetchEnabled = true;
        cfg.minnow.prefetchCredits = credits;

        runtime::Machine m(cfg);
        g.assignAddresses(m.alloc);
        apps::SsspApp app(&g, 0, true, 1u << 30, "bfs");
        galois::RunConfig rc;
        rc.threads = threads;
        galois::RunResult r = galois::runMinnow(m, app, 0, rc);
        minnowengine::AreaEstimate area =
            minnowengine::estimateArea(cfg);

        double eff =
            r.mem.prefetchFills
                ? 100.0 * double(r.mem.prefetchUsed) /
                      double(r.mem.prefetchFills)
                : 0.0;
        double perfPerArea =
            r.cycles ? 1e9 / (double(r.cycles) * area.totalMm2At14)
                     : 0;
        if (perfPerArea > bestPerfPerArea) {
            bestPerfPerArea = perfPerArea;
            bestCredits = credits;
        }
        table.row({std::to_string(credits),
                   TextTable::count(r.cycles),
                   TextTable::num(r.l2Mpki, 1),
                   TextTable::num(eff, 1),
                   TextTable::num(area.totalMm2At14, 4),
                   TextTable::num(perfPerArea, 2)});
    }
    table.print();
    std::printf("\nbest perf/area at %u credits — the credit system"
                " costs no area, so the knee of the MPKI curve"
                " decides.\n",
                bestCredits);
    return 0;
}
