/**
 * @file
 * Ablation: the Section 6.2.1 task-splitting threshold on the
 * hub-dominated G500 input. Without splitting, Amdahl's Law caps
 * speedup at the largest node's share of edges (the paper's
 * rmat16-2e22 capped at 3.65x); with splitting, the hub's edges
 * process in parallel.
 */

#include <cstdio>

#include "apps/sssp.hh"
#include "bench_common.hh"
#include "graph/gstats.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 32);
    opts.rejectUnused();

    banner("Ablation: task splitting threshold on g500 (rmat)",
           "no splitting caps parallel speedup at the hub's edge"
           " share");

    harness::Workload w =
        harness::makeWorkload("g500", args.scale, args.seed);
    graph::GraphStats gs = graph::analyzeGraph(w.graph);
    std::printf("input: %s, max degree %s of %s edges (%.1f%%)\n",
                w.inputDesc.c_str(),
                TextTable::count(gs.maxDegree).c_str(),
                TextTable::count(gs.edges).c_str(),
                100.0 * gs.maxDegree / double(gs.edges));

    TextTable t;
    t.header({"threshold", "cycles", "speedup-vs-nosplit",
              "tasks"});
    const std::uint32_t thresholds[] = {0,   64,   128, 256,
                                        512, 1024, 4096};
    std::vector<Point> points;
    for (std::uint32_t thr : thresholds) {
        Point p{"g500", harness::Config::MinnowPf, args.threads,
                args.machine};
        std::uint32_t effective = thr == 0 ? (1u << 30) : thr;
        p.prepare = [effective](harness::Workload &wl) {
            wl.app = std::make_unique<apps::SsspApp>(
                &wl.graph, 0, true, effective, "g500");
        };
        points.push_back(p);
    }
    auto results = runPoints(args, points);
    double nosplit = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::uint32_t thr = thresholds[i];
        const harness::ExperimentResult &r = results[i];
        double c = r.run.timedOut ? 0 : double(r.run.cycles);
        if (thr == 0)
            nosplit = c;
        t.row({thr == 0 ? "off" : std::to_string(thr),
               cyclesOrTimeout(r.run),
               (c && nosplit)
                   ? TextTable::num(nosplit / c, 2) + "x"
                   : "-",
               TextTable::count(r.run.tasks)});
    }
    t.print();
    return 0;
}
