/**
 * @file
 * Ablation: cores per Minnow engine (Section 4: "Cores may share a
 * single Minnow engine to reduce resources. This work focuses on
 * dedicated engines."). Sweeps the sharing degree and reports the
 * performance/area trade-off using the Section 5.4 model.
 */

#include <cstdio>

#include "bench_common.hh"
#include "minnow/area.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 16);
    std::string workload = opts.getString("workload", "bfs");
    opts.rejectUnused();

    banner("Ablation: cores per Minnow engine (" + workload + ", " +
               std::to_string(args.threads) + " threads)",
           "the paper evaluates dedicated engines (1 core/engine)");

    TextTable t;
    t.header({"cores/engine", "cycles", "slowdown", "engine-area"
              " mm^2 total@14nm", "deq-blocks"});
    const std::uint32_t shares[] = {1, 2, 4, 8};
    std::vector<Point> points;
    for (std::uint32_t share : shares) {
        Point p{workload, harness::Config::MinnowPf, args.threads,
                args.machine};
        p.machine.minnow.coresPerEngine = share;
        points.push_back(p);
    }
    auto results = runPoints(args, points);
    double base = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::uint32_t share = shares[i];
        const harness::ExperimentResult &r = results[i];
        double c = r.run.timedOut ? 0 : double(r.run.cycles);
        if (share == 1)
            base = c;
        minnowengine::AreaEstimate area =
            minnowengine::estimateArea(points[i].machine);
        double totalArea = area.totalMm2At14 *
                           ((args.threads + share - 1) / share);
        t.row({std::to_string(share), cyclesOrTimeout(r.run),
               (c && base) ? TextTable::num(c / base, 2) + "x"
                           : "-",
               TextTable::num(totalArea, 3),
               TextTable::count(r.engines.dequeueBlocks)});
    }
    t.print();
    return 0;
}
