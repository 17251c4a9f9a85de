/**
 * @file
 * Fig. 6: delinquent load density — the fraction of all loads that
 * are first accesses to graph nodes/edges (the frequently-missing
 * loads). The paper reports ~10% on average: large OOO windows hold
 * mostly stack traffic and secondary accesses, which is the Section
 * 3.4 motivation for offloading helper threads to an engine whose
 * load buffer holds only delinquent loads.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 16);
    opts.rejectUnused();

    banner("Fig. 6: delinquent load density",
           "~10% of loads are delinquent on average");

    TextTable table;
    table.header({"workload", "delinquent", "all-loads", "density%",
                  "lq72-delinquent"});
    double sum = 0;
    int counted = 0;
    std::vector<Point> points;
    for (const std::string &name : args.workloads)
        points.push_back({name, harness::Config::Obim, args.threads,
                          args.machine});
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < points.size(); ++k) {
        const harness::ExperimentResult &r = results[k];
        if (r.run.timedOut || r.run.allLoads == 0)
            continue;
        double density =
            100.0 * double(r.run.delinquentLoads) / r.run.allLoads;
        sum += density;
        ++counted;
        // Of a 72-entry Skylake load queue, how many entries hold
        // delinquent loads on average (the paper's ~7)?
        double lqShare = 72.0 * density / 100.0;
        table.row({points[k].workload, TextTable::count(r.run.delinquentLoads),
                   TextTable::count(r.run.allLoads),
                   TextTable::num(density, 1),
                   TextTable::num(lqShare, 1)});
    }
    table.print();
    if (counted) {
        std::printf("average density: %.1f%% (paper: ~10%%; ~7 of"
                    " 72 LQ entries delinquent)\n",
                    sum / counted);
    }
    return 0;
}
