/**
 * @file
 * Fig. 5: Galois execution-cycle breakdown at 64 threads into useful
 * work, worklist operations, and memory/serialization stalls. The
 * paper reports only 28% of cycles as useful work on average, with
 * CC worklist-dominated (92%).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 2.0, 64);
    opts.rejectUnused();

    banner("Fig. 5: Galois cycle breakdown, " +
               std::to_string(args.threads) + " threads",
           "avg useful work only 28%; CC most worklist-bound");

    TextTable table;
    table.header({"workload", "useful%", "app-stall%", "worklist%",
                  "idle%", "tasks", "cycles"});
    double sumUseful = 0;
    int counted = 0;
    std::vector<Point> points;
    for (const std::string &name : args.workloads)
        points.push_back({name, harness::Config::Obim, args.threads,
                          args.machine});
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < points.size(); ++k) {
        const harness::ExperimentResult &r = results[k];
        const std::string &name = points[k].workload;
        if (r.run.timedOut) {
            table.row({name, "TIMEOUT", "", "", "", "", ""});
            continue;
        }
        // Useful = app-phase uops at full dispatch width; the rest
        // of the app phase is memory/serialization stall.
        double appCycles = double(r.run.phaseCycles[0]);
        double wlCycles = double(r.run.phaseCycles[1]);
        double idleCycles = double(r.run.phaseCycles[2]);
        double useful = double(r.run.phaseUops[0]) /
                        args.machine.core.dispatchWidth;
        double total = appCycles + wlCycles + idleCycles;
        if (total <= 0)
            continue;
        double usefulPct = 100.0 * useful / total;
        sumUseful += usefulPct;
        ++counted;
        table.row({name, TextTable::num(usefulPct, 1),
                   TextTable::num(
                       100.0 * (appCycles - useful) / total, 1),
                   TextTable::num(100.0 * wlCycles / total, 1),
                   TextTable::num(100.0 * idleCycles / total, 1),
                   TextTable::count(r.run.tasks),
                   TextTable::count(r.run.cycles)});
    }
    table.print();
    if (counted) {
        std::printf(
            "average useful work: %.1f%% (paper: 28%%; our"
            " 'useful' is the stricter dispatch-width bound —"
            " retired app uops at full width — so it reads lower"
            " than the paper's commit-based attribution)\n",
            sumUseful / counted);
    }
    return 0;
}
