/**
 * @file
 * Fig. 16: overall Minnow speedup vs the optimized Galois software
 * baseline at 64 threads, with and without worklist-directed
 * prefetching. The paper reports per-workload speedups averaging
 * 2.96x (offload only) and 6.01x (offload + prefetch).
 *
 * --stats-json=<path> captures every run's full registry snapshot
 * (per-core MPKI, prefetch coverage/accuracy, engine counters) for
 * machine-readable comparison against the figure.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

namespace
{

/** Paper Fig. 16 approximate speedups (read off the figure). */
double
paperNoPf(const std::string &w)
{
    if (w == "sssp") return 2.4;
    if (w == "bfs") return 2.7;
    if (w == "g500") return 2.6;
    if (w == "cc") return 6.5;
    if (w == "pr") return 3.3;
    if (w == "tc") return 1.1;
    if (w == "bc") return 2.1;
    return 0;
}

double
paperWithPf(const std::string &w)
{
    if (w == "sssp") return 4.6;
    if (w == "bfs") return 6.3;
    if (w == "g500") return 5.9;
    if (w == "cc") return 12.4;
    if (w == "pr") return 6.7;
    if (w == "tc") return 1.5;
    if (w == "bc") return 5.2;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 4.0, 64);
    opts.rejectUnused();

    banner("Fig. 16: Minnow speedup vs software baseline, " +
               std::to_string(args.threads) + " threads",
           "avg 2.96x (Minnow), 6.01x (Minnow+prefetch)");

    TextTable table;
    table.header({"workload", "galois(cyc)", "minnow(cyc)",
                  "minnow+pf(cyc)", "speedup", "speedup+pf",
                  "paper", "paper+pf"});
    double geoNoPf = 1, geoPf = 1;
    int counted = 0;
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        for (harness::Config c :
             {harness::Config::Obim, harness::Config::Minnow,
              harness::Config::MinnowPf})
            points.push_back({name, c, args.threads, args.machine});
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        const std::string &name = args.workloads[k];
        const galois::RunResult &base = results[3 * k].run;
        const galois::RunResult &mn = results[3 * k + 1].run;
        const galois::RunResult &pf = results[3 * k + 2].run;
        double s1 = base.timedOut || mn.timedOut
                        ? 0
                        : double(base.cycles) / mn.cycles;
        double s2 = base.timedOut || pf.timedOut
                        ? 0
                        : double(base.cycles) / pf.cycles;
        if (s1 > 0 && s2 > 0) {
            geoNoPf *= s1;
            geoPf *= s2;
            ++counted;
        }
        table.row({name, cyclesOrTimeout(base), cyclesOrTimeout(mn),
                   cyclesOrTimeout(pf), TextTable::num(s1, 2) + "x",
                   TextTable::num(s2, 2) + "x",
                   TextTable::num(paperNoPf(name), 1) + "x",
                   TextTable::num(paperWithPf(name), 1) + "x"});
    }
    table.print();
    if (counted) {
        std::printf("geomean speedup: %.2fx (minnow), %.2fx"
                    " (minnow+prefetch); paper avg: 2.96x / 6.01x\n",
                    std::pow(geoNoPf, 1.0 / counted),
                    std::pow(geoPf, 1.0 / counted));
    }
    return 0;
}
