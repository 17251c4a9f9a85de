/**
 * @file
 * Extension study (paper conclusion: "extending Minnow to
 * accelerate other classes of irregular workloads"): maximal
 * independent set and k-core decomposition under the same
 * configurations as Fig. 16.
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

    banner("Extension workloads under Minnow (" +
               std::to_string(args.threads) + " threads)",
           "beyond the paper: MIS (dataflow greedy) and k-core"
           " peeling");

    TextTable table;
    table.header({"workload", "galois(cyc)", "minnow(cyc)",
                  "minnow+pf(cyc)", "speedup", "speedup+pf",
                  "verified"});
    std::vector<Point> points;
    for (const char *name : {"mis", "kcore"}) {
        for (harness::Config c :
             {harness::Config::Obim, harness::Config::Minnow,
              harness::Config::MinnowPf})
            points.push_back({name, c, args.threads, args.machine});
    }
    auto results = runPoints(args, points);
    for (std::size_t i = 0; i < points.size(); i += 3) {
        const galois::RunResult &base = results[i].run;
        const galois::RunResult &mn = results[i + 1].run;
        const galois::RunResult &pf = results[i + 2].run;
        bool ok = base.verified && mn.verified && pf.verified;
        double s1 =
            mn.timedOut ? 0 : double(base.cycles) / mn.cycles;
        double s2 =
            pf.timedOut ? 0 : double(base.cycles) / pf.cycles;
        table.row({points[i].workload, cyclesOrTimeout(base),
                   cyclesOrTimeout(mn), cyclesOrTimeout(pf),
                   TextTable::num(s1, 2) + "x",
                   TextTable::num(s2, 2) + "x", ok ? "yes" : "NO"});
    }
    table.print();
    return 0;
}
