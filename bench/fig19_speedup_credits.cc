/**
 * @file
 * Fig. 19: Minnow prefetching speedup (vs Minnow with prefetching
 * disabled) as prefetch credits sweep 1..256. Paper shape: all
 * workloads gain (1.39x TC .. 2.47x BC); diminishing returns near
 * 32-64 credits; G500 degrades past its optimum (cache overflow on
 * the scale-free input).
 */

#include <cstdio>

#include "credit_sweep.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 64);
    auto credits = creditsFromOpts(opts);
    opts.rejectUnused();

    banner("Fig. 19: prefetching speedup vs credits (normalized to"
           " Minnow, prefetch off)",
           "gains 1.39x-2.47x; diminishing past 32-64; G500 drops"
           " at high credits");

    TextTable table;
    std::vector<std::string> header = {"workload"};
    for (auto c : credits)
        header.push_back(std::to_string(c));
    table.header(header);
    for (const CreditSweep &s : sweepCredits(args, credits)) {
        std::vector<std::string> row = {s.workload};
        for (const CreditPoint &p : s.points) {
            row.push_back(p.timedOut
                              ? "T/O"
                              : TextTable::num(p.speedup, 2) + "x");
        }
        table.row(row);
    }
    table.print();
    return 0;
}
