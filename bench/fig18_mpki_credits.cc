/**
 * @file
 * Fig. 18: Minnow prefetching effect on L2 misses per
 * kilo-instruction as prefetch credits sweep 1..256. Paper shape:
 * without prefetching all benchmarks except TC sit above 20 MPKI;
 * MPKI falls with credits, is minimized between 32 and 128, and
 * over-aggressive prefetching thrashes the L2 (MPKI rises again on
 * several inputs; SSSP cannot hide everything).
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

    banner("Fig. 18: L2 MPKI vs prefetch credits",
           "no-pf MPKI >20 (except tc); minimum between 32-128"
           " credits");

    TextTable table;
    std::vector<std::string> header = {"workload", "no-pf"};
    for (auto c : credits)
        header.push_back(std::to_string(c));
    table.header(header);
    for (const CreditSweep &s : sweepCredits(args, credits)) {
        std::vector<std::string> row = {
            s.workload, TextTable::num(s.baseMpki, 1)};
        for (const CreditPoint &p : s.points) {
            row.push_back(p.timedOut ? "T/O"
                                     : TextTable::num(p.mpki, 1));
        }
        table.row(row);
    }
    table.print();
    return 0;
}
