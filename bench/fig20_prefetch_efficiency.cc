/**
 * @file
 * Fig. 20: prefetch efficiency — prefetched lines used before
 * eviction as a fraction of all prefetch fills — across the credit
 * sweep, plus the IMP prefetcher's efficiency for contrast. Paper
 * shape: near-100% at low credits, degrading for G500/CC/PR/BC as
 * aggressiveness grows; 32 credits give >99% everywhere; IMP is far
 * less efficient.
 *
 * The last three columns come from one extra --attribution run at
 * 32 credits per workload: accuracy (fills used before eviction,
 * per the provenance tracker), timeliness (timely share of the used
 * fills — the rest were late, i.e. demanded while still in flight),
 * and pollution (fills whose victim re-missed inside the window).
 */

#include <cstdio>
#include <string>

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

    banner("Fig. 20: prefetch efficiency (used-before-evict /"
           " fills) vs credits, plus IMP",
           ">99% at 32 credits for all workloads; IMP much lower");

    TextTable table;
    std::vector<std::string> header = {"workload"};
    for (auto c : credits)
        header.push_back(std::to_string(c));
    header.push_back("imp");
    header.push_back("acc%@32");
    header.push_back("timely%@32");
    header.push_back("pollut%@32");
    table.header(header);
    // Per workload, after its sweep: the IMP efficiency point
    // (hardware prefetcher, same system), and the paper-point
    // credit count (32) re-run with the provenance tracker on.
    auto extra = [&](const std::string &name) {
        Point imp{name, harness::Config::Minnow, args.threads,
                  args.machine};
        imp.machine.prefetcher = PrefetcherKind::Imp;
        Point attr{name, harness::Config::MinnowPf, args.threads,
                   args.machine};
        attr.machine.minnow.prefetchCredits = 32;
        attr.machine.attribution = true;
        return std::vector<Point>{imp, attr};
    };
    for (const CreditSweep &s : sweepCredits(args, credits, extra)) {
        std::vector<std::string> row = {s.workload};
        for (const CreditPoint &p : s.points) {
            row.push_back(p.timedOut
                              ? "T/O"
                              : TextTable::num(p.efficiency, 1));
        }
        const galois::RunResult &imp = s.extra[0].run;
        std::uint64_t fills = imp.mem.prefetchFills;
        row.push_back(
            fills ? TextTable::num(100.0 * double(imp.mem.prefetchUsed) /
                                       double(fills),
                                   1)
                  : "-");
        const StatsReport &ar = s.extra[1].run.report;
        double afills = ar.get("attribution.fills");
        double timely = ar.get("attribution.timely");
        double used = timely + ar.get("attribution.late");
        row.push_back(
            afills ? TextTable::num(100.0 * used / afills, 1)
                   : "-");
        row.push_back(
            used > 0 ? TextTable::num(100.0 * timely / used, 1)
                     : "-");
        row.push_back(
            afills ? TextTable::num(ar.get("attribution.pollutionPct"),
                                    2)
                   : "-");
        table.row(row);
    }
    table.print();
    return 0;
}
