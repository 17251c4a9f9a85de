/**
 * @file
 * Fig. 17: 16-thread prefetcher comparison — classic stride, IMP
 * (re-tuned per the paper: 4x tables, distance 4), and Minnow
 * worklist-directed prefetching — normalized to Minnow with
 * prefetching disabled.
 *
 * Paper shape: IMP ~ stride except on G500/PR/TC (dense indirect
 * streams); both useless on the low-degree mesh inputs (SSSP, BFS)
 * because the prefetch distance exceeds node degree; Minnow's
 * proactive prefetching wins everywhere.
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

    banner("Fig. 17: prefetching speedup vs Minnow-without-prefetch,"
           " " + std::to_string(args.threads) + " threads",
           "stride ~ IMP except g500/pr/tc; Minnow best across the"
           " board");

    TextTable table;
    table.header({"workload", "stride", "imp", "minnow-pf",
                  "imp-patterns"});
    // Per workload: Minnow without prefetching (the normalizer),
    // then stride and IMP — a hardware L2 prefetcher on the same
    // Minnow-offload system instead of worklist direction, so the
    // comparison isolates the prefetching mechanism — then
    // Minnow's own prefetching.
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        Point base{name, harness::Config::Minnow, args.threads,
                   args.machine};
        Point stride = base;
        stride.machine.prefetcher = PrefetcherKind::Stride;
        Point imp = base;
        imp.machine.prefetcher = PrefetcherKind::Imp;
        Point mpf = base;
        mpf.config = harness::Config::MinnowPf;
        points.insert(points.end(), {base, stride, imp, mpf});
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        const harness::ExperimentResult *r = &results[4 * k];
        double norm = double(r[0].run.cycles);
        auto cell = [&](const harness::ExperimentResult &x) {
            if (x.run.timedOut || r[0].run.timedOut)
                return std::string("TIMEOUT");
            return TextTable::num(norm / double(x.run.cycles), 2) +
                   "x";
        };
        table.row({args.workloads[k], cell(r[1]), cell(r[2]),
                   cell(r[3]), "-"});
    }
    table.print();
    std::printf("note: all configs share Minnow worklist offload;"
                " only the prefetching mechanism differs.\n");
    return 0;
}
