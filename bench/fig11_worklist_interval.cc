/**
 * @file
 * Fig. 11: average cycles between worklist enqueue/dequeue
 * operations per core. The paper uses this (ops once every few
 * hundred cycles) to argue the Minnow engine front-end does not
 * need an aggressive design.
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

    banner("Fig. 11: average cycles per worklist enq/deq operation",
           "hundreds of cycles between accelerator calls");

    TextTable table;
    table.header({"workload", "pushes", "pops", "core-cycles",
                  "cycles/op"});
    std::vector<Point> points;
    for (const std::string &name : args.workloads)
        points.push_back({name, harness::Config::Minnow, args.threads,
                          args.machine});
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < points.size(); ++k) {
        const harness::ExperimentResult &r = results[k];
        const std::string &name = points[k].workload;
        if (r.run.timedOut) {
            table.row({name, "TIMEOUT", "", "", ""});
            continue;
        }
        std::uint64_t ops =
            r.engines.enqueues + r.engines.dequeues;
        double coreCycles =
            double(r.run.cycles) * args.threads;
        table.row({name, TextTable::count(r.engines.enqueues),
                   TextTable::count(r.engines.dequeues),
                   TextTable::count(r.run.cycles),
                   ops ? TextTable::num(coreCycles / ops, 0)
                       : "-"});
    }
    table.print();
    return 0;
}
