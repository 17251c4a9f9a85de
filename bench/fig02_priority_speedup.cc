/**
 * @file
 * Fig. 2: Galois (OBIM and FIFO) and GraphMat speedup at 10 threads,
 * normalized to single-threaded GraphMat. The paper's headline:
 * SSSP is extraordinarily sensitive to priority ordering (576x for
 * OBIM over unordered GraphMat; GMat*, a bucketed GraphMat kernel,
 * recovers only ~2x of it).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 10);
    opts.rejectUnused();

    banner("Fig. 2: priority-ordering speedup vs 1-thread GraphMat, " +
               std::to_string(args.threads) + " threads",
           "SSSP: Galois-OBIM 576x vs GraphMat; GMat* ~2x over"
           " GraphMat");

    TextTable table;
    table.header({"workload", "gmat1T(cyc)", "gmat", "gmat*",
                  "galois-obim", "galois-fifo"});
    // Per workload: 1-thread GraphMat (the normalizer), then
    // GraphMat, GMat*, Galois-OBIM and Galois-FIFO at --threads.
    const harness::Config configs[] = {
        harness::Config::Bsp, harness::Config::BspBucketed,
        harness::Config::Obim, harness::Config::Fifo};
    std::vector<std::string> names;
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        if (name == "tc" || name == "bc")
            continue; // Fig. 2 covers BFS/G500/SSSP/CC/PR.
        names.push_back(name);
        points.push_back({name, harness::Config::Bsp, 1, args.machine});
        for (harness::Config c : configs)
            points.push_back({name, c, args.threads, args.machine});
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < names.size(); ++k) {
        const harness::ExperimentResult *r = &results[5 * k];
        double norm = double(r[0].run.cycles);
        auto speedup = [&](const harness::ExperimentResult &x) {
            if (x.run.timedOut || x.run.cycles == 0)
                return std::string("TIMEOUT");
            return TextTable::num(norm / double(x.run.cycles), 2) +
                   "x";
        };
        table.row({names[k], TextTable::count(r[0].run.cycles),
                   speedup(r[1]), speedup(r[2]), speedup(r[3]),
                   speedup(r[4])});
    }
    table.print();
    std::printf("expected shape: OBIM >> GraphMat on sssp (ordering"
                " changes Big-O); gmat* between; bfs/g500/cc/pr less"
                " sensitive.\n");
    return 0;
}
