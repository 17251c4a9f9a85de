/**
 * @file
 * Fig. 15: Galois scalability 1..64 threads with and without Minnow
 * (prefetching disabled to isolate worklist offload), relative to
 * the optimized serial baseline (Galois with atomics removed).
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 2.0, 64);
    opts.rejectUnused();

    const std::vector<std::uint32_t> threads = {1, 2, 4, 8,
                                                16, 32, 64};
    banner("Fig. 15: scalability vs optimized serial baseline",
           "Galois scales to ~32 threads then flattens; CC slows"
           " past 16; Minnow keeps scaling");

    std::vector<std::uint32_t> counts;
    for (std::uint32_t t : threads) {
        if (t > args.threads)
            break;
        counts.push_back(t);
    }
    // Per workload: the serial baseline, then Galois and Minnow at
    // each thread count.
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        points.push_back(
            {name, harness::Config::SerialRelaxed, 1, args.machine});
        for (std::uint32_t t : counts) {
            points.push_back({name, harness::Config::Obim, t,
                              args.machine});
            points.push_back({name, harness::Config::Minnow, t,
                              args.machine});
        }
    }
    auto results = runPoints(args, points);
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        const harness::ExperimentResult *r =
            &results[k * (1 + 2 * counts.size())];
        double norm = double(r[0].run.cycles);
        std::printf("\n-- %s (serial baseline %s cycles) --\n",
                    args.workloads[k].c_str(),
                    TextTable::count(r[0].run.cycles).c_str());
        TextTable table;
        table.header({"threads", "galois", "minnow"});
        auto cell = [&](const harness::ExperimentResult &x) {
            if (x.run.timedOut)
                return std::string("TIMEOUT");
            return TextTable::num(norm / double(x.run.cycles), 2) + "x";
        };
        for (std::size_t i = 0; i < counts.size(); ++i) {
            table.row({std::to_string(counts[i]), cell(r[1 + 2 * i]),
                       cell(r[2 + 2 * i])});
        }
        table.print();
    }
    return 0;
}
