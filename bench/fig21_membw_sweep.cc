/**
 * @file
 * Fig. 21: 64-thread speedup vs number of DRAM channels (relative
 * to the 12-channel configuration), with and without
 * worklist-directed prefetching. Paper shape: without prefetching,
 * workloads are latency-bound — only dropping below ~4 channels
 * hurts; with prefetching, Minnow converts several workloads to
 * bandwidth-bound (sensitive across the sweep); TC (in-LLC input)
 * is insensitive throughout.
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

    const std::vector<std::uint32_t> channels = {1, 2, 4, 8, 12};
    banner("Fig. 21: speedup vs memory channels (normalized to 12"
           " channels)",
           "latency-bound without prefetch (flat to ~4ch);"
           " bandwidth-bound with prefetch; TC insensitive");

    // Per workload and channel count: Minnow without, then with
    // prefetching.
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        for (std::uint32_t ch : channels) {
            Point off{name, harness::Config::Minnow, args.threads,
                      args.machine};
            off.machine.dram.channels = ch;
            Point on = off;
            on.config = harness::Config::MinnowPf;
            points.insert(points.end(), {off, on});
        }
    }
    auto results = runPoints(args, points);
    auto cycles = [&](std::size_t i) {
        return results[i].run.timedOut ? 0
                                       : double(results[i].run.cycles);
    };
    const std::size_t n = channels.size();
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        std::printf("\n-- %s --\n", args.workloads[k].c_str());
        TextTable table;
        table.header({"channels", "minnow", "minnow+pf"});
        std::size_t first = 2 * n * k;
        double norm[2] = {0, 0};
        for (std::size_t i = 0; i < n; ++i) {
            if (channels[i] == 12) {
                norm[0] = cycles(first + 2 * i);
                norm[1] = cycles(first + 2 * i + 1);
            }
        }
        auto cell = [&](double v, double nv) {
            if (v == 0 || nv == 0)
                return std::string("T/O");
            return TextTable::num(nv / v, 2) + "x";
        };
        for (std::size_t i = 0; i < n; ++i) {
            table.row({std::to_string(channels[i]),
                       cell(cycles(first + 2 * i), norm[0]),
                       cell(cycles(first + 2 * i + 1), norm[1])});
        }
        table.print();
    }
    return 0;
}
