/**
 * @file
 * Fig. 4: benchmark sensitivity to ROB size. Sweeps the reorder
 * buffer (scaling RS/LQ/SQ with the same ratios, per the paper) in
 * three modes: realistic (TAGE-like branches + x86-TSO fences),
 * perfect branch prediction, and perfect branches + no fences.
 * Speedup is normalized to the 256-entry realistic configuration.
 *
 * Paper conclusion: realistic speedup past 256 entries is minimal;
 * remove the serializing events and ROB scaling works again (PR up
 * to 5x once fences go).
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
    BenchArgs args = parseArgs(opts, 1.0, 16);
    opts.rejectUnused();

    const std::vector<std::uint32_t> robs = {64, 128, 256, 512,
                                             1024};
    banner("Fig. 4: speedup vs ROB size (normalized to 256-entry"
           " realistic)",
           "realistic curve flat past 256; ideal (perfect branch,"
           " no fence) keeps scaling");

    // Per workload: the ROB sweep in each of the three modes
    // (realistic, perfect branches, perfect branches + no fences).
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        for (int mode = 0; mode < 3; ++mode) {
            for (std::uint32_t rob : robs) {
                Point p{name, harness::Config::Obim, args.threads,
                        args.machine};
                CoreParams &core = p.machine.core;
                core.robEntries = rob;
                core.rsEntries = std::max(8u, rob * 97 / 224);
                core.lqEntries = std::max(8u, rob * 72 / 224);
                core.sqEntries = std::max(8u, rob * 56 / 224);
                core.perfectBranches = mode >= 1;
                core.atomicFences = mode < 2;
                points.push_back(p);
            }
        }
    }
    auto results = runPoints(args, points);
    auto cycles = [&](std::size_t i) {
        return results[i].run.timedOut ? 0
                                       : double(results[i].run.cycles);
    };
    const std::size_t n = robs.size();
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        std::printf("\n-- %s --\n", args.workloads[k].c_str());
        TextTable table;
        table.header({"rob", "realistic", "perfect-branch",
                      "ideal(nofence)"});
        // Normalization run: 256-entry realistic.
        std::size_t first = 3 * n * k;
        double norm = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (robs[i] == 256)
                norm = cycles(first + i);
        }
        auto cell = [&](double v) {
            if (v == 0)
                return std::string("TIMEOUT");
            return TextTable::num(norm / v, 2) + "x";
        };
        for (std::size_t i = 0; i < n; ++i) {
            table.row({std::to_string(robs[i]),
                       cell(cycles(first + i)),
                       cell(cycles(first + n + i)),
                       cell(cycles(first + 2 * n + i))});
        }
        table.print();
    }
    return 0;
}
