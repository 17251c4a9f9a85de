/**
 * @file
 * Layer probes the benchmark times from its own code, for the layer
 * timings bench/micro_substrate does not already provide. Each mode
 * prints one JSON object on stdout.
 *
 *   layer_probe generate --workloads=a,b --scale=<f> --seed=<n>
 *       [--min-seconds=<f>]      (plus any bench_common flag)
 *     Builds each input class with harness::makeWorkload at least
 *     three times and until --min-seconds have passed for it, and
 *     reports the median seconds per class. This is the simulator's
 *     set-up before simulated time starts (graph generation and
 *     application state).
 *
 *   layer_probe shared-write [--accesses=<n>]
 *     Times MemorySystem::access for Store and Atomic accesses to
 *     lines another core already holds, so every access goes to the
 *     directory and transfers ownership. Reports median host
 *     nanoseconds per access over five timed passes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mem/memory_system.hh"
#include "sim/config.hh"

using namespace minnow;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int
generate(const Options &opts)
{
    bench::BenchArgs args = bench::parseArgs(opts);
    double minSeconds = opts.getDouble("min-seconds", 0.3);
    opts.rejectUnused();

    std::string j = "{";
    for (const std::string &name : args.workloads) {
        std::vector<double> samples;
        double spent = 0;
        while (samples.size() < 3 || spent < minSeconds) {
            auto t0 = Clock::now();
            harness::Workload w = bench::makeWorkload(name, args);
            auto t1 = Clock::now();
            samples.push_back(seconds(t0, t1));
            spent += samples.back();
        }
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s\"%s\":%.9f",
                      j.size() > 1 ? "," : "", name.c_str(),
                      median(samples));
        j += buf;
    }
    std::printf("%s}\n", j.c_str());
    return 0;
}

int
sharedWrite(const Options &opts)
{
    std::uint64_t accesses = opts.getUint("accesses", 200000);
    opts.rejectUnused();

    constexpr std::uint32_t kCores = 8;
    constexpr Addr kLines = 4096;
    MachineConfig cfg = scaledMachine();
    cfg.numCores = kCores;
    mem::MemorySystem ms(cfg);

    // Access k writes line k % kLines from core (k / kLines) % kCores,
    // so after the first sweep each line is held by the core that
    // wrote it one sweep earlier.
    Cycle t = 0;
    std::uint64_t k = 0;
    Cycle sink = 0;
    auto pass = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i, ++k) {
            mem::MemAccess req;
            req.addr = 0x100000 + (k % kLines) * 64;
            req.core = CoreId((k / kLines) % kCores);
            req.type = k & 1 ? mem::AccessType::Atomic
                             : mem::AccessType::Store;
            req.when = t;
            sink += ms.access(req).done;
            t += 2;
        }
    };
    pass(kLines); // every line now has an owner
    std::vector<double> nsPerAccess;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = Clock::now();
        pass(accesses);
        auto t1 = Clock::now();
        nsPerAccess.push_back(seconds(t0, t1) * 1e9 /
                              double(accesses));
    }
    std::printf("{\"ns_per_access\":%.6f,\"checksum\":%llu}\n",
                median(nsPerAccess), (unsigned long long)sink);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const std::vector<std::string> &pos = opts.positional();
    std::string mode = pos.empty() ? "" : pos[0];
    if (mode == "generate")
        return generate(opts);
    if (mode == "shared-write")
        return sharedWrite(opts);
    fatal("usage: layer_probe generate|shared-write [--flags]");
}
