/**
 * @file
 * Shared prefetch-credit sweep used by Figs. 18 (L2 MPKI), 19
 * (speedup) and 20 (prefetch efficiency). One sweep produces all
 * three metrics; each figure declares it and prints its own metric,
 * and eval simulates the sweep once for all three.
 */

#ifndef MINNOW_BENCH_CREDIT_SWEEP_HH
#define MINNOW_BENCH_CREDIT_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "figure.hh"

namespace minnow::bench
{

/** Metrics captured at one credit count. */
struct CreditPoint
{
    std::uint32_t credits = 0;
    double mpki = 0;
    double speedup = 0;     //!< vs Minnow with prefetching off.
    double efficiency = 0;  //!< used / fills.
    bool timedOut = false;
};

/** Per-workload sweep results (plus the prefetch-off baseline). */
struct CreditSweep
{
    std::string workload;
    double baseMpki = 0;
    std::vector<CreditPoint> points;
    /** Results of the figure's extra points, in declaration order. */
    std::vector<harness::ExperimentResult> extra;
};

/**
 * Swept credit counts: --credits-list=a,b,c overrides the default
 * nine-point sweep (CI runs a single point to stay fast). Each count
 * is read as a 32-bit option value: junk, a sign or a value past
 * 2^32-1 is fatal.
 */
inline std::vector<std::uint32_t>
creditsFromOpts(const Options &opts)
{
    std::vector<std::uint32_t> out =
        opts.getU32List("credits-list", "1,2,4,8,16,32,64,128,256");
    fatal_if(out.empty(), "--credits-list parsed to nothing");
    return out;
}

/**
 * Declare the sweep of every --workloads entry: Minnow with
 * prefetching off (the baseline), then MinnowPf at each credit
 * count, then the points @p extra declares for that workload.
 */
inline std::vector<Point>
creditSweepPoints(const BenchArgs &args,
                  const std::vector<std::uint32_t> &credits,
                  const std::function<std::vector<Point>(
                      const std::string &)> &extra = {})
{
    std::vector<Point> points;
    for (const std::string &name : args.workloads) {
        points.push_back({args, name, harness::Config::Minnow,
                          args.threads});
        for (std::uint32_t c : credits) {
            Point p{args, name, harness::Config::MinnowPf,
                    args.threads};
            p.machine.minnow.prefetchCredits = c;
            points.push_back(p);
        }
        if (extra) {
            for (Point &p : extra(name))
                points.push_back(std::move(p));
        }
    }
    return points;
}

/**
 * Read the sweeps from the @p results of creditSweepPoints' points,
 * each workload's @p extras extra points after its credit points.
 */
inline std::vector<CreditSweep>
creditSweeps(const BenchArgs &args,
             const std::vector<std::uint32_t> &credits,
             const Results &results, std::size_t extras = 0)
{
    const std::size_t stride = 1 + credits.size() + extras;
    std::vector<CreditSweep> sweeps;
    for (std::size_t k = 0; k < args.workloads.size(); ++k) {
        const harness::ExperimentResult *r = &results[k * stride];
        const harness::ExperimentResult &base = r[0];
        CreditSweep s;
        s.workload = args.workloads[k];
        s.baseMpki = base.run.l2Mpki;
        for (std::size_t i = 0; i < credits.size(); ++i) {
            const galois::RunResult &run = r[1 + i].run;
            CreditPoint p;
            p.credits = credits[i];
            p.timedOut = run.timedOut || base.run.timedOut;
            if (!p.timedOut) {
                p.mpki = run.l2Mpki;
                p.speedup =
                    double(base.run.cycles) / double(run.cycles);
                std::uint64_t fills = run.mem.prefetchFills;
                p.efficiency =
                    fills ? 100.0 * double(run.mem.prefetchUsed) /
                                double(fills)
                          : 0.0;
            }
            s.points.push_back(p);
        }
        s.extra.assign(r + 1 + credits.size(), r + stride);
        sweeps.push_back(std::move(s));
    }
    return sweeps;
}

} // namespace minnow::bench

#endif // MINNOW_BENCH_CREDIT_SWEEP_HH
