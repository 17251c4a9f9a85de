/**
 * @file
 * Run exactly one (workload, config, threads) figure point and emit
 * a machine-readable result (schema "minnow-point-1").
 *
 * scripts/check_equivalence.py runs it for its checkpoint,
 * attribution, negative-control and BSP-interrupt rows, and the
 * benchmark ledger (perfbench/) times it. It accepts every common
 * bench flag, plus the checkpoint flags, which only this binary has,
 * so one invocation can save a checkpoint and a later one can replay
 * to it.
 *
 * Extra flags beyond bench_common:
 *   --workload=<name>  required: one of the harness workloads.
 *   --config=<name>    scheduler config (default minnow-pf).
 *   --json=<path>      write the result JSON to a file instead of
 *                      stdout.
 *   --checkpoint-out=<path>   write a checkpoint at the
 *                      --checkpoint-after anchor (also written as a
 *                      rescue on SIGINT/SIGTERM).
 *   --checkpoint-in=<path>    replay to the checkpoint's anchor and
 *                      witness-validate there; any validation
 *                      failure warns and degrades to a cold start,
 *                      never wrong results. Exclusive with
 *                      --checkpoint-out.
 *   --checkpoint-after=<N>    anchor cycle (default 0): save at the
 *                      first event boundary at or after cycle N;
 *                      0 saves before the first event.
 * See DESIGN.md section 5i.
 *
 * The result includes "restored" (the checkpoint validated and the
 * replay reached its anchor) and hostSeconds (wall-clock for
 * workload build + simulation).
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    BenchArgs args = parseArgs(opts, 1.0, 64);
    std::string workload = opts.getString("workload", "");
    std::string configName =
        opts.getString("config", "minnow-pf");
    std::string jsonPath = opts.getString("json", "");
    std::string ckptOut = opts.getString("checkpoint-out", "");
    std::string ckptIn = opts.getString("checkpoint-in", "");
    Cycle ckptAfter = opts.getUint("checkpoint-after", 0);
    opts.rejectUnused();
    fatal_if(workload.empty(), "point_runner needs --workload=");
    harness::Config config = harness::parseConfig(configName);

    Point p{workload, config, args.threads, args.machine};
    harness::RunSpec spec = specOf(p, args, 0);
    spec.checkpointOut = ckptOut;
    spec.checkpointIn = ckptIn;
    spec.checkpointAfter = ckptAfter;

    auto t0 = std::chrono::steady_clock::now();
    harness::Workload w = makeWorkload(workload, args);
    auto t1 = std::chrono::steady_clock::now();
    harness::ExperimentResult r = harness::runExperiment(w, spec);
    auto t2 = std::chrono::steady_clock::now();
    logRun(args, p, 0, r);
    if (r.run.interrupted)
        exitInterrupted(args, !ckptOut.empty());

    auto secs = [](auto a, auto b) {
        return std::chrono::duration<double>(b - a).count();
    };
    char buf[160];
    std::string j = "{\"schema\":\"minnow-point-1\"";
    j += ",\"workload\":\"" + w.name + "\"";
    j += ",\"config\":\"" + configName + "\"";
    j += ",\"threads\":" + std::to_string(args.threads);
    std::snprintf(buf, sizeof buf, "%.6g", args.scale);
    j += std::string(",\"scale\":") + buf;
    j += ",\"seed\":" + std::to_string(args.seed);
    j += ",\"cycles\":" + std::to_string(r.run.cycles);
    j += ",\"instructions\":" + std::to_string(r.run.instructions);
    j += ",\"tasks\":" + std::to_string(r.run.tasks);
    std::snprintf(buf, sizeof buf, "%.6g", r.run.l2Mpki);
    j += std::string(",\"l2Mpki\":") + buf;
    j += std::string(",\"timedOut\":") +
         (r.run.timedOut ? "true" : "false");
    j += std::string(",\"verified\":") +
         (r.run.verified ? "true" : "false");
    j += std::string(",\"restored\":") +
         (r.restored ? "true" : "false");
    std::snprintf(buf, sizeof buf,
                  ",\"buildSeconds\":%.6f,\"simSeconds\":%.6f,"
                  "\"hostSeconds\":%.6f",
                  secs(t0, t1), secs(t1, t2), secs(t0, t2));
    j += buf;
    j += "}\n";

    if (jsonPath.empty()) {
        std::fputs(j.c_str(), stdout);
    } else if (std::FILE *f = std::fopen(jsonPath.c_str(), "w")) {
        std::fputs(j.c_str(), f);
        std::fclose(f);
    } else {
        fatal("cannot write %s", jsonPath.c_str());
    }
    return r.run.timedOut ? 2 : 0;
}
