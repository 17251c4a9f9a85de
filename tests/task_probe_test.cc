/**
 * @file
 * Tests for the per-task cycle probe (runtime/task_probe.hh): the
 * "tasks" group means the same thing under the Galois, Minnow and
 * BSP executors, and the dequeue tail it records is the one dequeue
 * bundling exists to shorten.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/workloads.hh"

namespace minnow
{
namespace
{

harness::ExperimentResult
runSssp(harness::Config config, std::uint32_t dequeueBatch = 1)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.05, 42);
    harness::RunSpec rs;
    rs.config = config;
    rs.threads = 4;
    rs.machine.numCores = 4;
    rs.machine.minnow.dequeueBatch = dequeueBatch;
    harness::ExperimentResult r = harness::runExperiment(w, rs);
    EXPECT_FALSE(r.run.timedOut);
    EXPECT_TRUE(r.run.verified);
    return r;
}

double
total(const harness::ExperimentResult &r, const std::string &metric)
{
    EXPECT_TRUE(r.run.report.has("tasks." + metric + ".total"))
        << metric;
    return r.run.report.get("tasks." + metric + ".total");
}

TEST(TaskProbe, DefinitionsHoldAcrossExecutors)
{
    // Galois: one dequeue and one execute per popped task, and the
    // worklist's own pop counter agrees.
    harness::ExperimentResult obim = runSssp(harness::Config::Obim);
    EXPECT_GT(total(obim, "execute"), 0);
    EXPECT_EQ(total(obim, "execute"), total(obim, "dequeue"));
    EXPECT_EQ(total(obim, "dequeue"),
              obim.run.report.get("worklist.pops"));
    EXPECT_GT(total(obim, "push"), 0);

    // Minnow: popWait counts real parks in the engine, at most one
    // per blocked dequeue — not one per task, as when it was sampled
    // from the dequeue latency.
    harness::ExperimentResult pf = runSssp(harness::Config::MinnowPf);
    EXPECT_GT(total(pf, "execute"), 0);
    EXPECT_EQ(total(pf, "execute"), total(pf, "dequeue"));
    EXPECT_LE(total(pf, "popWait"), double(pf.engines.dequeueBlocks));
    EXPECT_LT(total(pf, "popWait"), total(pf, "dequeue"));
    EXPECT_GT(total(pf, "push"), 0);

    // BSP: execute per vertex op; no queue, so no pops or pushes.
    harness::ExperimentResult bsp = runSssp(harness::Config::Bsp);
    EXPECT_GT(total(bsp, "execute"), 0);
    EXPECT_EQ(total(bsp, "execute"),
              bsp.run.report.get("bsp.vertexOps"));
    EXPECT_EQ(total(bsp, "dequeue"), 0);
    EXPECT_EQ(total(bsp, "push"), 0);
    EXPECT_EQ(total(bsp, "popWait"), 0);
}

TEST(TaskProbe, BatchedDequeueShiftsDequeueDown)
{
    // The dequeue metric measures the worker-side pop latency the
    // dequeue bundling exists to amortize: k=4 must pull the P95
    // strictly below the one-round-trip-per-pop k=1 value.
    auto dequeueP95 = [](std::uint32_t k) {
        return runSssp(harness::Config::MinnowPf, k)
            .run.report.get("tasks.dequeueP95");
    };
    double k1 = dequeueP95(1);
    double k4 = dequeueP95(4);
    EXPECT_LT(k4, k1)
        << "bundled dequeues must shift the dequeue tail down";
}

} // namespace
} // namespace minnow
