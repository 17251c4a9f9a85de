/**
 * @file
 * Tests for the debug-trace facility and the remaining engine ISA
 * surface: minnow_flush, plus CLI/IO error-path death tests.
 */

#include <gtest/gtest.h>

#include "apps/sssp.hh"
#include "base/options.hh"
#include "base/trace.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "minnow/minnow_system.hh"
#include "runtime/machine.hh"

namespace minnow
{
namespace
{

TEST(Trace, EnableDisable)
{
    trace::clearAll();
    EXPECT_FALSE(trace::enabled(trace::Flag::Cache));
    trace::enable("Cache");
    EXPECT_TRUE(trace::enabled(trace::Flag::Cache));
    EXPECT_FALSE(trace::enabled(trace::Flag::Engine));
    trace::enableList("Engine,Credit");
    EXPECT_TRUE(trace::enabled(trace::Flag::Engine));
    EXPECT_TRUE(trace::enabled(trace::Flag::Credit));
    trace::clearAll();
    EXPECT_FALSE(trace::enabled(trace::Flag::Engine));
}

TEST(Trace, EnableListTrimsWhitespace)
{
    // Regression: "Exec, Cache" (the natural way to quote a pair of
    // flags) used to die on the padded token " Cache".
    trace::clearAll();
    trace::enableList("Exec, Cache");
    EXPECT_TRUE(trace::enabled(trace::Flag::Exec));
    EXPECT_TRUE(trace::enabled(trace::Flag::Cache));

    trace::clearAll();
    trace::enableList("  Engine ,\tCredit , ");
    EXPECT_TRUE(trace::enabled(trace::Flag::Engine));
    EXPECT_TRUE(trace::enabled(trace::Flag::Credit));
    trace::clearAll();
}

TEST(Trace, EmptyListIsNoop)
{
    trace::clearAll();
    trace::enableList("");
    for (auto f : {trace::Flag::Exec, trace::Flag::Cache,
                   trace::Flag::Engine})
        EXPECT_FALSE(trace::enabled(f));
}

TEST(TraceDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(trace::enable("NoSuchFlag"),
                testing::ExitedWithCode(1), "unknown debug flag");
}

TEST(OptionsDeath, UnknownOptionRejected)
{
    Options opts({"--definitely-a-typo=1"});
    EXPECT_EXIT(opts.rejectUnused(), testing::ExitedWithCode(1),
                "unknown option");
}

TEST(OptionsDeath, RetiredShardsFlagRejected)
{
    // The host-sharding flag is gone; the benches' parse path
    // (MachineConfig::applyOptions, then rejectUnused) must refuse it
    // rather than silently ignore it.
    Options opts({"--shards=4"});
    MachineConfig cfg;
    cfg.applyOptions(opts);
    EXPECT_EXIT(opts.rejectUnused(), testing::ExitedWithCode(1),
                "unknown option --shards=4");
}

TEST(OptionsDeath, MalformedIntIsFatal)
{
    Options opts({"--n=abc"});
    EXPECT_EXIT(opts.getInt("n", 0), testing::ExitedWithCode(1),
                "not an integer");
}

TEST(IoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(graph::readDimacs("/nonexistent/file.gr"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(IoDeath, NotABinaryGraphIsFatal)
{
    std::string path = testing::TempDir() + "/notagraph.bin";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "this is not a graph file at all............");
    std::fclose(f);
    EXPECT_EXIT(graph::readBinary(path), testing::ExitedWithCode(1),
                "not a minnow binary graph");
    std::remove(path.c_str());
}

TEST(EngineFlush, SpillsLocalQueueToGlobal)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 2;
    cfg.minnow.enabled = true;
    runtime::Machine m(cfg);
    m.monitor.reset(1);
    minnowengine::MinnowGlobalQueue q(&m.alloc, 3);
    minnowengine::PrefetchProgram prog;
    minnowengine::MinnowEngine eng(&m, 0, &q, prog);
    eng.startDaemon();
    runtime::SimContext ctx(&m, 0);

    auto driver = [](runtime::SimContext &ctx,
                     minnowengine::MinnowEngine &eng,
                     minnowengine::MinnowGlobalQueue &q)
        -> runtime::CoTask<void> {
        for (int i = 0; i < 8; ++i)
            co_await eng.enqueue(ctx, {0, std::uint64_t(i)});
        co_await ctx.waitUntil(ctx.eq().now() + 2000);
        std::uint32_t before = eng.localQueueSize();
        EXPECT_GT(before, 0u);
        // minnow_flush: core context switch spills everything.
        co_await eng.flush(ctx);
        co_await ctx.waitUntil(ctx.eq().now() + 5000);
        EXPECT_EQ(eng.localQueueSize() + std::uint32_t(q.size()),
                  8u);
        EXPECT_GE(q.size() + 0u, 0u);
        // Drain everything back through the normal protocol.
        int got = 0;
        for (;;) {
            auto item = co_await eng.dequeue(ctx);
            if (!item)
                break;
            ++got;
        }
        EXPECT_EQ(got, 8);
    };
    auto t = driver(ctx, eng, q);
    t.start();
    m.eq.run();
    ASSERT_TRUE(t.done());
    EXPECT_TRUE(m.monitor.terminated());
}

TEST(EngineFlush, TracingARunProducesOutput)
{
    // Smoke: run a small Minnow workload with Engine tracing on;
    // nothing to assert beyond "does not crash or slow to a crawl",
    // but it exercises every DPRINTF site.
    trace::enableList("Engine,Credit,Monitor");
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 2;
    cfg.minnow.enabled = true;
    cfg.minnow.prefetchEnabled = true;
    runtime::Machine m(cfg);
    graph::CsrGraph g = graph::gridGraph(8, 8, 10, 1);
    g.assignAddresses(m.alloc);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    galois::RunConfig rc;
    rc.threads = 2;
    auto r = minnowengine::runMinnow(m, app, 3, rc);
    trace::clearAll();
    EXPECT_TRUE(r.verified);
}

} // anonymous namespace
} // namespace minnow
