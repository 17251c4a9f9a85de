/**
 * @file
 * Tests for the bench driver's --stats-json log (bench/
 * bench_common.hh): the file's exact bytes for several runs,
 * including a run whose stats spool is empty, an entry larger than
 * one copy chunk, farmed and serial runPoints giving the same bytes,
 * and that no spool file outlives its entry: a serial point's entry
 * is appended before the next point starts, and none is left after a
 * normal exit, an interrupted one or a panic, and a panic in one
 * farmed point leaves a valid log, even while another point's entry
 * is being appended. A spool that cannot be written is fatal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"

namespace minnow
{
namespace
{

using bench::StatsJsonLog;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary) << bytes;
}

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/**
 * Whether @p json closes everything it opens, in order, with no
 * value missing before a close: a log closed in the middle of an
 * entry ends in '"stats":]}' or inside a bracket or string of the
 * entry's stats.
 */
bool
wellFormed(const std::string &json)
{
    std::string open;
    char prev = 0; // the last character outside strings and blanks.
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '}' || c == ']') {
            if (open.empty() || open.back() != (c == '}' ? '{' : '[') ||
                prev == ':' || prev == ',')
                return false;
            open.pop_back();
        } else if (c == '{' || c == '[') {
            open.push_back(c);
        }
        inString = c == '"';
        if (!std::isspace(static_cast<unsigned char>(c)))
            prev = c;
    }
    return open.empty() && !inString;
}

TEST(StatsJsonLog, TwoRunsAndAnEmptyStatsString)
{
    std::string path = "bench_common_test_stats.json";
    {
        StatsJsonLog log(path);
        writeFile(log.spoolPath(0), "{\"sim\":{\"cycles\":1200}}");
        writeFile(log.spoolPath(1), "{\"sim\":{\"cycles\":0.5}}");
        writeFile(log.spoolPath(2), "");
        log.add("sssp", "minnow-pf", 64, 0.5, 1, 32, false, true, 1200,
                3456, 1.25, 0);
        log.add("bfs", "obim", 4, 0.05, 2, 0, true, false, 99, 7,
                0.0001234567, 1);
        log.add("pr", "bsp", 1, 1, 3, 8, false, true, 0, 0, 0, 2);
        // Each spool is gone once its entry is in the log.
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_FALSE(exists(log.spoolPath(i))) << i;
    }
    EXPECT_EQ(
        readFile(path),
        "{\"schema\":\"minnow-bench-stats-1\",\"runs\":["
        "{\"workload\":\"sssp\",\"config\":\"minnow-pf\","
        "\"threads\":64,\"scale\":0.5,\"seed\":1,\"credits\":32,"
        "\"timedOut\":false,\"verified\":true,\"cycles\":1200,"
        "\"instructions\":3456,\"l2Mpki\":1.25,"
        "\"stats\":{\"sim\":{\"cycles\":1200}}},"
        "{\"workload\":\"bfs\",\"config\":\"obim\",\"threads\":4,"
        "\"scale\":0.05,\"seed\":2,\"credits\":0,\"timedOut\":true,"
        "\"verified\":false,\"cycles\":99,\"instructions\":7,"
        "\"l2Mpki\":0.000123457,"
        "\"stats\":{\"sim\":{\"cycles\":0.5}}},"
        "{\"workload\":\"pr\",\"config\":\"bsp\",\"threads\":1,"
        "\"scale\":1,\"seed\":3,\"credits\":8,\"timedOut\":false,"
        "\"verified\":true,\"cycles\":0,\"instructions\":0,"
        "\"l2Mpki\":0,\"stats\":{}}"
        "]}\n");
    std::remove(path.c_str());
}

TEST(StatsJsonLog, EmptyLogStillWrites)
{
    std::string path = "bench_common_test_empty.json";
    {
        StatsJsonLog log(path);
    }
    EXPECT_EQ(readFile(path),
              "{\"schema\":\"minnow-bench-stats-1\",\"runs\":[]}\n");
    std::remove(path.c_str());
}

TEST(StatsJsonLog, EntryLargerThanOneChunkIsCopiedWhole)
{
    std::string path = "bench_common_test_large.json";
    // 2.5 chunks of varying bytes, so a dropped or repeated chunk
    // shows.
    std::string stats = "{\"big\":\"";
    while (stats.size() < 5 * json::ChunkSink::kChunk / 2)
        stats += std::to_string(stats.size() % 9973);
    stats += "\"}";
    {
        StatsJsonLog log(path);
        writeFile(log.spoolPath(7), stats);
        log.add("sssp", "obim", 2, 1, 1, 0, false, true, 5, 6, 0, 7);
        // No spool at all reads as an empty stats document.
        log.add("bfs", "obim", 2, 1, 1, 0, false, true, 5, 6, 0, 8);
    }
    std::string head = ",\"verified\":true,\"cycles\":5,"
                       "\"instructions\":6,\"l2Mpki\":0,\"stats\":";
    EXPECT_EQ(readFile(path),
              "{\"schema\":\"minnow-bench-stats-1\",\"runs\":["
              "{\"workload\":\"sssp\",\"config\":\"obim\",\"threads\":2,"
              "\"scale\":1,\"seed\":1,\"credits\":0,\"timedOut\":false" +
                  head + stats +
                  "},{\"workload\":\"bfs\",\"config\":\"obim\","
                  "\"threads\":2,\"scale\":1,\"seed\":1,\"credits\":0,"
                  "\"timedOut\":false" +
                  head + "{}}]}\n");
    std::remove(path.c_str());
}

/** Two sssp points and one bfs point of a small minnow-pf bench. */
std::vector<bench::Point>
smallPoints(const bench::BenchArgs &a)
{
    std::vector<bench::Point> points;
    for (std::uint32_t credits : {4u, 16u}) {
        MachineConfig mc = a.machine;
        mc.minnow.prefetchCredits = credits;
        points.emplace_back("sssp", harness::Config::MinnowPf, 4, mc);
    }
    points.emplace_back("bfs", harness::Config::Obim, 4, a.machine);
    return points;
}

bench::BenchArgs
smallArgs(const std::string &statsPath, const std::string &hostPar)
{
    return bench::parseArgs(
        Options({"--scale=0.02", "--threads=4", "--cores=4",
                 "--stats-interval=500", "--stats-json=" + statsPath,
                 "--host-par=" + hostPar}));
}

TEST(StatsJsonLog, FarmedAndSerialPointsWriteTheSameBytes)
{
    std::vector<std::string> files;
    for (const char *hostPar : {"1", "3"}) {
        std::string path =
            std::string("bench_common_test_par") + hostPar + ".json";
        {
            bench::BenchArgs a = smallArgs(path, hostPar);
            std::vector<bench::Point> points = smallPoints(a);
            std::vector<harness::ExperimentResult> rs =
                bench::runPoints(a, points);
            ASSERT_EQ(rs.size(), points.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                EXPECT_TRUE(rs[i].run.verified) << i;
                EXPECT_FALSE(exists(a.statsJson->spoolPath(i))) << i;
            }
        }
        files.push_back(readFile(path));
        std::remove(path.c_str());
    }
    // Interval samples make every entry several chunks of text.
    EXPECT_GT(files[0].size(), std::size_t(1) << 20);
    EXPECT_NE(files[0].find("\"intervals\":["), std::string::npos);
    EXPECT_EQ(std::count(files[0].begin(), files[0].end(), '\n'), 1);
    EXPECT_TRUE(files[0] == files[1])
        << "--host-par=3 wrote different --stats-json bytes";
}

TEST(StatsJsonLog, SerialPointIsAppendedBeforeTheNextStarts)
{
    std::string path = "bench_common_test_serial.json";
    {
        bench::BenchArgs a = smallArgs(path, "1");
        std::vector<bench::Point> points = smallPoints(a);
        // The bfs point has a prepare hook, so it is a task of its
        // own that starts after both sssp points have finished.
        std::vector<bool> spools;
        points[2].prepare = [&](harness::Workload &) {
            for (std::size_t i = 0; i < 2; ++i)
                spools.push_back(exists(a.statsJson->spoolPath(i)));
        };
        bench::runPoints(a, points);
        EXPECT_EQ(spools, std::vector<bool>({false, false}));
    }
    EXPECT_NE(readFile(path).find("\"workload\":\"bfs\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(StatsJsonLogDeathTest, PanickedBenchLeavesAValidLogAndNoSpool)
{
    std::string path = "bench_common_test_panic.json";
    // The third point panics before its run; the first two are
    // recorded by then, and the panic hook closes the log.
    EXPECT_DEATH(
        {
            bench::BenchArgs a = smallArgs(path, "1");
            std::vector<bench::Point> points = smallPoints(a);
            points[2].prepare = [](harness::Workload &) {
                panic("point 2 fails");
            };
            bench::runPoints(a, points);
        },
        "point 2 fails");
    std::string log = readFile(path);
    EXPECT_EQ(log.rfind("]}\n"), log.size() - 3);
    EXPECT_EQ(log.find("\"workload\":\"bfs\""), std::string::npos);
    EXPECT_NE(log.find("\"credits\":16"), std::string::npos);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(exists(path + ".point" + std::to_string(i))) << i;
    std::remove(path.c_str());
}

TEST(StatsJsonLogDeathTest, FarmedPanicLeavesAValidLog)
{
    std::string path = "bench_common_test_farm_panic.json";
    // The third of three farmed points panics in its prepare hook
    // once the other two have started, so they are likely mid-run.
    // Only the panicking thread's machine hooks run, with the log's,
    // so no registry is serialized from another thread while it
    // simulates: the process aborts (never SIGSEGV) and leaves a
    // closed log, every time.
    static std::atomic<int> started;
    for (int run = 0; run < 20; ++run) {
        EXPECT_EXIT(
            {
                bench::BenchArgs a = smallArgs(path, "3");
                std::vector<bench::Point> points = smallPoints(a);
                started = 0;
                for (std::size_t i = 0; i < 2; ++i)
                    points[i].prepare = [](harness::Workload &) {
                        ++started;
                    };
                points[2].prepare = [](harness::Workload &) {
                    while (started < 2)
                        std::this_thread::yield();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(3));
                    panic("point 2 fails");
                };
                bench::runPoints(a, points);
            },
            testing::KilledBySignal(SIGABRT), "point 2 fails")
            << "run " << run;
        std::string log = readFile(path);
        EXPECT_EQ(log.rfind("{\"schema\":\"minnow-bench-stats-1\""
                            ",\"runs\":[", 0),
                  0u)
            << "run " << run;
        EXPECT_EQ(log.rfind("]}\n"), log.size() - 3) << "run " << run;
        EXPECT_TRUE(wellFormed(log)) << "run " << run;
        EXPECT_EQ(log.find("\"workload\":\"bfs\""), std::string::npos);
        std::remove(path.c_str());
    }
}

TEST(StatsJsonLogDeathTest, PanicWhileAnEntryIsAppendedWaitsForIt)
{
    std::string path = "bench_common_test_append_panic.json";
    // The third point panics as soon as the first point's entry has
    // started to go into the log (its first byte opens the file);
    // copying the entry's stats takes a while, so the panic hook
    // closes the log on one thread while another is appending. The
    // log must still end after whole entries.
    for (int run = 0; run < 5; ++run) {
        EXPECT_EXIT(
            {
                bench::BenchArgs a = smallArgs(path, "3");
                std::vector<bench::Point> points = smallPoints(a);
                points[2].prepare = [path](harness::Workload &) {
                    auto give = std::chrono::steady_clock::now() +
                                std::chrono::seconds(10);
                    while (!exists(path) &&
                           std::chrono::steady_clock::now() < give)
                        std::this_thread::yield();
                    panic("point 2 fails");
                };
                bench::runPoints(a, points);
            },
            testing::KilledBySignal(SIGABRT), "point 2 fails")
            << "run " << run;
        std::string log = readFile(path);
        EXPECT_NE(log.find("\"workload\":\"sssp\""), std::string::npos)
            << "run " << run << ": the panic came before any entry";
        EXPECT_EQ(log.rfind("]}\n"), log.size() - 3) << "run " << run;
        EXPECT_TRUE(wellFormed(log)) << "run " << run;
        std::remove(path.c_str());
        for (int i = 0; i < 3; ++i)
            std::remove((path + ".point" + std::to_string(i)).c_str());
    }
}

TEST(StatsJsonLogDeathTest, UnwritableSpoolIsFatal)
{
    EXPECT_EXIT(
        {
            bench::BenchArgs a =
                smallArgs("no_such_dir/stats.json", "1");
            std::vector<bench::Point> points = smallPoints(a);
            points.erase(points.begin() + 1, points.end());
            bench::runPoints(a, points);
        },
        testing::ExitedWithCode(1), "cannot write stats spool");
}

TEST(StatsJsonLogDeathTest, InterruptedBenchLeavesItsRunsAndNoSpool)
{
    std::string path = "bench_common_test_sigint.json";
    // The third point's prepare hook raises the stop flag as a
    // signal would: the first two points finish and are recorded,
    // the third never starts, and the bench exits 128+SIGINT.
    EXPECT_EXIT(
        {
            bench::BenchArgs a = smallArgs(path, "1");
            std::vector<bench::Point> points = smallPoints(a);
            points[2].prepare = [](harness::Workload &) {
                bench::gStopSignal = SIGINT;
                bench::gStopRequested = 1;
            };
            bench::runPoints(a, points);
        },
        testing::ExitedWithCode(128 + SIGINT), "interrupted by signal");
    std::string log = readFile(path);
    EXPECT_EQ(log.rfind("]}\n"), log.size() - 3);
    EXPECT_NE(log.find("\"workload\":\"sssp\""), std::string::npos);
    EXPECT_EQ(log.find("\"workload\":\"bfs\""), std::string::npos);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(exists(path + ".point" + std::to_string(i))) << i;
    }
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace minnow
