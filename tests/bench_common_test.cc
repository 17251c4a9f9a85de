/**
 * @file
 * Tests for the bench driver's --stats-json log (bench/
 * bench_common.hh): the file's exact bytes for several runs,
 * including a run whose stats string is empty, and that the log
 * takes over the caller's stats string instead of copying it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

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

TEST(StatsJsonLog, TwoRunsAndAnEmptyStatsString)
{
    std::string path = "bench_common_test_stats.json";
    {
        StatsJsonLog log(path);
        std::string s1 = "{\"sim\":{\"cycles\":1200}}";
        std::string s2 = "{\"sim\":{\"cycles\":0.5}}";
        log.add("sssp", "minnow-pf", 64, 0.5, 1, 32, false, true, 1200,
                3456, 1.25, std::move(s1));
        log.add("bfs", "obim", 4, 0.05, 2, 0, true, false, 99, 7,
                0.0001234567, std::move(s2));
        log.add("pr", "bsp", 1, 1, 3, 8, false, true, 0, 0, 0,
                std::string());
        // The log took the strings over rather than copying them.
        EXPECT_TRUE(s1.empty());
        EXPECT_TRUE(s2.empty());
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

} // anonymous namespace
} // namespace minnow
