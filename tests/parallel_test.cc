/**
 * @file
 * Tests for the --host-par point farm (sim/parallel/task_farm).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/parallel/task_farm.hh"

namespace minnow
{
namespace
{

TEST(TaskFarm, RunsEveryIndexExactlyOnce)
{
    for (std::uint32_t threads : {1u, 2u, 4u}) {
        std::vector<std::atomic<std::uint32_t>> hits(17);
        parallel::runTaskFarm(17, threads, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "threads=" << threads << " i=" << i;
    }
}

TEST(TaskFarm, InlineWhenSerialPreservesIndexOrder)
{
    std::vector<std::size_t> order;
    parallel::runTaskFarm(5, 1,
                          [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i);
}

} // anonymous namespace
} // namespace minnow
