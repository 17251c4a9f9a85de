/**
 * @file
 * Heap-allocation regression test for coroutine frames. This binary
 * replaces the global operator new and delete with counting versions,
 * which is why it is not part of runtime_test. Once the frame cache is
 * warm, spawning, awaiting and destroying CoTask chains must not touch
 * the heap, and a thread's cached frames must all go back to the heap
 * when the thread exits.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "runtime/task.hh"

namespace
{

std::atomic<std::int64_t> gNews{0};
std::atomic<std::int64_t> gDeletes{0};

void
countedFree(void *p) noexcept
{
    if (p)
        gDeletes.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *
operator new(std::size_t bytes)
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace minnow::runtime
{
namespace
{

CoTask<int>
bottom(int v)
{
    co_return v + 1;
}

CoTask<int>
middle(int v)
{
    co_return 2 * co_await bottom(v);
}

CoTask<int>
top(int v)
{
    co_return co_await middle(v) + 3;
}

int
runChain(int v)
{
    CoTask<int> t = top(v);
    t.start();
    return t.result();
}

TEST(CoroFrameAlloc, WarmChainsDoNotAllocate)
{
    int sum = runChain(0);
    std::int64_t before = gNews.load();
    for (int i = 0; i < 10000; ++i)
        sum += runChain(i);
    EXPECT_EQ(gNews.load() - before, 0);
    EXPECT_EQ(sum, 5 + 10000 * 5 + 2 * (10000 * 9999 / 2));
}

TEST(CoroFrameAlloc, ThreadExitReturnsCachedFrames)
{
    std::int64_t live = gNews.load() - gDeletes.load();
    std::size_t held = 0;
    std::thread worker([&held] {
        for (int i = 0; i < 100; ++i)
            runChain(i);
        held = detail::FramePool::cachedFrames();
    });
    worker.join();
    EXPECT_GT(held, 0u);
    EXPECT_EQ(gNews.load() - gDeletes.load(), live);
}

} // namespace
} // namespace minnow::runtime
