#include "sim/parallel/task_farm.hh"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace minnow::parallel
{

void
runTaskFarm(std::size_t n, std::uint32_t threads,
            const std::function<void(std::size_t)> &fn,
            const std::function<void(std::size_t)> &inOrder)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            if (inOrder)
                inOrder(i);
        }
        return;
    }
    std::uint32_t workers = threads;
    if (std::size_t(workers) > n)
        workers = std::uint32_t(n);
    std::atomic<std::size_t> next{0};
    // inOrder's frontier: [0, ordered) have had their call; done[i]
    // marks fn(i) returned. The mutex also orders fn(i)'s writes
    // before inOrder(i) on another thread.
    std::mutex orderMu;
    std::vector<char> done(n, 0);
    std::size_t ordered = 0;
    auto pump = [&] {
        for (;;) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            fn(i);
            if (!inOrder)
                continue;
            std::lock_guard<std::mutex> g(orderMu);
            done[i] = 1;
            for (; ordered < n && done[ordered]; ++ordered)
                inOrder(ordered);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::uint32_t t = 1; t < workers; ++t)
        pool.emplace_back(pump);
    pump();
    for (std::thread &t : pool)
        t.join();
}

} // namespace minnow::parallel
