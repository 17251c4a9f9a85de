// Seeded violations for the `host-threading` rule (P1): raw host
// concurrency primitives outside the point farm. Each marked line
// must appear in expected.txt; run_fixtures.py diffs the analyzer
// output against it.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace fixture
{

struct SideChannel
{
    std::mutex lock;                  // finding: blocking state
    std::condition_variable ready;    // finding: blocking signaling
    std::atomic<int> counter{0};      // finding: lock-free state
};

void
spawnHelper(SideChannel &ch)
{
    std::thread t([&ch] {             // finding: host thread
        std::lock_guard<std::mutex> g(ch.lock); // 2 findings
        ch.counter.store(1);
    });
    t.join();
}

void
rawPthread(void *(*fn)(void *))
{
    // finding on the next line: raw pthreads, no std:: needed
    pthread_create(nullptr, nullptr, fn, nullptr);
}

} // namespace fixture
