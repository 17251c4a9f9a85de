/**
 * @file
 * Fixed host-speed reference for perfbench/run.py.
 *
 *   host_ref [--iters=<n>]
 *
 * Runs a fixed, seedless piece of work shaped like the simulator's
 * host work -- an event heap, hash-map inserts and erases, scattered
 * loads over a table larger than a core's L2, and indirect calls --
 * and prints {"seconds": <wall seconds>, "checksum": <n>}. It uses no
 * simulator code, so changes to the simulator never change it; the
 * benchmark times it between repetitions and divides each
 * repetition's wall time by the host speed it measures, so that the
 * shared host's drift in speed cancels out of the reported times.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace
{

std::uint64_t
next(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

std::uint64_t opAdd(std::uint64_t a, std::uint64_t b) { return a + b; }
std::uint64_t opXor(std::uint64_t a, std::uint64_t b) { return a ^ b; }
std::uint64_t opMul(std::uint64_t a, std::uint64_t b) { return a * (b | 1); }
std::uint64_t opRot(std::uint64_t a, std::uint64_t b)
{
    return (a << 7 | a >> 57) + b;
}

using Op = std::uint64_t (*)(std::uint64_t, std::uint64_t);
Op volatile ops[4] = {opAdd, opXor, opMul, opRot};

std::uint64_t
work(std::uint64_t iters)
{
    constexpr std::size_t kTable = 1u << 21; // 16 MiB of 8-byte words
    constexpr std::size_t kHeap = 4096;
    constexpr std::size_t kMap = 1u << 15;
    std::vector<std::uint64_t> table(kTable);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &w : table)
        w = next(x);

    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
    for (std::uint32_t i = 0; i < kHeap; ++i)
        heap.push({next(x) & 0xffff, i});
    std::unordered_map<std::uint64_t, std::uint64_t> map;

    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
        Ev ev = heap.top();
        heap.pop();
        std::uint64_t r = next(x);
        std::uint64_t line = table[r & (kTable - 1)];
        table[(r >> 24) & (kTable - 1)] += ev.first;
        sum = ops[(r >> 40) & 3](sum, line);
        std::uint64_t key = r & (kMap * 2 - 1);
        auto it = map.find(key);
        if (it == map.end())
            map.emplace(key, sum);
        else if (r & 0x100)
            map.erase(it);
        else
            it->second += line;
        heap.push({ev.first + 1 + (r & 63), ev.second});
    }
    return sum + map.size() + heap.top().first;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t iters = 500000;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--iters=", 8) == 0) {
            iters = std::strtoull(argv[i] + 8, nullptr, 10);
        } else {
            std::fprintf(stderr, "usage: host_ref [--iters=<n>]\n");
            return 2;
        }
    }
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sum = work(iters);
    auto t1 = std::chrono::steady_clock::now();
    std::printf("{\"seconds\":%.9f,\"checksum\":%llu}\n",
                std::chrono::duration<double>(t1 - t0).count(),
                (unsigned long long)sum);
    return 0;
}
