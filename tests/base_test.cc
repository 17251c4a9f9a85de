/**
 * @file
 * Unit tests for src/base: RNG determinism, bit helpers (including
 * the divide-free Divisor), the open-addressed FlatTable, simulated
 * allocator, statistics, options parsing, and table formatting.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "base/bits.hh"
#include "base/ckpt.hh"
#include "base/flat_table.hh"
#include "base/options.hh"
#include "base/rng.hh"
#include "base/sim_alloc.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/types.hh"

namespace minnow
{
namespace
{

TEST(Types, LineMath)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(128), 2u);
    EXPECT_EQ(lineNum(127), 1u);
}

TEST(Bits, PowersOfTwo)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(1023));
}

TEST(Bits, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bits, Align)
{
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignDown(127, 64), 64u);
}

TEST(Bits, HashMixSpreads)
{
    // Consecutive line numbers should land on many distinct residues.
    std::set<std::uint64_t> banks;
    for (std::uint64_t i = 0; i < 256; ++i)
        banks.insert(hashMix(i) % 64);
    EXPECT_GT(banks.size(), 48u);
}

TEST(Bits, DivisorMatchesHardwareDivide)
{
    Rng rng(77);
    for (std::uint32_t d : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 63u, 64u,
                            100u, 1000u, 65535u, 65536u, 1000003u,
                            0x7FFFFFFFu, 0xFFFFFFFFu}) {
        Divisor div(d);
        std::vector<std::uint64_t> xs = {0, 1, d - 1, d, d + 1,
                                         2 * std::uint64_t(d) - 1,
                                         ~std::uint64_t(0),
                                         ~std::uint64_t(0) - d,
                                         0xFFFFFFFFull};
        for (int i = 0; i < 2000; ++i)
            xs.push_back(rng.next() >> rng.below(64));
        for (std::uint64_t x : xs) {
            ASSERT_EQ(div.mod(x), x % d) << x << " % " << d;
            std::uint32_t x32 = std::uint32_t(x);
            ASSERT_EQ(div.div(x32), x32 / d) << x32 << " / " << d;
        }
    }
}

TEST(FlatTable, MatchesOrderedMapUnderRandomOps)
{
    FlatTable<std::uint64_t, std::uint64_t> t;
    std::map<std::uint64_t, std::uint64_t> ref;
    Rng rng(5);
    for (int step = 0; step < 200000; ++step) {
        std::uint64_t k = rng.below(3000);
        switch (rng.below(4)) {
          case 0:
          case 1:
            t.put(k, std::uint64_t(step));
            ref[k] = std::uint64_t(step);
            break;
          case 2:
            ASSERT_EQ(t.erase(k), ref.erase(k) == 1);
            break;
          default: {
            const std::uint64_t *v = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
          }
        }
        ASSERT_EQ(t.size(), ref.size());
    }
}

/** Keys whose home slot at 1024 slots is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(const FlatTable<std::uint64_t, int> &t, std::size_t slot,
            std::size_t n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < n; ++k)
        if (t.home(k) == slot)
            keys.push_back(k);
    return keys;
}

TEST(FlatTable, CollisionsAndBackwardShiftAcrossTheWrap)
{
    FlatTable<std::uint64_t, int> t;
    t.put(~std::uint64_t(0) - 1, 0); // materialize 1024 slots.
    t.erase(~std::uint64_t(0) - 1);
    ASSERT_EQ(t.capacity(), 1024u);
    // Three keys homed at the last slot wrap into slots 0 and 1; a
    // key homed at slot 0 is displaced behind them.
    std::vector<std::uint64_t> last = keysHomedAt(t, 1023, 3);
    std::vector<std::uint64_t> first = keysHomedAt(t, 0, 1);
    for (int i = 0; i < 3; ++i)
        t.put(last[std::size_t(i)], i);
    t.put(first[0], 10);
    ASSERT_EQ(t.size(), 4u);

    // Erasing the head of the chain shifts every survivor back
    // across the wrap; all must still be found.
    EXPECT_TRUE(t.erase(last[0]));
    EXPECT_EQ(t.find(last[0]), nullptr);
    ASSERT_NE(t.find(last[1]), nullptr);
    EXPECT_EQ(*t.find(last[1]), 1);
    ASSERT_NE(t.find(last[2]), nullptr);
    EXPECT_EQ(*t.find(last[2]), 2);
    ASSERT_NE(t.find(first[0]), nullptr);
    EXPECT_EQ(*t.find(first[0]), 10);

    // Erase in the middle of a chain, then re-insert.
    EXPECT_TRUE(t.erase(last[2]));
    EXPECT_FALSE(t.erase(last[2]));
    ASSERT_NE(t.find(first[0]), nullptr);
    t.put(last[2], 7);
    EXPECT_EQ(*t.find(last[2]), 7);
    EXPECT_EQ(t.size(), 3u);
}

TEST(FlatTable, GrowsAtThreeQuartersLoad)
{
    FlatTable<std::uint64_t, std::uint64_t> t;
    for (std::uint64_t k = 0; k < 768; ++k)
        t.put(k * 64, k);
    EXPECT_EQ(t.capacity(), 1024u);
    t.put(768 * 64, 768);
    EXPECT_EQ(t.capacity(), 2048u);
    for (std::uint64_t k = 0; k < 20000; ++k)
        t.findOrInsert(k * 64) = k;
    EXPECT_EQ(t.size(), 20000u);
    EXPECT_LE(t.size() * 4, t.capacity() * 3);
    for (std::uint64_t k = 0; k < 20000; ++k) {
        ASSERT_NE(t.find(k * 64), nullptr);
        ASSERT_EQ(*t.find(k * 64), k);
    }
}

TEST(FlatTable, CheckpointIsSortedAndLayoutIndependent)
{
    using Key = std::pair<std::uint32_t, std::uint64_t>;
    FlatTable<Key, std::uint64_t> a, b;
    Rng rng(9);
    std::vector<Key> keys;
    for (int i = 0; i < 500; ++i)
        keys.push_back({std::uint32_t(rng.below(8)), rng.below(1 << 20)});
    for (const Key &k : keys)
        a.put(k, k.second * 3);
    // Same entries, different history: reverse order plus churn.
    for (int i = 0; i < 300; ++i)
        b.put({99, std::uint64_t(i)}, 0);
    for (auto it = keys.rbegin(); it != keys.rend(); ++it)
        b.put(*it, it->second * 3);
    for (int i = 0; i < 300; ++i)
        b.erase({99, std::uint64_t(i)});

    std::vector<std::uint8_t> ba, bb;
    ckpt::Ckpt sa(ba);
    a.checkpoint(sa);
    ckpt::Ckpt sb(bb);
    b.checkpoint(sb);
    EXPECT_EQ(ba, bb);

    // Entries appear in key order: a u64 count, then (core, line,
    // value) each, and nothing after them.
    std::size_t pos = 0;
    auto take = [&](auto &v) {
        ASSERT_LE(pos + sizeof v, ba.size());
        std::memcpy(&v, ba.data() + pos, sizeof v);
        pos += sizeof v;
    };
    std::uint64_t n = 0;
    take(n);
    EXPECT_EQ(n, a.size());
    Key prev{0, 0};
    for (std::uint64_t i = 0; i < n; ++i) {
        Key k;
        std::uint64_t v = 0;
        take(k.first);
        take(k.second);
        take(v);
        if (i) {
            EXPECT_LT(prev, k);
        }
        EXPECT_EQ(v, k.second * 3);
        prev = k;
    }
    EXPECT_EQ(pos, ba.size());
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, RealRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, BelowBounds)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(SimAlloc, LineAlignedAndDisjoint)
{
    SimAlloc alloc;
    Addr a = alloc.alloc("a", 10);
    Addr b = alloc.alloc("b", 100);
    Addr c = alloc.allocAnon(1);
    EXPECT_EQ(a % kLineBytes, 0u);
    EXPECT_EQ(b % kLineBytes, 0u);
    EXPECT_EQ(c % kLineBytes, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 100);
    EXPECT_EQ(alloc.regions().size(), 2u);
    EXPECT_GE(alloc.bytesAllocated(), 3 * kLineBytes);
}

TEST(SimAlloc, ZeroSizeStillDistinct)
{
    SimAlloc alloc;
    Addr a = alloc.allocAnon(0);
    Addr b = alloc.allocAnon(0);
    Addr z = alloc.alloc("z", 0);
    EXPECT_NE(a, b);
    EXPECT_NE(b, z);
    EXPECT_EQ(alloc.bytesAllocated(), 3 * kLineBytes);
    ASSERT_EQ(alloc.regions().size(), 1u);
    EXPECT_EQ(alloc.regions()[0].base, z);
    EXPECT_EQ(alloc.regions()[0].bytes, kLineBytes);
}

TEST(Stats, Histogram)
{
    StatHistogram h;
    h.sample(0);
    h.sample(1);
    h.sample(100);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_NEAR(h.mean(), 101.0 / 3.0, 1e-9);
    EXPECT_EQ(h.bucket(0), 1u); // value 0.
}

TEST(Stats, HistogramPercentile)
{
    StatHistogram h;
    for (int i = 0; i < 90; ++i)
        h.sample(1);
    for (int i = 0; i < 10; ++i)
        h.sample(1000);
    EXPECT_LE(h.percentile(0.5), 1u);
    EXPECT_GE(h.percentile(0.99), 512u);
}

TEST(Options, Parsing)
{
    Options opts({"--cores=16", "--minnow", "--ratio=0.5",
                  "--name=foo", "input.gr"});
    EXPECT_EQ(opts.getUint("cores", 1), 16u);
    EXPECT_TRUE(opts.getBool("minnow", false));
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio", 0), 0.5);
    EXPECT_EQ(opts.getString("name", ""), "foo");
    EXPECT_EQ(opts.getInt("missing", -3), -3);
    ASSERT_EQ(opts.positional().size(), 1u);
    EXPECT_EQ(opts.positional()[0], "input.gr");
    opts.rejectUnused(); // everything was consumed; must not die.
}

TEST(Options, BoolSpellings)
{
    Options opts({"--a=yes", "--b=off", "--c=1", "--d=false"});
    EXPECT_TRUE(opts.getBool("a", false));
    EXPECT_FALSE(opts.getBool("b", true));
    EXPECT_TRUE(opts.getBool("c", false));
    EXPECT_FALSE(opts.getBool("d", true));
}

TEST(Options, NegativeInt)
{
    Options opts({"--x=-5"});
    EXPECT_EQ(opts.getInt("x", 0), -5);
}

TEST(Options, ListSplitsOnCommasAndDropsEmptyItems)
{
    using List = std::vector<std::string>;
    Options opts({"--w=sssp,bfs", "--one=8", "--gaps=,4,,4s,",
                  "--empty="});
    EXPECT_EQ(opts.getList("w", ""), (List{"sssp", "bfs"}));
    EXPECT_EQ(opts.getList("one", ""), (List{"8"}));
    EXPECT_EQ(opts.getList("gaps", ""), (List{"4", "4s"}));
    EXPECT_EQ(opts.getList("empty", "1,2"), List{});
    EXPECT_EQ(opts.getList("absent", "1,2"), (List{"1", "2"}));
    EXPECT_EQ(opts.getList("absent2", ""), List{});
    opts.rejectUnused(); // getList marks the key used.
}

TEST(Table, Format)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::count(0), "0");
    EXPECT_EQ(TextTable::count(999), "999");
    EXPECT_EQ(TextTable::count(1000), "1,000");
    EXPECT_EQ(TextTable::count(1234567), "1,234,567");
}

} // anonymous namespace
} // namespace minnow
