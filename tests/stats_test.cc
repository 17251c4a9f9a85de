/**
 * @file
 * Unit tests for the hierarchical stats registry (base/stats.hh):
 * registration/lookup, formula evaluation, histogram bucketing,
 * JSON export round-trip, EventQueue-driven interval sampling (the
 * columnar sample layout against the map-of-strings sampler it
 * replaced), and the JSON writer (base/json.hh) against the printf
 * formatter it replaced.
 *
 * The JSON checks parse the emitted document with a minimal
 * recursive-descent parser so a malformed dump (stray comma, bad
 * escape, truncated object) fails loudly rather than "looks fine".
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "apps/sssp.hh"
#include "base/json.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "galois/executor.hh"
#include "graph/generators.hh"
#include "runtime/machine.hh"
#include "sim/event_queue.hh"
#include "worklist/obim.hh"

namespace minnow
{
namespace
{

//
// Minimal JSON parser (objects, arrays, strings, numbers, bools).
//

struct JsonValue
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue missing;
        auto it = obj.find(key);
        return it == obj.end() ? missing : it->second;
    }

    bool has(const std::string &key) const { return obj.count(key); }
};

class JsonParser
{
  public:
    // Copies the text: callers hand in toJson() temporaries.
    explicit JsonParser(std::string text) : s_(std::move(text)) {}

    /** Parse the full document; sets ok() false on any error. */
    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            ok_ = false;
        return v;
    }

    bool ok() const { return ok_; }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipWs();
        if (pos_ >= s_.size()) {
            ok_ = false;
            return {};
        }
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Obj;
        consume('{');
        if (consume('}'))
            return v;
        do {
            JsonValue key = string();
            if (!ok_ || !consume(':'))
                break;
            v.obj[key.str] = value();
        } while (ok_ && consume(','));
        if (!consume('}'))
            ok_ = false;
        return v;
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Arr;
        consume('[');
        if (consume(']'))
            return v;
        do {
            v.arr.push_back(value());
        } while (ok_ && consume(','));
        if (!consume(']'))
            ok_ = false;
        return v;
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Str;
        if (!consume('"')) {
            ok_ = false;
            return v;
        }
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                char e = s_[pos_++];
                switch (e) {
                  case 'n': v.str += '\n'; break;
                  case 't': v.str += '\t'; break;
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case 'u':
                    // Tests only need ASCII escapes.
                    if (pos_ + 4 <= s_.size()) {
                        v.str += char(std::stoul(
                            s_.substr(pos_, 4), nullptr, 16));
                        pos_ += 4;
                    } else {
                        ok_ = false;
                    }
                    break;
                  default: ok_ = false;
                }
            } else {
                v.str += c;
            }
        }
        if (!consume('"'))
            ok_ = false;
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.b = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.b = false;
            pos_ += 5;
        } else {
            ok_ = false;
        }
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Num;
        std::size_t end = pos_;
        while (end < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
                s_[end] == 'e' || s_[end] == 'E'))
            ++end;
        if (end == pos_) {
            ok_ = false;
            return v;
        }
        v.num = std::stod(s_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    std::string s_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

//
// Registration and lookup.
//

TEST(StatsRegistry, RegisterAndFind)
{
    StatsRegistry reg;
    StatsGroup &g = reg.group("core0");
    CounterStat &c = g.counter("uops", "micro-ops committed");
    ScalarStat &s = g.scalar("freqGhz", "clock");
    s = 2.5;
    ++c;
    c += 9;

    ASSERT_NE(reg.find("core0"), nullptr);
    EXPECT_EQ(reg.find("nope"), nullptr);
    const Stat *uops = reg.find("core0")->find("uops");
    ASSERT_NE(uops, nullptr);
    EXPECT_EQ(uops->kind(), StatKind::Counter);
    EXPECT_DOUBLE_EQ(uops->value(), 10.0);
    EXPECT_DOUBLE_EQ(reg.find("core0")->find("freqGhz")->value(),
                     2.5);
    EXPECT_EQ(reg.find("core0")->find("nope"), nullptr);

    // group() is get-or-create; the same group comes back.
    EXPECT_EQ(&reg.group("core0"), &g);
}

TEST(StatsRegistry, FreshGroupReplacesAndRemoveDrops)
{
    StatsRegistry reg;
    reg.group("worklist").counter("pops");
    ASSERT_NE(reg.find("worklist")->find("pops"), nullptr);

    // freshGroup drops the old stats (machine reuse).
    StatsGroup &g2 = reg.freshGroup("worklist");
    EXPECT_EQ(g2.find("pops"), nullptr);
    g2.counter("pops");

    reg.removeGroup("worklist");
    EXPECT_EQ(reg.find("worklist"), nullptr);

    // Groups come back name-sorted.
    reg.group("b");
    reg.group("a");
    auto gs = reg.groups();
    ASSERT_EQ(gs.size(), 2u);
    EXPECT_EQ(gs[0]->name(), "a");
    EXPECT_EQ(gs[1]->name(), "b");
}

//
// Formula evaluation.
//

TEST(StatsClaim, RemovesItsGroupWhenDestroyedOrReplaced)
{
    StatsRegistry reg;
    reg.group("a").counter("n") += 1;
    reg.group("b").counter("n") += 1;
    {
        StatsClaim claim(reg, "a");
        StatsClaim moved(std::move(claim));
        EXPECT_NE(reg.find("a"), nullptr);
        moved = StatsClaim(reg, "b"); // releases "a" first.
        EXPECT_EQ(reg.find("a"), nullptr);
        EXPECT_NE(reg.find("b"), nullptr);
    }
    EXPECT_EQ(reg.find("b"), nullptr);
}

TEST(StatsClaim, OutlivingItsRegistryDoesNothing)
{
    StatsClaim claim;
    {
        StatsRegistry reg;
        reg.group("g").counter("n") += 1;
        claim = StatsClaim(reg, "g");
    }
    claim.release(); // the registry is gone: must not touch it.
}

TEST(StatsRegistry, FormulaTracksLiveCountersLazily)
{
    StatsRegistry reg;
    std::uint64_t misses = 0, uops = 0;
    FormulaStat &mpki = reg.group("l2_0").formula(
        "mpki", "misses per kilo-instruction", [&] {
            return uops ? double(misses) / (double(uops) / 1000.0)
                        : 0.0;
        });

    // 0/0 guarded by the formula itself.
    EXPECT_DOUBLE_EQ(mpki.value(), 0.0);

    misses = 50;
    uops = 10'000;
    EXPECT_DOUBLE_EQ(mpki.value(), 5.0);

    // Lazy: later counter updates show in the next evaluation.
    misses = 100;
    EXPECT_DOUBLE_EQ(mpki.value(), 10.0);
}

TEST(StatsRegistry, FormulaNonFiniteReadsAsZero)
{
    StatsRegistry reg;
    FormulaStat &f = reg.group("sim").formula(
        "bad", "division by zero", [] { return 1.0 / 0.0; });
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

//
// Histogram bucketing.
//

TEST(StatsRegistry, HistogramBucketsAndOverflow)
{
    StatsRegistry reg;
    HistogramStat &h = reg.group("worklist").histogram(
        "popLatency", "cycles", 10, 4);

    h.sample(0);   // bucket 0.
    h.sample(9);   // bucket 0.
    h.sample(10);  // bucket 1.
    h.sample(35);  // bucket 3.
    h.sample(39);  // bucket 3.
    h.sample(400); // overflow -> last bucket (3).

    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 3u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 9 + 10 + 35 + 39 + 400) / 6.0);
    // Histograms report their mean as the scalar value.
    EXPECT_DOUBLE_EQ(h.value(), h.mean());

    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucketCount(3), 0u);
}

TEST(StatsRegistry, HistogramDegenerateParamsClamp)
{
    StatsRegistry reg;
    // Zero width/bucket-count clamp to 1 instead of dividing by 0.
    HistogramStat &h =
        reg.group("g").histogram("h", "degenerate", 0, 0);
    h.sample(1234);
    EXPECT_EQ(h.bucketWidth(), 1u);
    EXPECT_EQ(h.numBuckets(), 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

//
// JSON round-trip.
//

TEST(StatsRegistry, JsonRoundTrip)
{
    StatsRegistry reg;
    StatsGroup &core = reg.group("core0");
    core.counter("uops") += 12345;
    core.scalar("ipc\"weird\nname") = 0.75; // escaping probe.
    std::uint64_t misses = 250, uops = 12345;
    reg.group("l2_0").formula("mpki", "", [&] {
        return double(misses) / (double(uops) / 1000.0);
    });
    HistogramStat &h =
        reg.group("worklist").histogram("popLatency", "", 16, 8);
    h.sample(5);
    h.sample(100);
    h.sample(10'000); // overflow bucket.

    JsonParser p(reg.toJson());
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok()) << reg.toJson();

    EXPECT_EQ(doc.at("schema").str, "minnow-stats-1");
    const JsonValue &groups = doc.at("groups");
    ASSERT_EQ(groups.kind, JsonValue::Obj);
    ASSERT_TRUE(groups.has("core0"));
    ASSERT_TRUE(groups.has("l2_0"));
    ASSERT_TRUE(groups.has("worklist"));

    EXPECT_DOUBLE_EQ(groups.at("core0").at("uops").num, 12345.0);
    EXPECT_DOUBLE_EQ(
        groups.at("core0").at("ipc\"weird\nname").num, 0.75);
    EXPECT_NEAR(groups.at("l2_0").at("mpki").num,
                250.0 / 12.345, 1e-9);

    const JsonValue &hist = groups.at("worklist").at("popLatency");
    ASSERT_EQ(hist.kind, JsonValue::Obj);
    EXPECT_EQ(hist.at("type").str, "histogram");
    EXPECT_DOUBLE_EQ(hist.at("bucketWidth").num, 16.0);
    EXPECT_DOUBLE_EQ(hist.at("total").num, 3.0);
    ASSERT_EQ(hist.at("counts").arr.size(), 8u);
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[0].num, 1.0); // 5.
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[6].num, 1.0); // 100.
    EXPECT_DOUBLE_EQ(hist.at("counts").arr[7].num, 1.0); // overflow.
}

TEST(StatsRegistry, JsonIntegersHaveNoExponent)
{
    StatsRegistry reg;
    reg.group("sim").counter("big") += 123'456'789'012ull;
    std::string json = reg.toJson();
    EXPECT_NE(json.find("123456789012"), std::string::npos) << json;
    EXPECT_EQ(json.find("1.23456789012e"), std::string::npos);
}

//
// Interval sampling off the EventQueue.
//

void
nopEvent(void *)
{
}

TEST(StatsRegistry, SamplingRecordsIntervalsAndLetsQueueDrain)
{
    EventQueue eq;
    StatsRegistry reg;
    std::uint64_t work = 0;
    reg.group("sim").formula("work", "",
                             [&] { return double(work); });

    // Simulated activity at cycles 10..500.
    for (Cycle t = 10; t <= 500; t += 10)
        eq.schedule(t, nopEvent, &work);

    reg.startSampling(eq, 100);
    work = 42;
    eq.run();

    // The queue drained: the sampler must not keep the sim alive.
    EXPECT_TRUE(eq.empty());
    ASSERT_GE(reg.sampleCount(), 4u);
    EXPECT_EQ(reg.sample(0).cycle, 100u);
    EXPECT_EQ(reg.sample(1).cycle, 200u);
    EXPECT_DOUBLE_EQ(reg.sample(0).at("sim.work"), 42.0);

    // Interval samples ride along in the JSON document.
    JsonParser p(reg.toJson());
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok());
    const JsonValue &intervals = doc.at("intervals");
    ASSERT_EQ(intervals.kind, JsonValue::Arr);
    ASSERT_GE(intervals.arr.size(), 4u);
    EXPECT_DOUBLE_EQ(intervals.arr[0].at("cycle").num, 100.0);
    EXPECT_DOUBLE_EQ(
        intervals.arr[0].at("values").at("sim.work").num, 42.0);
}

TEST(StatsRegistry, WriteJsonFileRoundTrips)
{
    StatsRegistry reg;
    reg.group("sim").counter("cycles") += 77;

    std::string path =
        testing::TempDir() + "/minnow_stats_test.json";
    ASSERT_TRUE(reg.writeJsonFile(path));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonParser p(text);
    JsonValue doc = p.parse();
    ASSERT_TRUE(p.ok()) << text;
    EXPECT_DOUBLE_EQ(
        doc.at("groups").at("sim").at("cycles").num, 77.0);
}

TEST(StatsRegistry, StreamedJsonMatchesToJsonAcrossChunks)
{
    // Several chunks of groups and interval samples: the file sink
    // writes a chunk each time one fills, mid-group and mid-sample,
    // and its bytes must still be exactly toJson()'s.
    StatsRegistry reg;
    std::vector<CounterStat *> counters;
    for (int g = 0; g < 40; ++g) {
        StatsGroup &grp = reg.group("core" + std::to_string(g));
        grp.histogram("lat", "latency", 4, 16).sample(g * 3);
        for (int s = 0; s < 50; ++s)
            counters.push_back(
                &grp.counter("stat\"" + std::to_string(s)));
    }
    for (int i = 0; i < 100; ++i) {
        for (std::size_t c = 0; c < counters.size(); ++c)
            *counters[c] += (c * 7919 + std::size_t(i)) % 1000;
        reg.recordSample(Cycle(i) * 1000);
    }
    const std::string whole = reg.toJson();
    ASSERT_GT(whole.size(), 3 * json::ChunkSink::kChunk);

    auto readAll = [](const std::string &path) {
        std::string text;
        std::FILE *f = std::fopen(path.c_str(), "rb");
        char buf[65536];
        std::size_t n;
        while (f && (n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        if (f)
            std::fclose(f);
        std::remove(path.c_str());
        return text;
    };
    std::string path = testing::TempDir() + "/minnow_stats_chunks.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    json::ChunkSink sink(f);
    reg.writeJson(sink);
    EXPECT_LE(sink.buf.capacity(), json::ChunkSink::kChunk + 4096)
        << "the chunk grew past one chunk";
    EXPECT_TRUE(sink.flush());
    std::fclose(f);
    EXPECT_TRUE(readAll(path) == whole);

    ASSERT_TRUE(reg.writeJsonFile(path));
    EXPECT_TRUE(readAll(path) == whole + "\n");
}

//
// base/json.hh against the printf formatter it replaced.
//

/** The old stats/timeline number grammar, kept as the reference. */
std::string
printfNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/** The old escaper, kept as the reference. */
std::string
printfEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    std::string out;
    json::appendNumber(out, v);
    return out;
}

TEST(Json, NumberMatchesPrintfOnEdgeCases)
{
    using lim = std::numeric_limits<double>;
    const double edges[] = {
        0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e-5, 0.5, -0.5, 1.5,
        2.5, 1.0 / 3.0, 2.0 / 3.0, 100.0 / 7.0, 12345678.9,
        123456789012.0, 123456789012345.6, 999999999999.5,
        9.0e15, -9.0e15, std::nextafter(9.0e15, 0.0),
        std::nextafter(9.0e15, lim::infinity()),
        std::nextafter(-9.0e15, 0.0), 8999999999999999.0,
        9007199254740992.0, 1e16, 1e21, 1e22, 1e300, -1e300,
        lim::max(), lim::lowest(), lim::min(), -lim::min(),
        lim::denorm_min(), -lim::denorm_min(), 1e-310, -4.2e-320,
        lim::epsilon(), lim::quiet_NaN(), -lim::quiet_NaN(),
        lim::infinity(), -lim::infinity(), 1e12, 1e12 + 0.5,
        0.000123456789012345, 99999999999.95, 0.99999999999995,
    };
    for (double v : edges)
        EXPECT_EQ(jsonNumber(v), printfNumber(v)) << v;
    EXPECT_EQ(jsonNumber(-0.0), "-0");
    EXPECT_EQ(jsonNumber(lim::quiet_NaN()), "0");
    EXPECT_EQ(jsonNumber(9.0e15), "9e+15");
}

TEST(Json, NumberMatchesPrintfOnRandomDoubles)
{
    Rng rng(2024);
    for (int i = 0; i < 100'000; ++i) {
        double v;
        switch (i % 5) {
          case 0: // any bit pattern: subnormals, NaNs, huge, tiny.
            v = std::bit_cast<double>(rng.next());
            break;
          case 1: // integers of every magnitude up to 2^63.
            v = double(rng.next() >> rng.below(64));
            break;
          case 2: // decimals with a few digits, as counters/ratios.
            v = double(rng.below(10'000'000)) /
                std::pow(10.0, double(rng.below(12)));
            break;
          case 3: // ratios of counters (MPKI, accuracy, means).
            v = double(rng.below(1'000'000)) /
                double(1 + rng.below(1'000'000));
            break;
          default: // signed values around the integer cut-off.
            v = (rng.chance(0.5) ? -1.0 : 1.0) *
                (9.0e15 + double(rng.range(0, 4096)) - 2048.0);
            break;
        }
        ASSERT_EQ(jsonNumber(v), printfNumber(v))
            << "bits " << std::bit_cast<std::uint64_t>(v);
    }
}

TEST(Json, U64MatchesPrintf)
{
    Rng rng(7);
    const std::uint64_t edges[] = {0, 1, 9, 10, 99, 100,
                                   ~std::uint64_t(0)};
    auto check = [](std::uint64_t v) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        std::string out;
        json::appendU64(out, v);
        EXPECT_EQ(out, buf);
    };
    for (std::uint64_t v : edges)
        check(v);
    for (int i = 0; i < 10'000; ++i)
        check(rng.next() >> rng.below(64));
}

TEST(Json, EscapeMatchesReference)
{
    // Every byte on its own, then random strings over all bytes
    // (biased towards the ones that need escaping).
    for (int c = 0; c < 256; ++c) {
        std::string s(1, char(c));
        std::string out;
        json::appendEscaped(out, s);
        EXPECT_EQ(out, printfEscape(s)) << c;
    }
    Rng rng(11);
    const char special[] = {'"', '\\', '\n', '\t', '\x01', '\x1f'};
    for (int i = 0; i < 10'000; ++i) {
        std::string s;
        std::uint64_t len = rng.below(24);
        for (std::uint64_t k = 0; k < len; ++k) {
            s += rng.chance(0.3) ? special[rng.below(sizeof special)]
                                 : char(rng.below(256));
        }
        std::string out = "prefix";
        json::appendEscaped(out, s);
        ASSERT_EQ(out, "prefix" + printfEscape(s));
    }
}

//
// Columnar interval samples.
//

/**
 * The sampler the columnar layout replaced: every non-histogram stat
 * outside "hostprof" into a fresh map of "group.stat" keys, so a
 * later stat with the same joined key overwrites an earlier one.
 */
std::map<std::string, double>
mapSample(const StatsRegistry &reg)
{
    std::map<std::string, double> values;
    for (const StatsGroup *g : reg.groups()) {
        if (g->name() == "hostprof")
            continue;
        for (const auto &s : g->stats()) {
            if (s->kind() != StatKind::Histogram)
                values[g->name() + "." + s->name()] = s->value();
        }
    }
    return values;
}

/** The old "intervals" member text, rendered with printf. */
std::string
mapIntervalsJson(
    const std::vector<std::pair<Cycle, std::map<std::string, double>>>
        &samples)
{
    std::string out = ",\"intervals\":[";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        if (i)
            out += ',';
        out += "{\"cycle\":" + printfNumber(double(samples[i].first)) +
               ",\"values\":{";
        bool first = true;
        for (const auto &[key, v] : samples[i].second) {
            if (!first)
                out += ',';
            first = false;
            out += '"' + printfEscape(key) + "\":" + printfNumber(v);
        }
        out += "}}";
    }
    return out + ']';
}

/** The "intervals" member of @p json (empty when absent). */
std::string
intervalsOf(const std::string &json)
{
    std::size_t at = json.find(",\"intervals\":[");
    if (at == std::string::npos)
        return "";
    return json.substr(at, json.size() - 1 - at);
}

/** Every interval sample of @p reg, read back from its spool. */
std::vector<StatsRegistry::IntervalSample>
samplesOf(const StatsRegistry &reg)
{
    std::vector<StatsRegistry::IntervalSample> out;
    for (std::size_t i = 0; i < reg.sampleCount(); ++i)
        out.push_back(reg.sample(i));
    return out;
}

/** Samples both ways at the same instants on a machine's queue. */
struct DualSampler
{
    runtime::Machine *m = nullptr;
    Cycle interval = 0;
    std::vector<std::pair<Cycle, std::map<std::string, double>>> ref;

    void
    arm()
    {
        m->eq.daemonScheduled();
        m->eq.schedule(m->eq.now() + interval, &DualSampler::fire,
                       this);
    }

    static void
    fire(void *arg)
    {
        auto *d = static_cast<DualSampler *>(arg);
        EventQueue &eq = d->m->eq;
        eq.daemonFired();
        d->m->stats.recordSample(eq.now());
        d->ref.emplace_back(eq.now(), mapSample(d->m->stats));
        if (!eq.quiescent())
            d->arm();
    }
};

TEST(StatsSampling, MatchesMapSamplerOn64Cores)
{
    MachineConfig cfg = scaledMachine();
    cfg.numCores = 64;
    runtime::Machine m(cfg);
    graph::CsrGraph g = graph::gridGraph(24, 24, 100, 1);
    g.assignAddresses(m.alloc, 32);
    apps::SsspApp app(&g, 0, false, 1u << 30, "sssp");
    app.reset();
    worklist::ObimWorklist wl(&m, 3, 8, 2);
    DualSampler d;
    d.m = &m;
    d.interval = 500;
    d.arm();
    galois::RunConfig rc;
    rc.threads = 64;
    galois::RunResult r = galois::runParallel(m, app, wl, rc);
    ASSERT_TRUE(r.verified);

    ASSERT_GE(d.ref.size(), 4u);
    ASSERT_EQ(m.stats.sampleCount(), d.ref.size());
    EXPECT_GT(d.ref.back().second.size(), 1000u);
    std::string got = intervalsOf(m.stats.toJson());
    std::string want = mapIntervalsJson(d.ref);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want);
    // An unchanged structure shares one layout across samples.
    EXPECT_EQ(m.stats.sample(0).layout,
              m.stats.sample(d.ref.size() - 1).layout);
}

void
freshGroupEvent(void *arg)
{
    auto *reg = static_cast<StatsRegistry *>(arg);
    reg->freshGroup("b").counter("y") += 7; // same key, new Stat.
}

void
removeGroupEvent(void *arg)
{
    static_cast<StatsRegistry *>(arg)->removeGroup("a");
}

void
addStatEvent(void *arg)
{
    static_cast<StatsRegistry *>(arg)->group("b").counter("w") += 3;
}

TEST(StatsSampling, LayoutRebuiltAfterEachStructuralChange)
{
    EventQueue eq;
    StatsRegistry reg;
    reg.group("a").counter("x") += 1;
    reg.group("b").counter("y") += 2;
    reg.group("hostprof").counter("ns") += 99;

    // Samples at 100..500; structure changes between them.
    eq.schedule(150, freshGroupEvent, &reg);
    eq.schedule(250, removeGroupEvent, &reg);
    eq.schedule(350, addStatEvent, &reg);
    for (Cycle t = 10; t <= 500; t += 10)
        eq.schedule(t, nopEvent, &reg);
    reg.startSampling(eq, 100);
    eq.run();

    const std::vector<StatsRegistry::IntervalSample> s = samplesOf(reg);
    ASSERT_EQ(s.size(), 5u);
    using Keys = std::vector<std::string>;
    ASSERT_EQ(s[0].keys, (Keys{"a.x", "b.y"}));
    EXPECT_EQ(s[0].at("b.y"), 2.0);
    // freshGroup: same keys, so one layout record, but the value
    // comes from the new stat.
    ASSERT_EQ(s[1].keys, (Keys{"a.x", "b.y"}));
    EXPECT_EQ(s[1].layout, s[0].layout);
    EXPECT_EQ(s[1].at("b.y"), 7.0);
    // removeGroup.
    ASSERT_EQ(s[2].keys, (Keys{"b.y"}));
    EXPECT_NE(s[2].layout, s[1].layout);
    // A stat added to an existing group.
    ASSERT_EQ(s[3].keys, (Keys{"b.w", "b.y"}));
    EXPECT_NE(s[3].layout, s[2].layout);
    EXPECT_EQ(s[3].at("b.w"), 3.0);
    // No change: the layout is shared.
    EXPECT_EQ(s[4].layout, s[3].layout);
    // The export reads each row back under its own layout.
    EXPECT_EQ(intervalsOf(reg.toJson()),
              ",\"intervals\":["
              "{\"cycle\":100,\"values\":{\"a.x\":1,\"b.y\":2}},"
              "{\"cycle\":200,\"values\":{\"a.x\":1,\"b.y\":7}},"
              "{\"cycle\":300,\"values\":{\"b.y\":7}},"
              "{\"cycle\":400,\"values\":{\"b.w\":3,\"b.y\":7}},"
              "{\"cycle\":500,\"values\":{\"b.w\":3,\"b.y\":7}}]");
}

TEST(StatsSampling, DuplicateJoinedKeyKeepsLastWriter)
{
    StatsRegistry reg;
    reg.group("a.b").counter("c") += 2; // "a.b" sorts after "a".
    reg.group("a").counter("b.c") += 1;
    reg.recordSample(10);
    ASSERT_EQ(reg.sampleCount(), 1u);
    const StatsRegistry::IntervalSample is = reg.sample(0);
    ASSERT_EQ(is.values.size(), 1u);
    EXPECT_EQ(is.keys[0], "a.b.c");
    EXPECT_EQ(is.at("a.b.c"), mapSample(reg).at("a.b.c"));
    EXPECT_EQ(is.at("a.b.c"), 2.0);
}

/**
 * A registry shaped like a small machine, sampled at cycles 100 to
 * 400; "core0.uops" grows by @p uops[i] before sample i.
 */
void
buildSampled(StatsRegistry &reg,
             const std::array<std::uint64_t, 4> &uops = {11, 11, 11,
                                                         11})
{
    CounterStat &n = reg.group("core0").counter("uops");
    reg.group("core0").scalar("ipc \"q\"") = 0.1;
    reg.group("l2_0").formula("ratio", "",
                              [&n] { return n.value() / 3.0; });
    reg.group("worklist").histogram("lat", "", 4, 4).sample(9);
    reg.group("late"); // an empty group, filled in below.
    for (std::size_t i = 0; i < uops.size(); ++i) {
        Cycle c = 100 * Cycle(i + 1);
        n += uops[i];
        if (c == 300)
            reg.group("late").counter("n") += 5;
        reg.recordSample(c);
    }
}

std::vector<std::uint8_t>
checkpointBytes(const StatsRegistry &reg)
{
    std::vector<std::uint8_t> bytes;
    ckpt::Ckpt ck(bytes);
    reg.checkpoint(ck);
    return bytes;
}

TEST(StatsSampling, CheckpointBytesFollowTheSamples)
{
    StatsRegistry a;
    buildSampled(a);
    // The samples span the layout change at cycle 300.
    const std::string want =
        ",\"intervals\":["
        "{\"cycle\":100,\"values\":{\"core0.ipc \\\"q\\\"\":0.1,"
        "\"core0.uops\":11,\"l2_0.ratio\":3.66666666667}},"
        "{\"cycle\":200,\"values\":{\"core0.ipc \\\"q\\\"\":0.1,"
        "\"core0.uops\":22,\"l2_0.ratio\":7.33333333333}},"
        "{\"cycle\":300,\"values\":{\"core0.ipc \\\"q\\\"\":0.1,"
        "\"core0.uops\":33,\"l2_0.ratio\":11,\"late.n\":5}},"
        "{\"cycle\":400,\"values\":{\"core0.ipc \\\"q\\\"\":0.1,"
        "\"core0.uops\":44,\"l2_0.ratio\":14.6666666667,\"late.n\":5}}]";
    EXPECT_EQ(intervalsOf(a.toJson()), want);
    const std::vector<std::uint8_t> bytes = checkpointBytes(a);

    // A registry built alike saves the same bytes.
    StatsRegistry b;
    buildSampled(b);
    EXPECT_EQ(checkpointBytes(b), bytes);

    // One that ends with the same values but took its cycle-200
    // sample at another value does not.
    StatsRegistry c;
    buildSampled(c, {11, 12, 10, 11});
    EXPECT_EQ(c.find("core0")->find("uops")->value(), 44.0);
    EXPECT_NE(intervalsOf(c.toJson()), want);
    const std::vector<std::uint8_t> other = checkpointBytes(c);
    EXPECT_EQ(other.size(), bytes.size());
    EXPECT_NE(other, bytes);
}

TEST(StatsSampling, SpoolLeavesNoFileInTmpdir)
{
    // The spool has no name in TMPDIR at any time, so no way of
    // ending the process can leave one behind.
    std::string dir = testing::TempDir() + "/minnow_spool_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const char *old = std::getenv("TMPDIR");
    const std::string saved = old ? old : "";
    ::setenv("TMPDIR", dir.c_str(), 1);
    auto entries = [&] {
        std::vector<std::string> names;
        for (const auto &e : std::filesystem::directory_iterator(dir))
            names.push_back(e.path().filename().string());
        return names;
    };
    {
        EventQueue eq;
        StatsRegistry reg;
        std::uint64_t work = 0;
        reg.group("sim").formula("work", "",
                                 [&] { return double(work); });
        for (Cycle t = 10; t <= 500; t += 10)
            eq.schedule(t, nopEvent, &work);
        reg.startSampling(eq, 100);
        eq.run();
        ASSERT_GE(reg.sampleCount(), 4u);
        EXPECT_EQ(entries(), std::vector<std::string>{}); // spool open.
        EXPECT_NE(reg.toJson().find("\"intervals\""), std::string::npos);
    }
    EXPECT_EQ(entries(), std::vector<std::string>{});
    if (old)
        ::setenv("TMPDIR", saved.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
    std::filesystem::remove_all(dir);
}

TEST(StatsSamplingDeathTest, UncreatableSpoolIsFatal)
{
    // The spool goes to TMPDIR. A directory that does not exist stops
    // it for any user; a read-only one only where write permission
    // is enforced (not for root).
    const std::string ro = testing::TempDir() + "/minnow_stats_ro";
    ::mkdir(ro.c_str(), 0755);
    ASSERT_EQ(::chmod(ro.c_str(), 0555), 0);
    std::vector<std::string> dirs = {ro + "/missing"};
    if (::access(ro.c_str(), W_OK) != 0)
        dirs.push_back(ro);
    for (const std::string &dir : dirs) {
        EXPECT_EXIT(
            {
                ::setenv("TMPDIR", dir.c_str(), 1);
                StatsRegistry reg;
                reg.group("sim").counter("n") += 1;
                reg.recordSample(100);
            },
            testing::ExitedWithCode(1),
            "cannot create the interval-sample spool")
            << dir;
    }
    ::rmdir(ro.c_str());
}

} // anonymous namespace
} // namespace minnow
