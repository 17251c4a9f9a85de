/**
 * @file
 * Checkpoint container + visitor tests: the container's byte layout
 * (pinned, since nothing reads it back), the atomic file write, the
 * visitor's encoding, and machine-level witnesses: two saves of one
 * state are byte-identical, and a changed allocator, graph edge or
 * config knob is named by the section it changes (DESIGN.md 5i).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/ckpt.hh"
#include "harness/workloads.hh"
#include "runtime/machine.hh"
#include "sim/checkpoint.hh"

using namespace minnow;

namespace
{

/** A small two-section checkpoint image. */
std::vector<std::uint8_t>
sampleImage()
{
    ckpt::Writer w;
    w.add("alpha", {1, 2, 3, 4, 5});
    w.add("beta", {9, 8, 7});
    return w.encode();
}

/**
 * The sections of @p a that @p b lacks or holds other bytes for, in
 * @p a's order: what a byte compare of the two files would blame.
 */
std::vector<std::string>
differingSections(const ckpt::Writer &a, const ckpt::Writer &b)
{
    std::vector<std::string> out;
    for (const ckpt::Section &s : a.sections()) {
        auto same = [&](const ckpt::Section &o) {
            return o.name == s.name && o.bytes == s.bytes;
        };
        if (std::none_of(b.sections().begin(), b.sections().end(),
                         same))
            out.push_back(s.name);
    }
    return out;
}

/** Every section of @p m, in file order. */
ckpt::Writer
sectionsOf(const runtime::Machine &m)
{
    ckpt::Writer w;
    m.checkpointSections(w);
    return w;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "minnow_ckpt_test_" + name;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::vector<std::uint8_t> out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.insert(out.end(), buf, buf + n);
    std::fclose(f);
    return out;
}

/**
 * A small sssp/minnow-pf point; @p ckpt sets its checkpoint flags.
 * Its stats document lands in @p stats.
 */
harness::ExperimentResult
runPoint(const std::function<void(harness::RunSpec &)> &ckpt,
         std::string &stats)
{
    harness::Workload w = harness::makeWorkload("sssp", 0.1, 2);
    harness::RunSpec spec;
    spec.config = harness::Config::MinnowPf;
    spec.threads = 2;
    spec.machine.numCores = 2;
    spec.statsHook = [&stats](const StatsRegistry &s) {
        stats = s.toJson();
    };
    if (ckpt)
        ckpt(spec);
    return harness::runExperiment(w, spec);
}

/** The stats of runPoint() without checkpoint flags. */
const std::string &
coldStats()
{
    static const std::string stats = [] {
        std::string s;
        runPoint({}, s);
        return s;
    }();
    return stats;
}

/**
 * Save runPoint()'s anchor-0 checkpoint, check that saving left the
 * run as a cold run leaves it, and return the file's bytes.
 */
std::vector<std::uint8_t>
saveAnchorZero(const std::string &name)
{
    std::string path = tmpPath(name);
    std::string stats;
    testing::internal::CaptureStderr();
    harness::ExperimentResult r = runPoint(
        [&](harness::RunSpec &s) { s.checkpointOut = path; }, stats);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_TRUE(r.run.verified);
    EXPECT_EQ(stats, coldStats()) << "saving perturbed the run";
    std::vector<std::uint8_t> bytes = readBytes(path);
    std::remove(path.c_str());
    return bytes;
}

} // anonymous namespace

TEST(CkptContainer, EncodeLayoutIsPinned)
{
    // Nothing reads a checkpoint back, so the layout of
    // sim/checkpoint.hh is pinned here byte for byte. The CRCs are
    // the IEEE CRC-32 of zlib and Python's zlib.crc32, whose check
    // value for "123456789" is 0xCBF43926.
    EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
    const std::vector<std::uint8_t> want = {
        'm', 'i', 'n', 'n', 'o', 'w', '-', 'c', 'k', 'p', 't', '-',
        '4', '\n',                              // magic
        2, 0, 0, 0,                             // section count
        5, 0, 0, 0, 'a', 'l', 'p', 'h', 'a',    // name
        5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5,  // payload
        0xf4, 0x99, 0x0b, 0x47,                 // payload CRC
        4, 0, 0, 0, 'b', 'e', 't', 'a',
        3, 0, 0, 0, 0, 0, 0, 0, 9, 8, 7,
        0x36, 0xfd, 0x2d, 0xa6,
        0x0e, 0x02, 0x4a, 0xb5,                 // file CRC
    };
    EXPECT_EQ(sampleImage(), want);
}

TEST(CkptContainer, FileRoundtripIsAtomic)
{
    ckpt::Writer w;
    w.add("only", {42});
    std::string path = tmpPath("roundtrip.ckpt");
    ASSERT_EQ(w.writeFile(path), "");
    // The temp file must not linger after the rename.
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    EXPECT_EQ(readBytes(path), w.encode());
    std::remove(path.c_str());
}

TEST(CkptContainer, MissingFileIsDiagnosed)
{
    // A file in a missing directory cannot be written: the writer
    // names the temp file and leaves nothing behind.
    ckpt::Writer w;
    w.add("only", {42});
    std::string path = tmpPath("no_such_dir/out.ckpt");
    std::string err = w.writeFile(path);
    EXPECT_NE(err.find("cannot open " + path + ".tmp"),
              std::string::npos)
        << err;
    EXPECT_TRUE(readBytes(path).empty());
}

TEST(CkptVisitor, ScalarStringVectorRoundtrip)
{
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck(buf);
        const std::uint64_t a = 0x1122334455667788ull;
        const double d = 2.5;
        const bool b = true;
        const std::string s = "hello";
        const std::vector<std::uint32_t> v = {1, 2, 3};
        const std::deque<std::uint16_t> q = {7, 8};
        ck.io(a);
        ck.io(d);
        ck.io(b);
        ck.io(s);
        ck.io(v);
        ck.io(q);
    }
    // Scalars as themselves; strings, vectors and deques as a u64
    // count, then their elements.
    EXPECT_EQ(buf.size(), 8u + 8 + 1 + (8 + 5) + (8 + 3 * 4) + (8 + 2 * 2));
    std::size_t pos = 0;
    auto take = [&](auto &v) {
        std::memcpy(&v, buf.data() + pos, sizeof v);
        pos += sizeof v;
    };
    std::uint64_t a = 0, sn = 0, vn = 0, qn = 0;
    double dv = 0;
    bool b = false;
    std::uint32_t v[3] = {};
    std::uint16_t q[2] = {};
    take(a);
    take(dv);
    take(b);
    take(sn);
    std::string s(reinterpret_cast<const char *>(buf.data() + pos),
                  sn);
    pos += sn;
    take(vn);
    for (std::uint32_t &e : v)
        take(e);
    take(qn);
    for (std::uint16_t &e : q)
        take(e);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(a, 0x1122334455667788ull);
    EXPECT_EQ(dv, 2.5);
    EXPECT_TRUE(b);
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(vn, 3u);
    EXPECT_EQ(v[2], 3u);
    EXPECT_EQ(qn, 2u);
    EXPECT_EQ(q[1], 8u);
}

TEST(CkptMachine, SaveValidateRestoreRoundtrip)
{
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    runtime::Machine m(mc);
    ckpt::Writer saved = sectionsOf(m);

    // Untouched machine: a second save matches byte for byte, and
    // so does the file it writes.
    EXPECT_TRUE(differingSections(saved, sectionsOf(m)).empty());
    std::string path = tmpPath("machine.ckpt");
    ASSERT_EQ(m.save(path), "");
    EXPECT_EQ(readBytes(path), saved.encode());
    std::remove(path.c_str());

    // Perturb the allocator; the comparison must name the section.
    m.alloc.alloc("ckpt-test", 64);
    EXPECT_EQ(differingSections(saved, sectionsOf(m)),
              std::vector<std::string>{"alloc"});
}

TEST(CkptMachine, DifferentConfigIsRejected)
{
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    mc.minnow.enabled = true;
    runtime::Machine m(mc);
    ckpt::Writer saved = sectionsOf(m);
    ASSERT_EQ(saved.sections().front().name, "config");

    // Each change is model-visible, so each must change the config
    // section, the first of the file — including the knobs the
    // Table 3 describe() omits.
    std::vector<std::pair<const char *,
                          std::function<void(MachineConfig &)>>>
        changes = {
            {"cores", [](MachineConfig &c) { c.numCores = 4; }},
            {"cores-per-engine",
             [](MachineConfig &c) { c.minnow.coresPerEngine = 2; }},
            {"prefetcher",
             [](MachineConfig &c) {
                 c.prefetcher = PrefetcherKind::Stride;
             }},
        };
    for (const auto &[name, change] : changes) {
        MachineConfig other = mc;
        change(other);
        runtime::Machine m2(other);
        std::vector<std::string> bad =
            differingSections(saved, sectionsOf(m2));
        ASSERT_FALSE(bad.empty()) << name;
        EXPECT_EQ(bad.front(), "config") << name;
    }
}

TEST(CkptMachine, CkptHooksEmitInRegistrationOrder)
{
    MachineConfig mc = scaledMachine();
    mc.numCores = 1;
    runtime::Machine m(mc);
    std::uint32_t x = 1, y = 2;
    m.addCkptHook("hook_b", [&](ckpt::Ckpt &ck) { ck.io(x); });
    m.addCkptHook("hook_a", [&](ckpt::Ckpt &ck) { ck.io(y); });
    ckpt::Writer w;
    m.checkpointSections(w);
    const auto &secs = w.sections();
    ASSERT_GE(secs.size(), 2u);
    EXPECT_EQ(secs[secs.size() - 2].name, "hook_b");
    EXPECT_EQ(secs[secs.size() - 1].name, "hook_a");
    // Re-registration replaces in place but moves to the tail.
    m.addCkptHook("hook_b", [&](ckpt::Ckpt &ck) { ck.io(y); });
    ckpt::Writer w2;
    m.checkpointSections(w2);
    EXPECT_EQ(w2.sections().back().name, "hook_b");
    m.removeCkptHook("hook_a");
    m.removeCkptHook("hook_b");
}

TEST(CkptMeta, FieldsAreWrittenInOrder)
{
    harness::CkptMeta meta;
    meta.cycle = 12345;
    meta.executed = 67890;
    meta.workload = "sssp";
    meta.scale = 0.25;
    meta.seed = 3;
    meta.config = "minnow-pf";
    meta.threads = 8;
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck(buf);
        meta.checkpoint(ck);
    }
    // Field for field: integers and the double as themselves,
    // strings as a u64 length and their characters.
    std::vector<std::uint8_t> want;
    auto put = [&](const auto &v) {
        const auto *b = reinterpret_cast<const std::uint8_t *>(&v);
        want.insert(want.end(), b, b + sizeof v);
    };
    auto putString = [&](const std::string &str) {
        put(std::uint64_t(str.size()));
        want.insert(want.end(), str.begin(), str.end());
    };
    put(std::uint64_t(12345));
    put(std::uint64_t(67890));
    putString("sssp");
    put(0.25);
    put(std::uint64_t(3));
    putString("minnow-pf");
    put(std::uint32_t(8));
    EXPECT_EQ(buf, want);
}

TEST(CkptRestore, AnchorZeroIsWitnessCleanAndMatchesCold)
{
    // The default anchor, cycle 0, fires before the first event. Two
    // runs that save there write the same bytes, quietly, and each
    // ends with the cold run's stats.
    std::vector<std::uint8_t> a = saveAnchorZero("anchor0_a.ckpt");
    std::vector<std::uint8_t> b = saveAnchorZero("anchor0_b.ckpt");
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "checkpoints differ";
}

TEST(CkptMachine, AnchorPastTheEndWarnsAndWritesNothing)
{
    // An anchor the run never reaches saves nothing, and says so.
    std::string path = tmpPath("past_end.ckpt");
    std::string stats;
    testing::internal::CaptureStderr();
    harness::ExperimentResult r = runPoint(
        [&](harness::RunSpec &s) {
            s.checkpointOut = path;
            s.checkpointAfter = Cycle(1) << 40;
        },
        stats);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(r.run.verified);
    EXPECT_NE(err.find("no checkpoint written: the run ended before"
                       " cycle 1099511627776"),
              std::string::npos)
        << err;
    EXPECT_TRUE(readBytes(path).empty());
    EXPECT_EQ(stats, coldStats());
}

TEST(CkptRestore, ChangedEdgeIsNamedAsGraph)
{
    // Two machines alike but for one edge destination of the input
    // graph: the comparison names the graph section alone.
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    harness::Workload w = harness::makeWorkload("sssp", 0.1, 2);
    const graph::CsrGraph &g = w.graph;
    std::vector<std::uint64_t> rowPtr;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        rowPtr.push_back(g.edgeBegin(v));
    rowPtr.push_back(g.numEdges());
    std::vector<NodeId> dst;
    std::vector<std::uint32_t> weight;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        dst.push_back(g.edgeDst(e));
        weight.push_back(g.edgeWeight(e));
    }
    ASSERT_TRUE(g.weighted());
    dst[0] = (dst[0] + 1) % g.numNodes();
    graph::CsrGraph changed(rowPtr, dst, weight);

    auto sectionsWith = [&](graph::CsrGraph &graph) {
        runtime::Machine m(mc);
        graph.assignAddresses(m.alloc, w.nodeBytes);
        m.addCkptHook("graph",
                      [&](ckpt::Ckpt &ck) { graph.checkpoint(ck); });
        return sectionsOf(m);
    };
    EXPECT_EQ(differingSections(sectionsWith(w.graph),
                                sectionsWith(changed)),
              std::vector<std::string>{"graph"});
}

TEST(CkptMachine, HostProfileLeavesMidRunCheckpointDeterministic)
{
    // Host nanoseconds differ between any two runs; with interval
    // sampling on they must stay out of the samples a mid-run
    // checkpoint carries, as they stay out of its stats groups.
    auto saveOnce = [](const std::string &name) {
        harness::Workload w = harness::makeWorkload("sssp", 0.05, 1);
        harness::RunSpec spec;
        spec.config = harness::Config::MinnowPf;
        spec.threads = 4;
        spec.machine.numCores = 4;
        spec.machine.hostProfile = true;
        spec.machine.statsSampleInterval = 200;
        spec.checkpointOut = tmpPath(name);
        spec.checkpointAfter = 3000;
        std::string stats;
        spec.statsHook = [&stats](const StatsRegistry &s) {
            stats = s.toJson();
        };
        harness::ExperimentResult r = harness::runExperiment(w, spec);
        EXPECT_TRUE(r.run.verified);
        EXPECT_NE(stats.find("\"hostprof\""), std::string::npos);
        std::vector<std::uint8_t> bytes = readBytes(spec.checkpointOut);
        std::remove(spec.checkpointOut.c_str());
        return bytes;
    };
    std::vector<std::uint8_t> a = saveOnce("hostprof_a.ckpt");
    std::vector<std::uint8_t> b = saveOnce("hostprof_b.ckpt");
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "checkpoints differ";
}

TEST(CkptMachine, MidRunCheckpointWithSamplesAndAttributionIsDeterministic)
{
    // Two runs built alike save the same bytes at the same mid-run
    // anchor with interval sampling on (the "stats" section carries
    // the samples, read back from the host spool) and attribution on
    // (its own section), and end alike.
    auto spec = [](const std::string &name) {
        harness::RunSpec s;
        s.config = harness::Config::MinnowPf;
        s.threads = 4;
        s.machine.numCores = 4;
        s.machine.attribution = true;
        s.machine.statsSampleInterval = 500;
        s.checkpointOut = tmpPath(name);
        s.checkpointAfter = 3000;
        return s;
    };
    auto run = [](harness::RunSpec s, std::string *stats) {
        harness::Workload w = harness::makeWorkload("sssp", 0.05, 1);
        s.statsHook = [stats](const StatsRegistry &r) {
            *stats = r.toJson();
        };
        harness::ExperimentResult r = harness::runExperiment(w, s);
        EXPECT_TRUE(r.run.verified);
        return r;
    };
    std::string statsA, statsB;
    harness::RunSpec a = spec("samples_attr_a.ckpt");
    harness::RunSpec b = spec("samples_attr_b.ckpt");
    run(a, &statsA);
    run(b, &statsB);
    std::vector<std::uint8_t> bytesA = readBytes(a.checkpointOut);
    ASSERT_FALSE(bytesA.empty());
    EXPECT_TRUE(bytesA == readBytes(b.checkpointOut))
        << "checkpoints differ";
    EXPECT_EQ(statsA, statsB);
    EXPECT_NE(statsA.find("\"intervals\":[{"), std::string::npos);
    EXPECT_NE(statsA.find("\"attribution\""), std::string::npos);
    std::remove(a.checkpointOut.c_str());
    std::remove(b.checkpointOut.c_str());
}
