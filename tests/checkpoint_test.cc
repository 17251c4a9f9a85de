/**
 * @file
 * Checkpoint container + visitor tests: format roundtrip, the
 * corruption matrix (truncation, bit flips, version bumps — every
 * one rejected with a specific diagnostic, never a crash or a
 * silent misload), a seeded corruption fuzz loop, and machine-level
 * save/validate/restore including config-fingerprint rejection.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/ckpt.hh"
#include "base/rng.hh"
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

/** Recompute the trailing file CRC after an intentional edit. */
void
refreshFileCrc(std::vector<std::uint8_t> &buf)
{
    std::uint32_t c =
        ckpt::crc32(buf.data(), buf.size() - 4);
    for (int i = 0; i < 4; ++i)
        buf[buf.size() - 4 + std::size_t(i)] =
            std::uint8_t(c >> (8 * i));
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
 * Its stats document lands in @p stats, if given.
 */
harness::ExperimentResult
runPoint(const std::function<void(harness::RunSpec &)> &ckpt = {},
         const std::string &workload = "sssp",
         std::string *stats = nullptr)
{
    harness::Workload w = harness::makeWorkload(workload, 0.1, 2);
    harness::RunSpec spec;
    spec.config = harness::Config::MinnowPf;
    spec.threads = 2;
    spec.machine.numCores = 2;
    if (stats) {
        spec.statsHook = [stats](const StatsRegistry &s) {
            *stats = s.toJson();
        };
    }
    if (ckpt)
        ckpt(spec);
    return harness::runExperiment(w, spec);
}

/** The stats of runPoint() of @p workload without checkpoint flags. */
std::string
coldStatsOf(const std::string &workload)
{
    std::string stats;
    runPoint({}, workload, &stats);
    return stats;
}

/** The stats of runPoint() without checkpoint flags. */
const std::string &
coldStats()
{
    static const std::string stats = coldStatsOf("sssp");
    return stats;
}

/** Save runPoint()'s anchor-0 checkpoint to @p path. */
void
saveAnchorZero(const std::string &path)
{
    std::string stats;
    runPoint([&](harness::RunSpec &s) { s.checkpointOut = path; },
             "sssp", &stats);
    EXPECT_EQ(stats, coldStats()) << "saving perturbed the run";
}

} // anonymous namespace

TEST(CkptContainer, EncodeDecodeRoundtrip)
{
    std::vector<std::uint8_t> buf = sampleImage();
    ckpt::Reader r;
    ASSERT_EQ(r.decode(buf), "");
    ASSERT_EQ(r.sections().size(), 2u);
    const ckpt::Section *a = r.find("alpha");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
    EXPECT_NE(r.find("beta"), nullptr);
    EXPECT_EQ(r.find("gamma"), nullptr);
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
    ckpt::Reader r;
    ASSERT_EQ(r.openFile(path), "");
    ASSERT_NE(r.find("only"), nullptr);
    EXPECT_EQ(r.find("only")->bytes[0], 42);
    std::remove(path.c_str());
}

TEST(CkptContainer, MissingFileIsDiagnosed)
{
    ckpt::Reader r;
    std::string err = r.openFile(tmpPath("does_not_exist.ckpt"));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(CkptContainer, TruncationIsDiagnosed)
{
    std::vector<std::uint8_t> buf = sampleImage();
    // Every proper prefix must be rejected with a diagnostic.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        std::vector<std::uint8_t> cut(buf.begin(),
                                      buf.begin() + long(n));
        ckpt::Reader r;
        std::string err = r.decode(cut);
        ASSERT_FALSE(err.empty()) << "prefix of " << n << " bytes";
        EXPECT_EQ(r.sections().size(), 0u);
        // Short prefixes name the truncation; anything past the
        // magic fails the whole-file CRC.
        bool specific =
            err.find("truncated") != std::string::npos ||
            err.find("CRC mismatch") != std::string::npos ||
            err.find("bad magic") != std::string::npos;
        EXPECT_TRUE(specific) << err;
    }
}

TEST(CkptContainer, BitFlipAnywhereIsDiagnosed)
{
    std::vector<std::uint8_t> buf = sampleImage();
    for (std::size_t i = 0; i < buf.size(); ++i) {
        std::vector<std::uint8_t> bad = buf;
        bad[i] ^= 0x10;
        ckpt::Reader r;
        std::string err = r.decode(bad);
        ASSERT_FALSE(err.empty()) << "flip at byte " << i;
        EXPECT_EQ(r.sections().size(), 0u);
    }
}

TEST(CkptContainer, PayloadFlipNamesTheSection)
{
    std::vector<std::uint8_t> buf = sampleImage();
    // Flip one payload byte of section "alpha" and refresh the file
    // CRC so the per-section CRC does the catching (and names the
    // component whose payload changed).
    std::size_t payloadOff =
        ckpt::kMagicLen + 4 /*count*/ + 4 /*nameLen*/ + 5 /*name*/ +
        8 /*payLen*/;
    std::vector<std::uint8_t> bad = buf;
    bad[payloadOff] ^= 0xFF;
    refreshFileCrc(bad);
    ckpt::Reader r;
    std::string err = r.decode(bad);
    EXPECT_NE(err.find("section 'alpha' CRC mismatch"),
              std::string::npos)
        << err;
}

TEST(CkptContainer, VersionBumpIsDiagnosed)
{
    std::vector<std::uint8_t> buf = sampleImage();
    // "minnow-ckpt-4\n" -> "minnow-ckpt-5\n": a future format must
    // be named as a version problem, not a CRC failure.
    ASSERT_EQ(buf[ckpt::kMagicLen - 2], '4');
    buf[ckpt::kMagicLen - 2] = '5';
    refreshFileCrc(buf);
    ckpt::Reader r;
    std::string err = r.decode(buf);
    EXPECT_NE(err.find("bad magic/version"), std::string::npos)
        << err;
    EXPECT_NE(err.find("minnow-ckpt-5"), std::string::npos) << err;
}

TEST(CkptContainer, SectionLengthOverrunIsBoundsChecked)
{
    std::vector<std::uint8_t> buf = sampleImage();
    // Blow up section alpha's 8-byte payload length field, refresh
    // the file CRC: the bounds check must catch it (a reader that
    // trusted the length would read far out of bounds).
    std::size_t lenOff = ckpt::kMagicLen + 4 + 4 + 5;
    buf[lenOff + 3] = 0x7F;
    refreshFileCrc(buf);
    ckpt::Reader r;
    std::string err = r.decode(buf);
    EXPECT_NE(err.find("overruns the file"), std::string::npos)
        << err;
}

TEST(CkptContainer, FuzzedCorruptionsAlwaysDetected)
{
    std::vector<std::uint8_t> buf = sampleImage();
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 64; ++trial) {
        std::vector<std::uint8_t> bad = buf;
        switch (rng.below(3)) {
          case 0: { // flip 1-4 random bytes
            int flips = 1 + int(rng.below(4));
            for (int f = 0; f < flips; ++f) {
                std::size_t i = rng.below(bad.size());
                std::uint8_t bit =
                    std::uint8_t(1u << rng.below(8));
                bad[i] ^= bit;
            }
            break;
          }
          case 1: // truncate to a random prefix
            bad.resize(rng.below(bad.size()));
            break;
          default: { // append random garbage
            int extra = 1 + int(rng.below(16));
            for (int e = 0; e < extra; ++e)
                bad.push_back(std::uint8_t(rng.below(256)));
            break;
          }
        }
        if (bad == buf)
            continue; // a flip can undo a flip
        ckpt::Reader r;
        std::string err = r.decode(bad);
        EXPECT_FALSE(err.empty())
            << "trial " << trial << " (size " << bad.size()
            << ") was silently accepted";
        EXPECT_EQ(r.sections().size(), 0u);
    }
}

TEST(CkptVisitor, ScalarStringVectorRoundtrip)
{
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&buf);
        std::uint64_t a = 0x1122334455667788ull;
        double d = 2.5;
        bool b = true;
        std::string s = "hello";
        std::vector<std::uint32_t> v = {1, 2, 3};
        ck.io(a);
        ck.io(d);
        ck.io(b);
        ck.io(s);
        ck.io(v);
        ASSERT_TRUE(ck.ok());
    }
    ckpt::Ckpt ck = ckpt::Ckpt::loader(buf.data(), buf.size());
    std::uint64_t a = 0;
    double d = 0;
    bool b = false;
    std::string s;
    std::vector<std::uint32_t> v;
    ck.io(a);
    ck.io(d);
    ck.io(b);
    ck.io(s);
    ck.io(v);
    ASSERT_TRUE(ck.ok()) << ck.error();
    EXPECT_EQ(a, 0x1122334455667788ull);
    EXPECT_EQ(d, 2.5);
    EXPECT_TRUE(b);
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(CkptVisitor, UnderrunLatchesErrorAndZeroFills)
{
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&buf);
        std::uint32_t a = 7;
        ck.io(a);
    }
    ckpt::Ckpt ck = ckpt::Ckpt::loader(buf.data(), buf.size());
    std::uint32_t a = 0;
    std::uint64_t b = 99;
    ck.io(a);
    ck.io(b); // 8 bytes from a 4-byte payload: underrun.
    EXPECT_EQ(a, 7u);
    EXPECT_EQ(b, 0u) << "underrun reads must zero-fill";
    EXPECT_FALSE(ck.ok());
    EXPECT_NE(ck.error().find("underrun"), std::string::npos);
    // Later reads stay zero-filled, first error is kept.
    std::uint32_t c = 5;
    ck.io(c);
    EXPECT_EQ(c, 0u);
}

TEST(CkptVisitor, OversizedVectorLengthIsRejected)
{
    std::vector<std::uint8_t> buf;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&buf);
        std::uint64_t bogus = ~std::uint64_t(0) / 2;
        ck.io(bogus);
    }
    ckpt::Ckpt ck = ckpt::Ckpt::loader(buf.data(), buf.size());
    std::vector<std::uint64_t> v;
    ck.io(v);
    EXPECT_FALSE(ck.ok());
    EXPECT_TRUE(v.empty());
    EXPECT_NE(ck.error().find("overruns payload"),
              std::string::npos);
}

TEST(CkptMachine, SaveValidateRestoreRoundtrip)
{
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    runtime::Machine m(mc);
    std::string path = tmpPath("machine.ckpt");
    ASSERT_EQ(m.save(path), "");

    // Untouched machine: the witness must match byte-for-byte.
    ckpt::Reader r;
    ASSERT_EQ(m.restore(path, r), "");
    EXPECT_TRUE(m.validateAgainst(r).empty());

    // Perturb the allocator; the witness must name the section.
    m.alloc.alloc("ckpt-test", 64);
    std::vector<std::string> bad = m.validateAgainst(r);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], "alloc");
    std::remove(path.c_str());
}

TEST(CkptMachine, DifferentConfigIsRejected)
{
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    mc.minnow.enabled = true;
    runtime::Machine m(mc);
    std::string path = tmpPath("machine_cfg.ckpt");
    ASSERT_EQ(m.save(path), "");

    // Each change is model-visible, so each must fail the config
    // check — including the knobs the Table 3 describe() omits.
    std::vector<std::pair<const char *,
                          std::function<void(MachineConfig &)>>>
        changes = {
            {"cores", [](MachineConfig &c) { c.numCores = 4; }},
            {"dequeue-batch",
             [](MachineConfig &c) { c.minnow.dequeueBatch = 4; }},
            {"spec-slot",
             [](MachineConfig &c) { c.minnow.specSlot = true; }},
            {"cores-per-engine",
             [](MachineConfig &c) { c.minnow.coresPerEngine = 2; }},
            {"work-sharing",
             [](MachineConfig &c) { c.minnow.workSharing = false; }},
            {"prefetcher",
             [](MachineConfig &c) {
                 c.prefetcher = PrefetcherKind::Stride;
             }},
        };
    for (const auto &[name, change] : changes) {
        MachineConfig other = mc;
        change(other);
        runtime::Machine m2(other);
        ckpt::Reader r;
        std::string err = m2.restore(path, r);
        EXPECT_NE(err.find("different machine configuration"),
                  std::string::npos)
            << name << ": " << err;
    }
    std::remove(path.c_str());
}

TEST(CkptMachine, VersionOneFileIsRejectedAndColdStarts)
{
    // Version 1 laid out cache frames, the directory and the core
    // frontend differently, version 2 still carried the engine's
    // push/credit coalescing state and a narrower config fingerprint,
    // and version 3's meta section a checkpoint-kind byte; such files
    // must be refused by name.
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    runtime::Machine m(mc);
    ckpt::Writer w;
    m.checkpointSections(w);
    for (char version : {'1', '2', '3'}) {
        std::vector<std::uint8_t> buf = w.encode();
        buf[ckpt::kMagicLen - 2] = std::uint8_t(version);
        refreshFileCrc(buf);
        std::string path = tmpPath("old_version.ckpt");
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f),
                  buf.size());
        std::fclose(f);

        ckpt::Reader r;
        std::string err = m.restore(path, r);
        std::string want = "bad magic/version 'minnow-ckpt-";
        EXPECT_NE(err.find(want + version), std::string::npos) << err;
        EXPECT_NE(err.find("want 'minnow-ckpt-4'"), std::string::npos)
            << err;

        // The harness warns and runs cold.
        std::string stats;
        harness::ExperimentResult res = runPoint(
            [&](harness::RunSpec &s) { s.checkpointIn = path; }, "sssp",
            &stats);
        EXPECT_FALSE(res.restored);
        EXPECT_EQ(stats, coldStats());
        std::remove(path.c_str());
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

TEST(CkptMeta, RoundtripAndWorkloadMismatchDegrades)
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
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&buf);
        meta.checkpoint(ck);
    }
    harness::CkptMeta got;
    ckpt::Ckpt ck = ckpt::Ckpt::loader(buf.data(), buf.size());
    got.checkpoint(ck);
    ASSERT_TRUE(ck.ok());
    EXPECT_EQ(got.cycle, 12345u);
    EXPECT_EQ(got.executed, 67890u);
    EXPECT_EQ(got.workload, "sssp");
    EXPECT_EQ(got.config, "minnow-pf");

    // An sssp checkpoint offered to a bfs run on the same machine
    // must warn and cold-start (never replay to a foreign anchor).
    std::string path = tmpPath("mismatch.ckpt");
    saveAnchorZero(path);
    std::string stats;
    harness::ExperimentResult res = runPoint(
        [&](harness::RunSpec &s) { s.checkpointIn = path; }, "bfs",
        &stats);
    EXPECT_FALSE(res.restored);
    EXPECT_TRUE(res.run.verified);
    EXPECT_EQ(stats, coldStatsOf("bfs"));
    std::remove(path.c_str());
}

TEST(CkptRestore, AnchorZeroIsWitnessCleanAndMatchesCold)
{
    // The default anchor {cycle 0, executed 0} fires before the first
    // event: a restore replays to it, the witness finds every
    // section identical, and the run ends with the cold run's stats.
    std::string path = tmpPath("anchor0.ckpt");
    saveAnchorZero(path);
    std::string stats;
    testing::internal::CaptureStderr();
    harness::ExperimentResult res = runPoint(
        [&](harness::RunSpec &s) { s.checkpointIn = path; }, "sssp",
        &stats);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(res.restored);
    EXPECT_EQ(err, "");
    EXPECT_TRUE(res.run.verified);
    EXPECT_EQ(stats, coldStats());
    std::remove(path.c_str());
}

TEST(CkptRestore, ChangedEdgeIsNamedAsGraph)
{
    // A graph section re-sealed with valid CRCs but one changed edge
    // passes the container checks; the witness must still name it.
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    runtime::Machine m(mc);
    harness::Workload w = harness::makeWorkload("sssp", 0.1, 2);
    w.graph.assignAddresses(m.alloc, w.nodeBytes);
    m.addCkptHook("graph",
                  [&](ckpt::Ckpt &ck) { w.graph.checkpoint(ck); });
    std::string path = tmpPath("graph_edge.ckpt");
    ASSERT_EQ(m.save(path), "");

    ckpt::Reader saved;
    ASSERT_EQ(saved.openFile(path), "");
    ckpt::Writer resealed;
    for (const ckpt::Section &sec : saved.sections()) {
        std::vector<std::uint8_t> bytes = sec.bytes;
        if (sec.name == "graph") {
            // Payload: rowPtr (u64 count + u64s), then dst (u64
            // count + u32s); bump the destination of edge 0.
            std::size_t dst0 =
                8 + 8 * (std::size_t(w.graph.numNodes()) + 1) + 8;
            ASSERT_LT(dst0 + 4, bytes.size());
            bytes[dst0] ^= 0x01;
        }
        resealed.add(sec.name, std::move(bytes));
    }
    ASSERT_EQ(resealed.writeFile(path), "");

    ckpt::Reader r;
    ASSERT_EQ(m.restore(path, r), "");
    EXPECT_EQ(m.validateAgainst(r), std::vector<std::string>{"graph"});
    m.removeCkptHook("graph");
    std::remove(path.c_str());
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
