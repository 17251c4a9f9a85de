/**
 * @file
 * Checkpoint container + visitor tests: format roundtrip, the
 * corruption matrix (truncation, bit flips, version bumps — every
 * one rejected with a specific diagnostic, never a crash or a
 * silent misload), a seeded corruption fuzz loop, and machine-level
 * save/validate/restore including config-fingerprint rejection.
 */

#include <cstdio>
#include <string>
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
    // "minnow-ckpt-2\n" -> "minnow-ckpt-3\n": a future format must
    // be named as a version problem, not a CRC failure.
    ASSERT_EQ(buf[ckpt::kMagicLen - 2], '2');
    buf[ckpt::kMagicLen - 2] = '3';
    refreshFileCrc(buf);
    ckpt::Reader r;
    std::string err = r.decode(buf);
    EXPECT_NE(err.find("bad magic/version"), std::string::npos)
        << err;
    EXPECT_NE(err.find("minnow-ckpt-3"), std::string::npos) << err;
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
    runtime::Machine m(mc);
    std::string path = tmpPath("machine_cfg.ckpt");
    ASSERT_EQ(m.save(path), "");

    MachineConfig other = mc;
    other.numCores = 4;
    runtime::Machine m2(other);
    ckpt::Reader r;
    std::string err = m2.restore(path, r);
    EXPECT_NE(err.find("different machine configuration"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(CkptMachine, VersionOneFileIsRejectedAndColdStarts)
{
    // Version 1 laid out cache frames, the directory and the core
    // frontend differently; such a file must be refused by name.
    MachineConfig mc = scaledMachine();
    mc.numCores = 2;
    runtime::Machine m(mc);
    ckpt::Writer w;
    m.checkpointSections(w);
    std::vector<std::uint8_t> buf = w.encode();
    buf[ckpt::kMagicLen - 2] = '1';
    refreshFileCrc(buf);
    std::string path = tmpPath("version1.ckpt");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);

    ckpt::Reader r;
    std::string err = m.restore(path, r);
    EXPECT_NE(err.find("bad magic/version 'minnow-ckpt-1"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("want 'minnow-ckpt-2'"), std::string::npos)
        << err;

    // The harness warns and builds the workload cold.
    harness::Workload wl =
        harness::makeWorkloadWarm("sssp", 0.1, 2, path);
    EXPECT_FALSE(wl.warmLoaded);
    ASSERT_NE(wl.app, nullptr);
    std::remove(path.c_str());
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
    meta.kind = 1;
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
    EXPECT_EQ(got.kind, 1);
    EXPECT_EQ(got.cycle, 12345u);
    EXPECT_EQ(got.executed, 67890u);
    EXPECT_EQ(got.workload, "sssp");
    EXPECT_EQ(got.config, "minnow-pf");

    // A checkpoint naming a different workload must warn and
    // cold-start (never load mismatched material).
    ckpt::Writer w;
    {
        std::vector<std::uint8_t> mb;
        ckpt::Ckpt sv = ckpt::Ckpt::saver(&mb);
        meta.checkpoint(sv);
        w.add("meta", std::move(mb));
    }
    std::string path = tmpPath("mismatch.ckpt");
    ASSERT_EQ(w.writeFile(path), "");
    harness::Workload wl =
        harness::makeWorkloadWarm("bfs", 0.25, 3, path);
    EXPECT_FALSE(wl.warmLoaded);
    EXPECT_EQ(wl.name, "bfs");
    ASSERT_NE(wl.app, nullptr);
    std::remove(path.c_str());
}

TEST(CkptWorkload, WarmLoadMatchesColdGeneration)
{
    // Save a warm checkpoint through the harness, then rebuild the
    // workload from it: the loaded graph must be byte-identical to
    // a cold generation (the material half of the warm-start
    // contract; the A/B equivalence script covers the full run).
    harness::Workload cold = harness::makeWorkload("sssp", 0.1, 2);
    harness::RunSpec spec;
    spec.config = harness::Config::Minnow;
    spec.threads = 2;
    spec.machine.numCores = 2;
    spec.checkpointOut = tmpPath("warm.ckpt");
    harness::runExperiment(cold, spec);

    harness::Workload warm = harness::makeWorkloadWarm(
        "sssp", 0.1, 2, spec.checkpointOut);
    EXPECT_TRUE(warm.warmLoaded);
    std::vector<std::uint8_t> a, b;
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&a);
        cold.graph.checkpoint(ck);
    }
    {
        ckpt::Ckpt ck = ckpt::Ckpt::saver(&b);
        warm.graph.checkpoint(ck);
    }
    EXPECT_EQ(a, b);
    std::remove(spec.checkpointOut.c_str());
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
        spec.checkpointAfter = "3000";
        harness::ExperimentResult r = harness::runExperiment(w, spec);
        EXPECT_TRUE(r.run.verified);
        EXPECT_NE(r.run.statsJson.find("\"hostprof\""),
                  std::string::npos);
        std::vector<std::uint8_t> bytes = readBytes(spec.checkpointOut);
        std::remove(spec.checkpointOut.c_str());
        return bytes;
    };
    std::vector<std::uint8_t> a = saveOnce("hostprof_a.ckpt");
    std::vector<std::uint8_t> b = saveOnce("hostprof_b.ckpt");
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "checkpoints differ";
}
