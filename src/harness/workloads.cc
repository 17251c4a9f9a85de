#include "harness/workloads.hh"

#include <cmath>
#include <cstdlib>

#include "apps/bc.hh"
#include "apps/cc.hh"
#include "apps/kcore.hh"
#include "apps/mis.hh"
#include "apps/pr.hh"
#include "apps/sssp.hh"
#include "apps/tc.hh"
#include "base/logging.hh"
#include "graph/generators.hh"
#include "runtime/machine.hh"
#include "sim/checkpoint.hh"
#include "worklist/chunked.hh"
#include "worklist/obim.hh"
#include "worklist/strict_priority.hh"

namespace minnow::harness
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sssp", "bfs", "g500", "cc", "pr", "tc", "bc"};
    return names;
}

namespace
{

NodeId
scaled(double base, double scale)
{
    double v = base * scale;
    return NodeId(std::max(64.0, v));
}

/**
 * Shared builder: when @p preload is non-null the (expensive) graph
 * generation is skipped and the preloaded arrays are adopted — the
 * warm-start path. Everything else (app construction, tuning) is
 * identical, so warm and cold workloads behave the same.
 */
Workload
makeWorkloadImpl(const std::string &name, double scale,
                 std::uint64_t seed, graph::CsrGraph *preload)
{
    Workload w;
    w.name = name;
    w.scale = scale;
    w.seed = seed;
    if (preload) {
        w.graph = std::move(*preload);
        w.warmLoaded = true;
    }
    if (name == "sssp") {
        // USA-road-d.W class: high-diameter weighted grid.
        std::uint32_t side =
            std::uint32_t(std::sqrt(double(scaled(22500, scale))));
        w.inputDesc = "grid " + std::to_string(side) + "x" +
                      std::to_string(side) + " w<=100";
        if (!preload)
            w.graph = graph::gridGraph(side, side, 100, seed);
        w.lgDelta = 4; // delta ~16 for weights ~1..100.
        w.app = std::make_unique<apps::SsspApp>(
            &w.graph, 0, false, 1u << 30, "sssp");
    } else if (name == "bfs") {
        // r4-2e23 class: random avg-degree-4 "mesh".
        NodeId n = scaled(30000, scale);
        w.inputDesc = "random n=" + std::to_string(n) + " d=4";
        if (!preload)
            w.graph = graph::randomGraph(n, 4.0, seed);
        w.lgDelta = 0; // hop-count buckets.
        w.app = std::make_unique<apps::SsspApp>(
            &w.graph, 0, true, 1u << 30, "bfs");
    } else if (name == "g500") {
        // rmat16-2e22 class: Kronecker, hub-dominated.
        std::uint32_t sc = 14;
        if (scale >= 2.0)
            sc += std::uint32_t(std::log2(scale));
        w.inputDesc = "rmat scale=" + std::to_string(sc) + " ef=8";
        if (!preload)
            w.graph = graph::rmatGraph(sc, 8, seed);
        w.lgDelta = 0;
        // Task splitting: the hub holds a large share of all edges.
        w.app = std::make_unique<apps::SsspApp>(
            &w.graph, 0, true, 512, "g500");
    } else if (name == "cc") {
        // wikipedia class: skewed symmetric digraph.
        NodeId n = scaled(30000, scale);
        w.inputDesc = "powerlaw-sym n=" + std::to_string(n) +
                      " d=6";
        if (!preload)
            w.graph = graph::powerLawGraph(n, 6.0, 0.9, seed, true);
        w.lgDelta = 6; // component-id buckets.
        // Task splitting (Section 6.2.1), threshold scaled from the
        // paper's 10K edges to our input sizes.
        w.app = std::make_unique<apps::CcApp>(&w.graph, 256);
    } else if (name == "pr") {
        // wiki-Talk class: directed power-law.
        NodeId n = scaled(15000, scale);
        w.inputDesc = "powerlaw n=" + std::to_string(n) + " d=8";
        if (!preload)
            w.graph = graph::powerLawGraph(n, 8.0, 0.9, seed);
        w.lgDelta = 4; // residual-derived priorities.
        w.app = std::make_unique<apps::PrApp>(&w.graph, 0.85, 1e-4,
                                              1u << 30);
    } else if (name == "tc") {
        // com-dblp class: clustered, triangle-rich, fits in LLC.
        NodeId n = scaled(3000, scale);
        w.inputDesc = "watts-strogatz n=" + std::to_string(n) +
                      " k=10";
        if (!preload)
            w.graph = graph::wattsStrogatz(n, 10, 0.05, seed);
        w.nodeBytes = 64; // paper: TC uses 64 B nodes.
        w.usesPriority = false;
        w.app = std::make_unique<apps::TcApp>(&w.graph, 1u << 30);
    } else if (name == "bc") {
        // amazon-ratings class: bipartite, skewed.
        NodeId left = scaled(12000, scale);
        NodeId right = scaled(8000, scale);
        w.inputDesc = "bipartite " + std::to_string(left) + "+" +
                      std::to_string(right) + " d=4";
        if (!preload) {
            w.graph =
                graph::bipartiteGraph(left, right, 4.0, 0.8, seed);
        }
        w.usesPriority = false;
        w.app = std::make_unique<apps::BcApp>(&w.graph, 256);
    } else if (name == "mis") {
        // Extension workload (paper conclusion: "other classes of
        // irregular workloads"): greedy maximal independent set.
        NodeId n = scaled(25000, scale);
        w.inputDesc = "powerlaw-sym n=" + std::to_string(n) +
                      " d=6";
        if (!preload)
            w.graph = graph::powerLawGraph(n, 6.0, 0.9, seed, true);
        w.lgDelta = 6; // ascending node-id order helps releases.
        w.usesPriority = true;
        w.app = std::make_unique<apps::MisApp>(&w.graph, 256);
    } else if (name == "kcore") {
        // Extension workload: k-core peeling (k = 5) on a skewed
        // graph whose degree spread drives long peeling cascades.
        NodeId n = scaled(25000, scale);
        w.inputDesc = "powerlaw-sym n=" + std::to_string(n) +
                      " d=6, k=5";
        if (!preload)
            w.graph = graph::powerLawGraph(n, 6.0, 0.9, seed, true);
        w.usesPriority = false;
        w.app = std::make_unique<apps::KcoreApp>(&w.graph, 5, 256);
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return w;
}

} // anonymous namespace

Workload
makeWorkload(const std::string &name, double scale,
             std::uint64_t seed)
{
    return makeWorkloadImpl(name, scale, seed, nullptr);
}

Workload
makeWorkloadWarm(const std::string &name, double scale,
                 std::uint64_t seed, const std::string &ckptPath)
{
    // Every failure below warns and falls back to cold generation:
    // a stale or damaged checkpoint may cost time, never
    // correctness ("warn, never wrong").
    ckpt::Reader r;
    std::string err = r.openFile(ckptPath);
    if (!err.empty()) {
        warn("warm start from %s failed (%s); generating cold",
             ckptPath.c_str(), err.c_str());
        return makeWorkloadImpl(name, scale, seed, nullptr);
    }
    const ckpt::Section *ms = r.find("meta");
    if (!ms) {
        warn("checkpoint %s has no meta section; generating cold",
             ckptPath.c_str());
        return makeWorkloadImpl(name, scale, seed, nullptr);
    }
    CkptMeta meta;
    {
        ckpt::Ckpt ck =
            ckpt::Ckpt::loader(ms->bytes.data(), ms->bytes.size());
        meta.checkpoint(ck);
        if (!ck.ok()) {
            warn("checkpoint %s meta section is malformed (%s);"
                 " generating cold",
                 ckptPath.c_str(), ck.error().c_str());
            return makeWorkloadImpl(name, scale, seed, nullptr);
        }
    }
    if (meta.workload != name || meta.scale != scale ||
        meta.seed != seed) {
        warn("checkpoint %s is for %s scale=%g seed=%llu, not %s"
             " scale=%g seed=%llu; generating cold",
             ckptPath.c_str(), meta.workload.c_str(), meta.scale,
             (unsigned long long)meta.seed, name.c_str(), scale,
             (unsigned long long)seed);
        return makeWorkloadImpl(name, scale, seed, nullptr);
    }
    const ckpt::Section *gs = r.find("graph");
    if (!gs) {
        warn("checkpoint %s has no graph section; generating cold",
             ckptPath.c_str());
        return makeWorkloadImpl(name, scale, seed, nullptr);
    }
    graph::CsrGraph g;
    {
        ckpt::Ckpt ck =
            ckpt::Ckpt::loader(gs->bytes.data(), gs->bytes.size());
        g.checkpoint(ck);
        if (!ck.ok()) {
            warn("checkpoint %s graph section is malformed (%s);"
                 " generating cold",
                 ckptPath.c_str(), ck.error().c_str());
            return makeWorkloadImpl(name, scale, seed, nullptr);
        }
    }
    return makeWorkloadImpl(name, scale, seed, &g);
}

Config
parseConfig(const std::string &name)
{
    if (name == "serial")
        return Config::SerialRelaxed;
    if (name == "obim")
        return Config::Obim;
    if (name == "obim-stride")
        return Config::ObimStride;
    if (name == "obim-imp")
        return Config::ObimImp;
    if (name == "fifo")
        return Config::Fifo;
    if (name == "lifo")
        return Config::Lifo;
    if (name == "strict")
        return Config::Strict;
    if (name == "minnow")
        return Config::Minnow;
    if (name == "minnow-pf")
        return Config::MinnowPf;
    if (name == "bsp")
        return Config::Bsp;
    if (name == "bsp-bucket")
        return Config::BspBucketed;
    fatal("unknown config '%s'", name.c_str());
    return Config::Obim;
}

std::string
configName(Config c)
{
    switch (c) {
      case Config::SerialRelaxed: return "serial";
      case Config::Obim: return "obim";
      case Config::ObimStride: return "obim-stride";
      case Config::ObimImp: return "obim-imp";
      case Config::Fifo: return "fifo";
      case Config::Lifo: return "lifo";
      case Config::Strict: return "strict";
      case Config::Minnow: return "minnow";
      case Config::MinnowPf: return "minnow-pf";
      case Config::Bsp: return "bsp";
      case Config::BspBucketed: return "bsp-bucket";
    }
    return "?";
}

ExperimentResult
runExperiment(Workload &w, const RunSpec &spec)
{
    ExperimentResult out;
    MachineConfig mc = spec.machine;
    mc.numCores = std::max(mc.numCores, spec.threads);
    mc.minnow.enabled = spec.config == Config::Minnow ||
                        spec.config == Config::MinnowPf;
    mc.minnow.prefetchEnabled = spec.config == Config::MinnowPf;
    if (spec.config == Config::ObimStride)
        mc.prefetcher = PrefetcherKind::Stride;
    else if (spec.config == Config::ObimImp)
        mc.prefetcher = PrefetcherKind::Imp;

    runtime::Machine machine(mc);
    if (spec.interruptFlag)
        machine.eq.setInterruptSource(spec.interruptFlag);
    w.graph.assignAddresses(machine.alloc, w.nodeBytes);
    if (mc.prefetcher == PrefetcherKind::Imp)
        machine.memory.setValueOracle(w.graph.makeEdgeOracle());
    w.app->reset();

    galois::RunConfig rc;
    rc.threads = spec.threads;
    rc.verify = spec.verify;
    rc.maxEvents = spec.maxEvents;

    // ---- checkpoint/restore wiring (DESIGN.md section 5i) ----
    // The harness owns the run-scoped sections the Machine cannot
    // see: the resume anchor ("meta", read live at serialize time),
    // the input graph (material on warm start) and the app state.
    // Registered unconditionally so save-run and restore-run emit
    // identical section sequences.
    std::uint8_t ckKind = 0; // 0 = warm boundary, 1 = rescue.
    machine.addCkptHook("meta", [&](ckpt::Ckpt &ck) {
        CkptMeta m;
        m.kind = ckKind;
        m.cycle = machine.eq.now();
        m.executed = machine.eq.executed();
        m.workload = w.name;
        m.scale = w.scale;
        m.seed = w.seed;
        m.config = configName(spec.config);
        m.threads = rc.threads;
        m.checkpoint(ck);
    });
    machine.addCkptHook("graph", [&](ckpt::Ckpt &ck) {
        w.graph.checkpoint(ck);
    });
    machine.addCkptHook(
        "app", [&](ckpt::Ckpt &ck) { w.app->checkpoint(ck); });

    bool isBsp = spec.config == Config::Bsp ||
                 spec.config == Config::BspBucketed;
    if (isBsp &&
        (!spec.checkpointOut.empty() || !spec.checkpointIn.empty()))
        warn("checkpointing is not supported for BSP configs;"
             " ignoring checkpoint flags");

    // Restore side: verify the file belongs to this exact machine
    // build and workload; any failure degrades to a plain cold run.
    ckpt::Reader reader;
    CkptMeta meta;
    bool restoring = false;
    if (!isBsp && !spec.checkpointIn.empty()) {
        std::string err = machine.restore(spec.checkpointIn, reader);
        if (!err.empty()) {
            warn("cannot restore %s (%s); cold-starting",
                 spec.checkpointIn.c_str(), err.c_str());
        } else if (const ckpt::Section *ms = reader.find("meta")) {
            ckpt::Ckpt ck = ckpt::Ckpt::loader(ms->bytes.data(),
                                               ms->bytes.size());
            meta.checkpoint(ck);
            std::uint32_t wantThreads =
                spec.config == Config::SerialRelaxed
                    ? 1
                    : spec.threads;
            if (!ck.ok()) {
                warn("checkpoint %s meta section is malformed (%s);"
                     " cold-starting",
                     spec.checkpointIn.c_str(), ck.error().c_str());
            } else if (meta.workload != w.name ||
                       meta.scale != w.scale ||
                       meta.seed != w.seed ||
                       meta.config != configName(spec.config) ||
                       meta.threads != wantThreads) {
                warn("checkpoint %s was taken for a different"
                     " experiment (%s/%s/%u threads);"
                     " cold-starting",
                     spec.checkpointIn.c_str(),
                     meta.workload.c_str(), meta.config.c_str(),
                     meta.threads);
            } else {
                restoring = true;
            }
        } else {
            warn("checkpoint %s has no meta section; cold-starting",
                 spec.checkpointIn.c_str());
        }
    }

    // Save side: "warmup" saves at the warm boundary; a cycle count
    // arms the one-shot stop trigger for a mid-run rescue anchor.
    bool saveOut = !isBsp && !spec.checkpointOut.empty();
    bool saveAtWarm = spec.checkpointAfter == "warmup";
    std::uint64_t saveCycle = 0;
    if (saveOut && !saveAtWarm) {
        char *end = nullptr;
        saveCycle =
            std::strtoull(spec.checkpointAfter.c_str(), &end, 10);
        fatal_if(end == spec.checkpointAfter.c_str() || *end != '\0',
                 "bad checkpoint-after '%s' (want 'warmup' or a"
                 " cycle count)",
                 spec.checkpointAfter.c_str());
    }
    // Rescue restore and timed rescue save both need the single
    // one-shot stop trigger; combining them is a driver error.
    fatal_if(restoring && meta.kind == 1 && saveOut && !saveAtWarm,
             "cannot combine checkpoint-after=<cycles> with"
             " restoring a rescue checkpoint");

    auto saveNow = [&](const char *what) {
        std::string err = machine.save(spec.checkpointOut);
        if (!err.empty())
            warn("failed to write %s checkpoint %s: %s", what,
                 spec.checkpointOut.c_str(), err.c_str());
    };
    auto witness = [&](const char *what) {
        std::vector<std::string> bad =
            machine.validateAgainst(reader);
        if (bad.empty())
            return;
        std::string names;
        for (const std::string &n : bad)
            names += (names.empty() ? "" : ", ") + n;
        warn("%s witness mismatch in section(s) %s; continuing with"
             " the replayed state",
             what, names.c_str());
    };

    rc.warmBoundaryHook = [&] {
        if (restoring && meta.kind == 0) {
            ckKind = 0;
            witness("warm-restore");
        }
        if (saveOut && saveAtWarm) {
            ckKind = 0;
            saveNow("warm");
        }
    };
    if (restoring && meta.kind == 1) {
        // Replay deterministically to the saved anchor, then prove
        // the replayed state matches the checkpoint byte-for-byte.
        rc.stopAt = true;
        rc.stopAtCycle = meta.cycle;
        rc.stopAtExec = meta.executed;
        rc.midRunHook = [&] {
            ckKind = 1;
            witness("rescue-restore");
        };
    } else if (saveOut && !saveAtWarm) {
        rc.stopAt = true;
        rc.stopAtCycle = saveCycle;
        rc.stopAtExec = 0;
        rc.midRunHook = [&] {
            ckKind = 1;
            saveNow("rescue");
        };
    }
    if (saveOut) {
        // SIGINT/SIGTERM: the executor calls this while run-scoped
        // state is still live, so the rescue file is complete.
        rc.interruptHook = [&] {
            ckKind = 1;
            saveNow("interrupt rescue");
        };
    }

    switch (spec.config) {
      case Config::SerialRelaxed: {
        rc.threads = 1;
        rc.serialRelaxed = true;
        worklist::ObimWorklist wl(&machine, w.lgDelta, 16, 1);
        out.run = galois::runParallel(machine, *w.app, wl, rc);
        break;
      }
      case Config::Obim:
      case Config::ObimStride:
      case Config::ObimImp: {
        worklist::ObimWorklist wl(&machine, w.lgDelta, 16, 8);
        out.run = galois::runParallel(machine, *w.app, wl, rc);
        break;
      }
      case Config::Fifo: {
        worklist::ChunkedWorklist wl(
            &machine, worklist::ChunkedWorklist::Policy::Fifo, 32,
            8);
        out.run = galois::runParallel(machine, *w.app, wl, rc);
        break;
      }
      case Config::Lifo: {
        worklist::ChunkedWorklist wl(
            &machine, worklist::ChunkedWorklist::Policy::Lifo, 32,
            8);
        out.run = galois::runParallel(machine, *w.app, wl, rc);
        break;
      }
      case Config::Strict: {
        worklist::StrictPriorityWorklist wl(&machine);
        out.run = galois::runParallel(machine, *w.app, wl, rc);
        break;
      }
      case Config::Minnow:
      case Config::MinnowPf: {
        out.run = minnowengine::runMinnow(machine, *w.app,
                                          w.lgDelta, rc,
                                          &out.engines);
        break;
      }
      case Config::Bsp:
      case Config::BspBucketed: {
        bsp::BspConfig bc;
        bc.threads = rc.threads;
        bc.verify = rc.verify;
        bc.maxEvents = rc.maxEvents;
        bc.bucketed = spec.config == Config::BspBucketed;
        bc.lgBucketInterval = w.lgDelta;
        out.run = bsp::runBsp(machine, *w.app, bc, &out.bsp);
        break;
      }
    }
    return out;
}

} // namespace minnow::harness
