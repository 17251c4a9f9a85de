#include "harness/workloads.hh"

#include <cmath>

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

} // anonymous namespace

Workload
makeWorkload(const std::string &name, double scale,
             std::uint64_t seed)
{
    Workload w;
    w.name = name;
    w.scale = scale;
    w.seed = seed;
    if (name == "sssp") {
        // USA-road-d.W class: high-diameter weighted grid.
        std::uint32_t side =
            std::uint32_t(std::sqrt(double(scaled(22500, scale))));
        w.inputDesc = "grid " + std::to_string(side) + "x" +
                      std::to_string(side) + " w<=100";
        w.graph = graph::gridGraph(side, side, 100, seed);
        w.lgDelta = 4; // delta ~16 for weights ~1..100.
        w.app = std::make_unique<apps::SsspApp>(
            &w.graph, 0, false, 1u << 30, "sssp");
    } else if (name == "bfs") {
        // r4-2e23 class: random avg-degree-4 "mesh".
        NodeId n = scaled(30000, scale);
        w.inputDesc = "random n=" + std::to_string(n) + " d=4";
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
        w.graph = graph::powerLawGraph(n, 6.0, 0.9, seed, true);
        w.lgDelta = 6; // component-id buckets.
        // Task splitting (Section 6.2.1), threshold scaled from the
        // paper's 10K edges to our input sizes.
        w.app = std::make_unique<apps::CcApp>(&w.graph, 256);
    } else if (name == "pr") {
        // wiki-Talk class: directed power-law.
        NodeId n = scaled(15000, scale);
        w.inputDesc = "powerlaw n=" + std::to_string(n) + " d=8";
        w.graph = graph::powerLawGraph(n, 8.0, 0.9, seed);
        w.lgDelta = 4; // residual-derived priorities.
        w.app = std::make_unique<apps::PrApp>(&w.graph, 0.85, 1e-4,
                                              1u << 30);
    } else if (name == "tc") {
        // com-dblp class: clustered, triangle-rich, fits in LLC.
        NodeId n = scaled(3000, scale);
        w.inputDesc = "watts-strogatz n=" + std::to_string(n) +
                      " k=10";
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
        w.graph = graph::bipartiteGraph(left, right, 4.0, 0.8, seed);
        w.usesPriority = false;
        w.app = std::make_unique<apps::BcApp>(&w.graph, 256);
    } else if (name == "mis") {
        // Extension workload (paper conclusion: "other classes of
        // irregular workloads"): greedy maximal independent set.
        NodeId n = scaled(25000, scale);
        w.inputDesc = "powerlaw-sym n=" + std::to_string(n) +
                      " d=6";
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
        w.graph = graph::powerLawGraph(n, 6.0, 0.9, seed, true);
        w.usesPriority = false;
        w.app = std::make_unique<apps::KcoreApp>(&w.graph, 5, 256);
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return w;
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
    rc.statsHook = spec.statsHook;

    // ---- checkpoint/restore wiring (DESIGN.md section 5i) ----
    // The harness owns the run-scoped sections the Machine cannot
    // see: the anchor ("meta", read live at serialize time), the
    // input graph (so a restore names a regenerated graph that
    // differs from the saved one) and the app state. Registered
    // unconditionally so save-run and restore-run emit identical
    // section sequences.
    machine.addCkptHook("meta", [&](ckpt::Ckpt &ck) {
        CkptMeta m;
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

    // Restoring and saving both need the one stop trigger.
    fatal_if(!spec.checkpointIn.empty() && !spec.checkpointOut.empty(),
             "cannot combine checkpoint-in with checkpoint-out");
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

    auto saveNow = [&](const char *what) {
        std::string err = machine.save(spec.checkpointOut);
        if (!err.empty())
            warn("failed to write %s checkpoint %s: %s", what,
                 spec.checkpointOut.c_str(), err.c_str());
    };
    if (restoring) {
        // Replay deterministically to the saved anchor, then prove
        // the replayed state matches the checkpoint byte-for-byte.
        rc.stopAt = true;
        rc.stopAtCycle = meta.cycle;
        rc.stopAtExec = meta.executed;
        rc.midRunHook = [&] {
            out.restored = true;
            std::vector<std::string> bad =
                machine.validateAgainst(reader);
            if (bad.empty())
                return;
            std::string names;
            for (const std::string &n : bad)
                names += (names.empty() ? "" : ", ") + n;
            warn("restore witness mismatch in section(s) %s;"
                 " continuing with the replayed state",
                 names.c_str());
        };
    } else if (!isBsp && !spec.checkpointOut.empty()) {
        rc.stopAt = true;
        rc.stopAtCycle = spec.checkpointAfter;
        rc.stopAtExec = 0;
        rc.midRunHook = [&] { saveNow("anchor"); };
        // SIGINT/SIGTERM: the executor calls this while run-scoped
        // state is still live, so the rescue file is complete.
        rc.interruptHook = [&] { saveNow("interrupt rescue"); };
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
        out.run = galois::runMinnow(machine, *w.app, w.lgDelta, rc,
                                    &out.engines);
        break;
      }
      case Config::Bsp:
      case Config::BspBucketed: {
        out.run = bsp::runBsp(machine, *w.app, rc,
                              spec.config == Config::BspBucketed,
                              w.lgDelta);
        break;
      }
    }
    return out;
}

} // namespace minnow::harness
