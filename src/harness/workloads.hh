/**
 * @file
 * Experiment harness: builds the seven paper workloads (Table 2)
 * over their scaled Table 1 input classes, and runs them under any
 * scheduler configuration (serial baseline, Galois software
 * worklists, Minnow with/without prefetching, BSP/GraphMat modes,
 * baseline hardware prefetchers).
 *
 * Every bench binary is a thin driver over this harness, so the
 * workload definitions and configuration names are identical across
 * all tables and figures.
 */

#ifndef MINNOW_HARNESS_WORKLOADS_HH
#define MINNOW_HARNESS_WORKLOADS_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "base/ckpt.hh"
#include "bsp/bsp_engine.hh"
#include "galois/executor.hh"
#include "graph/csr.hh"
#include "minnow/minnow_system.hh"
#include "sim/config.hh"

namespace minnow::harness
{

/** One benchmark workload: input graph + application + tuning. */
struct Workload
{
    std::string name;          //!< "sssp", "bfs", "g500", ...
    std::string inputDesc;     //!< generator description (Table 1).
    graph::CsrGraph graph;
    std::unique_ptr<apps::App> app;
    std::uint32_t lgDelta = 3; //!< OBIM bucket interval.
    std::uint32_t nodeBytes = 32;
    bool usesPriority = true;  //!< benefits from ordering (paper).
    double scale = 1.0;        //!< scale it was built at.
    std::uint64_t seed = 1;    //!< generator seed it was built with.
    bool warmLoaded = false;   //!< graph came from a checkpoint.
};

/** The paper's seven workloads, in Fig. 16 order. */
const std::vector<std::string> &workloadNames();

/**
 * Build one workload at the given scale factor (1.0 = the default
 * second-scale inputs; benches expose --scale).
 */
Workload makeWorkload(const std::string &name, double scale = 1.0,
                      std::uint64_t seed = 1);

/**
 * Build a workload from a warm checkpoint: validates the file
 * (CRC/version/meta) and loads the graph arrays materially instead
 * of regenerating them. Any failure — missing file, corrupt
 * sections, meta describing a different workload — warns and falls
 * back to cold generation ("warn, never wrong"); check
 * Workload::warmLoaded for which path was taken.
 */
Workload makeWorkloadWarm(const std::string &name, double scale,
                          std::uint64_t seed,
                          const std::string &ckptPath);

/**
 * The "meta" checkpoint section: which run produced the file and
 * where its resume anchor sits. kind 0 = warm boundary (taken
 * before simulated time started), 1 = rescue (mid-run anchor; a
 * restore replays deterministically to (cycle, executed) and
 * witness-validates there).
 */
struct CkptMeta
{
    std::uint8_t kind = 0;
    Cycle cycle = 0;
    std::uint64_t executed = 0;
    std::string workload;
    double scale = 1.0;
    std::uint64_t seed = 1;
    std::string config;
    std::uint32_t threads = 0;

    void
    checkpoint(ckpt::Ckpt &ck)
    {
        ck.io(kind);
        ck.io(cycle);
        ck.io(executed);
        ck.io(workload);
        ck.io(scale);
        ck.io(seed);
        ck.io(config);
        ck.io(threads);
    }
};

/** Scheduler/hardware configurations runnable by the harness. */
enum class Config
{
    SerialRelaxed,  //!< 1 thread, atomics removed (Fig. 15 baseline).
    Obim,           //!< Galois software OBIM.
    ObimStride,     //!< OBIM + L2 stride prefetcher.
    ObimImp,        //!< OBIM + IMP prefetcher.
    Fifo,           //!< chunked FIFO.
    Lifo,           //!< chunked LIFO ("Carbon" policy, Fig. 3).
    Strict,         //!< centralized strict priority queue.
    Minnow,         //!< engines, prefetch off.
    MinnowPf,       //!< engines + worklist-directed prefetching.
    Bsp,            //!< GraphMat-like unordered BSP.
    BspBucketed,    //!< GMat*: one BSP pass per priority bucket.
};

/** Parse a config name ("obim", "minnow-pf", ...); fatal on typo. */
Config parseConfig(const std::string &name);
std::string configName(Config c);

/** Everything one run produces. */
struct ExperimentResult
{
    galois::RunResult run;
    minnowengine::EngineStats engines; //!< Minnow configs only.
    bsp::BspStats bsp;                 //!< BSP configs only.
    Cycle serialBaselineCycles = 0;    //!< when requested.
};

/** Options for one experiment run. */
struct RunSpec
{
    Config config = Config::Obim;
    std::uint32_t threads = 64;
    MachineConfig machine;      //!< defaults to scaledMachine().
    bool verify = true;
    std::uint64_t maxEvents = 400'000'000;

    /** Write a checkpoint here ("" = off); see checkpointAfter. */
    std::string checkpointOut;
    /** Restore/validate from this checkpoint ("" = off). */
    std::string checkpointIn;
    /**
     * When to save: "warmup" = at the warm boundary (right before
     * simulated time starts), or a cycle count N = a mid-run rescue
     * anchor at the first event boundary at or after cycle N.
     */
    std::string checkpointAfter = "warmup";

    /**
     * Signal-handler flag for graceful SIGINT/SIGTERM (null = off):
     * the event loop polls it and stops cleanly at an event
     * boundary; a rescue checkpoint is written when checkpointOut
     * is set.
     */
    // LINT-OK(host-threading): lock-free signal flag, read-only here
    const std::atomic<int> *interruptFlag = nullptr;

    RunSpec() : machine(scaledMachine()) {}
};

/**
 * Run @p workload under @p spec on a fresh machine.
 * The workload's app state is reset; its graph is (re)assigned
 * simulated addresses in the new machine's address space.
 */
ExperimentResult runExperiment(Workload &workload,
                               const RunSpec &spec);

} // namespace minnow::harness

#endif // MINNOW_HARNESS_WORKLOADS_HH
