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
#include <functional>
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
 * The "meta" checkpoint section: which run produced the file and
 * where its anchor sits. A restore replays deterministically to
 * (cycle, executed) and witness-validates there.
 */
struct CkptMeta
{
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
    Cycle serialBaselineCycles = 0;    //!< when requested.
    /** The checkpoint validated and the replay reached its anchor. */
    bool restored = false;
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
    /**
     * Replay to this checkpoint's anchor and witness-validate there
     * ("" = off). Exclusive with checkpointOut: both need the one
     * stop trigger.
     */
    std::string checkpointIn;
    /**
     * Anchor of the saved checkpoint: the first event boundary at or
     * after this cycle. 0 = before the first event.
     */
    Cycle checkpointAfter = 0;

    /**
     * Signal-handler flag for graceful SIGINT/SIGTERM (null = off):
     * the event loop polls it and stops cleanly at an event
     * boundary; a rescue checkpoint is written when checkpointOut
     * is set.
     */
    // LINT-OK(host-threading): lock-free signal flag, read-only here
    const std::atomic<int> *interruptFlag = nullptr;

    /** Receives the run's stats registry (galois::RunConfig::
     *  statsHook); null = no stats document is built. */
    std::function<void(const StatsRegistry &)> statsHook;

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
