/**
 * @file
 * The figure table: every table and figure of the evaluation (and
 * every ablation) as one record, in EXPERIMENTS.md's document order.
 *
 * A record declares its simulation points from the parsed flags and
 * prints its table from their results; the records are in
 * figures.cc. A figure binary (one target per record, built from
 * figure_main.cc) runs its own record through runPoints();
 * bench/eval runs every record, simulating each distinct point of
 * their union once (DESIGN.md section 5j).
 */

#ifndef MINNOW_BENCH_FIGURE_HH
#define MINNOW_BENCH_FIGURE_HH

#include <vector>

#include "bench_common.hh"

namespace minnow::bench
{

/** A figure's results, one per point in declaration order. */
using Results = std::vector<harness::ExperimentResult>;

/**
 * One table or figure of the evaluation. Its binary prints head(),
 * runs points() and prints render() of their results; eval prints
 * head() and render() once the union of all points has run.
 */
struct Figure
{
    const char *name;          //!< target name and output section.
    double scale = 0;          //!< default --scale.
    std::uint32_t threads = 0; //!< default --threads.
    /**
     * Declare the points from the common flags @p args and the
     * figure's own flags in @p opts (null: it simulates nothing).
     */
    std::vector<Point> (*points)(const BenchArgs &args,
                                 const Options &opts) = nullptr;
    /** Print what comes before the results: the banner. */
    void (*head)(const BenchArgs &args, const Options &opts) = nullptr;
    /** Print the figure from its points' results. */
    void (*render)(const BenchArgs &args, const Options &opts,
                   const Results &results);
    /**
     * Takes the common bench flags. Table 3 and Section 5.4 take no
     * flags at all: their render rejects any, and eval runs them
     * without flags.
     */
    bool benchFlags = true;
};

/** Every record, in document order. */
const std::vector<Figure> &figures();

/** main() of the figure binary of record @p name. */
int figureMain(const char *name, int argc, char **argv);

} // namespace minnow::bench

#endif // MINNOW_BENCH_FIGURE_HH
