/**
 * @file
 * The whole evaluation in one process: every record of the figure
 * table (figure.hh), each distinct point of their union simulated
 * once.
 *
 * eval takes the common bench flags and every figure's own flags
 * (--credits-list, --workload), each meaning what it means to every
 * figure binary, and prints each figure's stdout after a
 * "##### <name>" line, in document order: what running each figure
 * binary with the same flags prints (Table 3 and Section 5.4 run
 * without flags, as their binaries take none of these). Two points
 * share one run when sameRun() holds; the union is farmed over
 * --host-par threads by runPoints(). The flags that name an output
 * file (--stats-json, --timeline, --diag-json) belong to a figure
 * binary: one file per figure.
 *
 * Before simulating, eval prints one line to stderr: "eval: N points
 * declared, M simulated".
 */

#include <cstdio>

#include "figure.hh"

using namespace minnow;
using namespace minnow::bench;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    for (const char *sink : {"stats-json", "timeline", "diag-json"}) {
        fatal_if(opts.has(sink),
                 "eval takes no --%s: it names one file per figure;"
                 " run that figure's binary with it",
                 sink);
    }

    // Each figure's points, as indices into the distinct ones.
    struct Declared
    {
        const Figure *fig;
        BenchArgs args;
        std::vector<std::size_t> slots;
    };
    std::vector<Declared> declared;
    std::vector<Point> distinct;
    std::size_t total = 0;
    for (const Figure &fig : figures()) {
        Declared d{&fig, BenchArgs(), {}};
        if (fig.benchFlags)
            d.args = parseArgs(opts, fig.scale, fig.threads);
        if (fig.points) {
            for (Point &p : fig.points(d.args, opts)) {
                std::size_t slot = 0;
                while (slot < distinct.size() &&
                       !sameRun(distinct[slot], p))
                    ++slot;
                if (slot == distinct.size())
                    distinct.push_back(std::move(p));
                d.slots.push_back(slot);
                ++total;
            }
        }
        declared.push_back(std::move(d));
    }
    // Every point carries its figure's scale, seed and budget; the
    // farm's args give runPoints only --host-par.
    BenchArgs farm = parseArgs(opts);
    opts.rejectUnused();
    std::fprintf(stderr, "eval: %zu points declared, %zu simulated\n",
                 total, distinct.size());

    const Results results = runPoints(farm, std::move(distinct));
    const Options none(std::vector<std::string>{});
    for (const Declared &d : declared) {
        std::printf("%s##### %s\n", &d == declared.data() ? "" : "\n",
                    d.fig->name);
        const Options &flags = d.fig->benchFlags ? opts : none;
        if (d.fig->head)
            d.fig->head(d.args, flags);
        Results mine;
        for (std::size_t slot : d.slots)
            mine.push_back(results[slot]);
        d.fig->render(d.args, flags, mine);
    }
    return 0;
}
