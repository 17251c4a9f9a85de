/**
 * @file
 * main() of one figure binary: the build names the record in
 * MINNOW_FIGURE (see bench/CMakeLists.txt).
 */

namespace minnow::bench
{
// Declared in figure.hh; repeated so that the 21 copies of this file
// compile without the bench headers.
int figureMain(const char *name, int argc, char **argv);
} // namespace minnow::bench

int
main(int argc, char **argv)
{
    return minnow::bench::figureMain(MINNOW_FIGURE, argc, argv);
}
