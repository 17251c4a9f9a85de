// Conforming twin of host_threading_bad.cc: must produce zero
// findings. Exercises the rule's negative space — independent points
// handed to the point farm, project types that merely resemble
// banned names, and unqualified identifiers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture
{

// The sanctioned shape: every point runs through the farm and writes
// only its own slot; results are read in index order after it
// returns. (The declaration stands in for the task_farm include so
// the fixture lints standalone.)
void runTaskFarmLike(std::size_t n, std::uint32_t threads,
                     const std::function<void(std::size_t)> &fn);

std::vector<std::uint64_t>
sweepPoints(std::size_t points, std::uint32_t hostPar)
{
    std::vector<std::uint64_t> cycles(points, 0);
    runTaskFarmLike(points, hostPar, [&](std::size_t i) {
        cycles[i] = 1000 + i;
    });
    return cycles;
}

// Project types named like banned primitives, without std::
// qualification, must not trip the ban list.
struct barrier
{
    int phase = 0;
};

struct future
{
    int value = 0;
};

barrier epochBoundary;
future pendingResult;

// An identifier that merely starts with "atomic" but is not
// std::-qualified is fine too.
int atomicityBudget = 3;

} // namespace fixture
