#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
# Usage: scripts/run_sanitized_tests.sh [address|undefined|thread]...
# With no arguments, runs all three sanitizers in sequence. Each
# sanitizer gets its own build directory (build-san-<name>) so
# incremental rebuilds stay cheap. The thread leg additionally runs
# the tsan_equivalence ctest (the whole check_equivalence table,
# --host-par point-farm rows included, under the race detector); it
# only exists in MINNOW_SANITIZE=thread builds.

set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
    sanitizers=(address undefined thread)
fi

for san in "${sanitizers[@]}"; do
    case "$san" in
      address|undefined|thread) ;;
      *)
        echo "unknown sanitizer '$san' (want address, undefined, or thread)" >&2
        exit 1
        ;;
    esac
    build="build-san-$san"
    echo "=== $san sanitizer: configuring $build ==="
    cmake -B "$build" -S . -DMINNOW_SANITIZE="$san" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    echo "=== $san sanitizer: building ==="
    cmake --build "$build" -j"$(nproc)"
    echo "=== $san sanitizer: testing ==="
    (cd "$build" && ctest --output-on-failure -j"$(nproc)")
done

echo "=== all sanitized test runs passed ==="
