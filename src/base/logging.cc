#include "base/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace minnow
{

namespace
{

// Farmed points (--host-par) can warn at once, e.g. several points
// timing out together.
// LINT-OK(host-threading): base-layer flag, no sim/parallel dep
std::atomic<bool> warnSeen{false};

struct PanicHookEntry
{
    int id;
    PanicHook fn;
    void *arg;
};

std::vector<PanicHookEntry> &
panicHooks()
{
    static std::vector<PanicHookEntry> hooks;
    return hooks;
}

int nextPanicHookId = 1;
bool inPanicHooks = false;

/**
 * Registry guard: --host-par point farms construct and destroy
 * Machines on several host threads, each registering its panic
 * hook. The critical sections are a few vector operations, so a
 * spinlock suffices; std::mutex is reserved for sim/parallel by
 * minnow-lint rule P1, and a panic inside a hook must not try to
 * re-acquire a poisoned lock anyway (runPanicHooks snapshots the
 * registry and runs hooks outside the lock).
 */
// base/ cannot depend on sim/parallel, and panic paths need an
// async-signal-tolerant guard; this spinlock is the sanctioned
// alternative to std::mutex here (DESIGN.md 5j).
// LINT-OK(host-threading): base-layer spinlock, no sim/parallel dep
std::atomic_flag hooksLock = ATOMIC_FLAG_INIT;

struct HooksGuard
{
    HooksGuard()
    {
        while (hooksLock.test_and_set(std::memory_order_acquire)) {
        }
    }
    ~HooksGuard() { hooksLock.clear(std::memory_order_release); }
};

/**
 * Flush everything and run the post-mortem hooks (most recently
 * registered first, matching teardown order). Reentrant panics skip
 * straight to the flush so a buggy hook cannot recurse.
 */
void
runPanicHooks()
{
    if (!inPanicHooks) {
        inPanicHooks = true;
        std::vector<PanicHookEntry> snapshot;
        {
            HooksGuard g;
            snapshot = panicHooks();
        }
        for (auto it = snapshot.rbegin(); it != snapshot.rend();
             ++it)
            it->fn(it->arg);
    }
    // Flush every open stream (trace output included) so the log up
    // to the failure survives the abort.
    std::fflush(nullptr);
}

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

} // anonymous namespace

void
logMessage(LogLevel level, const char *file, int line,
           const char *fmt, ...)
{
    std::FILE *out = (level == LogLevel::Info) ? stdout : stderr;
    if (level != LogLevel::Info)
        std::fprintf(out, "%s: %s:%d: ", levelName(level), file, line);
    std::va_list args;
    va_start(args, fmt);
    std::vfprintf(out, fmt, args);
    va_end(args);
    std::fprintf(out, "\n");
    std::fflush(out);

    switch (level) {
      case LogLevel::Warn:
        warnSeen.store(true, std::memory_order_relaxed);
        break;
      case LogLevel::Fatal:
        std::exit(1);
      case LogLevel::Panic:
        runPanicHooks();
        std::abort();
      default:
        break;
    }
}

bool
warningsSeen()
{
    return warnSeen.load(std::memory_order_relaxed);
}

void
clearWarnings()
{
    warnSeen.store(false, std::memory_order_relaxed);
}

int
addPanicHook(PanicHook hook, void *arg)
{
    HooksGuard g;
    int id = nextPanicHookId++;
    panicHooks().push_back(PanicHookEntry{id, hook, arg});
    return id;
}

void
flushPanicHooks()
{
    runPanicHooks();
}

void
removePanicHook(int id)
{
    HooksGuard g;
    auto &hooks = panicHooks();
    for (auto it = hooks.begin(); it != hooks.end(); ++it) {
        if (it->id == id) {
            hooks.erase(it);
            return;
        }
    }
}

} // namespace minnow
