/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal invariant was violated (simulator bug); aborts.
 * fatal()  - the user asked for something impossible (bad flags, bad
 *            input file); exits with status 1.
 * warn()   - something is modelled approximately; simulation continues.
 * inform() - plain status output.
 */

#ifndef MINNOW_BASE_LOGGING_HH
#define MINNOW_BASE_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace minnow
{

/** Severity levels understood by logMessage(). */
enum class LogLevel
{
    Info,
    Warn,
    Fatal,
    Panic,
};

/**
 * Format and emit one log record to stderr (or stdout for Info).
 *
 * @param level Severity; Fatal exits, Panic aborts.
 * @param file  Source file of the call site.
 * @param line  Source line of the call site.
 * @param fmt   printf-style format string.
 */
[[gnu::format(printf, 4, 5)]]
void logMessage(LogLevel level, const char *file, int line,
                const char *fmt, ...);

/** True once warn() has fired at least once (used by tests). */
bool warningsSeen();

/** Reset the warning-seen flag (used by tests). */
void clearWarnings();

/**
 * Post-mortem hook run by panic() just before abort(), after all
 * streams are flushed. The Machine registers one that writes a
 * best-effort stats JSON snapshot so invariant failures leave
 * inspectable state behind. Hooks must be async-signal-tolerant in
 * spirit: best effort, no throwing, no further panics (a panic from
 * inside a hook aborts immediately instead of recursing).
 *
 * A Thread-scoped hook runs only for a panic (or flush) on the
 * thread that registered it: with --host-par, state that another
 * thread is still simulating must not be read from the panicking
 * one. A Process-scoped hook runs on whichever thread panics.
 *
 * @return Registration id for removePanicHook().
 */
using PanicHook = void (*)(void *);
enum class HookScope
{
    Process,
    Thread,
};
int addPanicHook(PanicHook hook, void *arg,
                 HookScope scope = HookScope::Process);

/** Deregister a hook by the id addPanicHook() returned. */
void removePanicHook(int id);

/**
 * Run the registered post-mortem hooks and flush every stream
 * without aborting: the graceful SIGINT/SIGTERM exit path reuses
 * the panic registry so an interrupted bench leaves the same
 * diagnostic/stats files as a crashed one. Idempotent per process
 * (hooks run at most once; a later panic() will not rerun them).
 */
void flushPanicHooks();

} // namespace minnow

#define panic(...) \
    ::minnow::logMessage(::minnow::LogLevel::Panic, __FILE__, __LINE__, \
                         __VA_ARGS__)

#define fatal(...) \
    ::minnow::logMessage(::minnow::LogLevel::Fatal, __FILE__, __LINE__, \
                         __VA_ARGS__)

#define warn(...) \
    ::minnow::logMessage(::minnow::LogLevel::Warn, __FILE__, __LINE__, \
                         __VA_ARGS__)

#define inform(...) \
    ::minnow::logMessage(::minnow::LogLevel::Info, __FILE__, __LINE__, \
                         __VA_ARGS__)

/** panic() unless the given condition holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) { \
            panic(__VA_ARGS__); \
        } \
    } while (0)

/** fatal() unless the given condition holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) { \
            fatal(__VA_ARGS__); \
        } \
    } while (0)

#endif // MINNOW_BASE_LOGGING_HH
