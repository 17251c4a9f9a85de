"""P1 `host-threading`: host concurrency lives in the point farm.

The simulator runs each Machine on one host thread. Its only host
threading is the --host-par point farm, sim/parallel/task_farm.{hh,cc}
(DESIGN.md section 5j), which runs independent simulation points on a
fixed set of threads that share no simulator state. Everything else
must stay single-threaded from the host's point of view, because
byte-identical replay is argued file by file — a stray std::thread or
a mutex-guarded shared structure elsewhere silently widens the audit
surface:

  - std::thread / std::jthread / pthread_*: a second execution
    context outside the farm;
  - std::mutex / condition_variable and friends (and their lock
    wrappers): blocking cross-thread state with untracked ordering;
  - std::atomic / std::atomic_flag: lock-free cross-thread state
    with the same problem in a harder-to-spot shape;
  - std::async / future / promise / semaphores / latches / barriers:
    thread creation or synchronization by another name.

Code that genuinely needs one of these outside the farm (e.g. the
async-signal-safe spinlock in base/logging.cc, which cannot depend on
sim/) documents why with a LINT-OK(host-threading) at the use site.
"""

RULE_ID = "host-threading"

DOC = ("bans std::thread/mutex/atomic and other host concurrency "
       "primitives outside sim/parallel/task_farm.*")

# Identifiers banned when std::-qualified. std::atomic_<T> aliases
# (atomic_bool, atomic_uint64_t, ...) are caught by prefix below.
_BANNED_STD = {
    "thread": "spawns a host thread",
    "jthread": "spawns a host thread",
    "mutex": "blocking cross-thread state",
    "timed_mutex": "blocking cross-thread state",
    "recursive_mutex": "blocking cross-thread state",
    "recursive_timed_mutex": "blocking cross-thread state",
    "shared_mutex": "blocking cross-thread state",
    "shared_timed_mutex": "blocking cross-thread state",
    "condition_variable": "blocking cross-thread signaling",
    "condition_variable_any": "blocking cross-thread signaling",
    "lock_guard": "locks a mutex",
    "unique_lock": "locks a mutex",
    "scoped_lock": "locks a mutex",
    "shared_lock": "locks a mutex",
    "call_once": "cross-thread one-shot state",
    "once_flag": "cross-thread one-shot state",
    "async": "spawns a host thread",
    "future": "cross-thread result passing",
    "shared_future": "cross-thread result passing",
    "promise": "cross-thread result passing",
    "packaged_task": "cross-thread result passing",
    "counting_semaphore": "cross-thread synchronization",
    "binary_semaphore": "cross-thread synchronization",
    "latch": "cross-thread synchronization",
    "barrier": "cross-thread synchronization",
    "stop_source": "host-thread cancellation state",
    "stop_token": "host-thread cancellation state",
}

_ATOMIC_PREFIX = "atomic"

_HOME = "sim/parallel/task_farm."

_WHERE = ("outside sim/parallel/task_farm.*; host concurrency lives "
          "in the --host-par point farm (DESIGN.md 5j) — run "
          "independent points through it or justify with a LINT-OK")


def _in_home(path):
    return _HOME in path.replace("\\", "/")


def _finding(model, tok, what):
    return (model.path, tok.line, RULE_ID,
            "%s (%s) %s"
            % (what, _BANNED_STD.get(tok.text,
                                     "cross-thread shared state"),
               _WHERE))


def check(unit):
    findings = []
    for model in unit:
        if _in_home(model.path):
            continue
        toks = model.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text.startswith("pthread_"):
                findings.append(
                    (model.path, t.line, RULE_ID,
                     "%s() (raw pthreads) %s" % (t.text, _WHERE)))
                continue
            # Only std::-qualified names: a project type that
            # happens to be called `barrier` or `future` is fine.
            if not (i >= 2 and toks[i - 1].kind == "punct" and
                    toks[i - 1].text == "::" and
                    toks[i - 2].kind == "id" and
                    toks[i - 2].text == "std"):
                continue
            if t.text in _BANNED_STD:
                findings.append(
                    _finding(model, t, "std::" + t.text))
            elif t.text.startswith(_ATOMIC_PREFIX):
                findings.append(
                    (model.path, t.line, RULE_ID,
                     "std::%s (lock-free cross-thread state) %s"
                     % (t.text, _WHERE)))
    return findings
