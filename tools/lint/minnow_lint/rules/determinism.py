"""D1 `determinism`: ban ambient-entropy and host-time sources.

The simulator's contract is byte-identical runs per seed
(scripts/check_equivalence.py, check_trace_json.py). Anything
that reads the host environment breaks it:

  - rand()/srand()/random()/drand48(): process-global hidden state;
  - std::random_device: hardware entropy;
  - system_clock/steady_clock/high_resolution_clock: host wall time;
  - getenv()/setenv(): run behavior keyed on ambient environment;
  - std::map/std::set keyed on a POINTER type: iteration order is
    allocation-address order, which varies run to run (ASLR, heap
    layout) — the classic nondeterminism landmine in simulators.

Seeded randomness goes through base/rng.hh; host time goes through
the single allowlisted hostNowNs() in base/host_clock.cc (the
--host-profile self-profiler measures host speed by design and is
marked there once, not per use site).
"""

from ..scan import match_paren

RULE_ID = "determinism"

DOC = ("bans rand()/random_device/wall-clock/getenv and "
       "pointer-keyed ordered containers in simulator code")

_BANNED_IDS = {
    "rand": "rand() draws from hidden process-global state",
    "srand": "srand() mutates hidden process-global state",
    "drand48": "drand48() draws from hidden process-global state",
    "lrand48": "lrand48() draws from hidden process-global state",
    "random_device": "std::random_device reads hardware entropy",
    "system_clock": "system_clock reads the host wall clock",
    "steady_clock": "steady_clock reads the host wall clock",
    "high_resolution_clock":
        "high_resolution_clock reads the host wall clock",
    "getenv": "getenv() keys behavior on the ambient environment",
    "secure_getenv":
        "secure_getenv() keys behavior on the ambient environment",
    "setenv": "setenv() mutates the ambient environment",
    "putenv": "putenv() mutates the ambient environment",
}

_ORDERED = {"map", "set", "multimap", "multiset"}


def _first_template_arg_is_pointer(tokens, lt):
    """tokens[lt] is '<' after map/set; is the first template
    argument a pointer type?"""
    depth = 0
    i = lt
    last = None
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == "," and depth == 1:
                break
            elif t.text == "(":
                i = match_paren(tokens, i)
                continue
            elif t.text in (";", "{", "}"):
                return False  # comparison, not a template
        if depth >= 1:
            last = t
        i += 1
    return last is not None and last.kind == "punct" and \
        last.text == "*"


def check(unit):
    findings = []
    for model in unit:
        toks = model.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in _BANNED_IDS:
                findings.append(
                    (model.path, t.line, RULE_ID,
                     "%s; route host time through "
                     "base/host_clock.hh:hostNowNs() and randomness "
                     "through base/rng.hh" % _BANNED_IDS[t.text]))
                continue
            if t.text in _ORDERED and i + 1 < len(toks) and \
                    toks[i + 1].kind == "punct" and \
                    toks[i + 1].text == "<":
                # Require a std:: qualifier so a project type named
                # `set` can't false-positive.
                if not (i >= 2 and toks[i - 1].text == "::" and
                        toks[i - 2].text == "std"):
                    continue
                if _first_template_arg_is_pointer(toks, i + 1):
                    findings.append(
                        (model.path, t.line, RULE_ID,
                         "std::%s keyed on a pointer iterates in "
                         "allocation-address order, which differs "
                         "run to run; key on a stable id instead"
                         % t.text))
    return findings
