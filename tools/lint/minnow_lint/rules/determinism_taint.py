"""D3 `determinism-taint`: host entropy must not steer the sim.

D1 bans host-time/entropy *call sites* outside their sanctioned
homes, but a ban list cannot see a laundered value: a helper that
returns `hostNowNs()` looks clean at every use site. This rule
upgrades D1 to interprocedural dataflow over the project call graph
(DESIGN.md 5l): a function whose return value derives from a host
source — directly, or through up to three call layers
(ProjectModel.taint_closure) — taints every expression that calls
it, and tainted expressions may not reach the places where a host
value would steer simulated behavior:

  - arguments of `schedule*` / `scheduleCompact` (a host-dependent
    event time is nondeterminism at its root: the event order
    itself);
  - RNG seeding (`seed(...)`, `Rng(...)` / `Rng{...}`): the seeded
    stream silently re-keys every draw downstream;
  - stats scalars (members of `*Stats` aggregates and members with
    Stat-typed declarations): stats JSON is byte-diffed across runs;
  - checkpoint-serialized members (anything a `checkpoint()` body
    names outside `transient(...)` strings): a host value written
    there changes the checkpoint witness run to run.

Taint propagates through simple local assignment (`auto t = f();`
then `t` is tainted for the rest of the body — linear, not
flow-sensitive) and through function returns up to depth 3; it does
NOT propagate through data members, containers, or out-parameters
(documented under-approximation, kept so every finding is
actionable). The sanctioned host-time consumers (hostprof's own
counters, the epoch barrier's wait accounting) are plain host-side
integers, not sim state, so they do not trip the sinks.
"""

from ..scan import match_paren, split_args, receiver_chain

RULE_ID = "determinism-taint"

DOC = ("host-derived values (hostNowNs & friends, through <=3 call "
       "layers) must not reach schedule*/stats/checkpoint/RNG-seed "
       "sinks")

# Value-producing host sources. The D1 side (bans on the call sites
# themselves) still applies; this rule tracks what their *values*
# touch, including through the hostNowNs() exemption.
_SOURCES = {
    "hostNowNs", "rand", "drand48", "lrand48", "random_device",
    "system_clock", "steady_clock", "high_resolution_clock",
    "getenv", "secure_getenv",
}

_STAT_TYPES = {
    "ScalarStat", "CounterStat", "FormulaStat", "HistogramStat",
    "StatHistogram",
}

_SEED_CALLS = {"seed", "Rng", "SplitMix64"}


def _stats_member_names(project):
    """Member names that count as stats scalars: declared with a
    Stat type, or members of a class whose name contains 'Stats'."""
    names = set()
    for cls_name, entry in project.classes.items():
        is_stats_cls = "Stats" in cls_name
        for _path, mem in entry["members"]:
            if is_stats_cls or any(
                    t.kind == "id" and t.text in _STAT_TYPES
                    for t in mem.type_tokens):
                names.add(mem.name)
    return names


def _serialized_members(project):
    """class name -> set of member names its checkpoint() bodies
    serialize (identifier uses, minus transient(...) strings)."""
    import re
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    out = {}
    for cls_name, entry in project.classes.items():
        ck = [m for _p, m in entry["methods"]
              if m.name.split("::")[-1] == "checkpoint"]
        if not ck:
            continue
        ids = set()
        transient = set()
        for m in ck:
            for i, t in enumerate(m.body):
                if t.kind == "id":
                    ids.add(t.text)
                elif t.kind == "str":
                    transient.update(word.findall(t.text))
        member_names = {mem.name for _p, mem in entry["members"]}
        out[cls_name] = (ids - transient) & member_names
    return out


def _expr_tainted(tokens, tainted_fns, tainted_locals):
    """Does this token run contain a call to a tainted function /
    source, or a use of a tainted local?"""
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in tainted_locals:
            return t.text
        is_call = i + 1 < n and tokens[i + 1].kind == "punct" and \
            tokens[i + 1].text == "("
        if is_call and (t.text in _SOURCES or t.text in tainted_fns):
            return t.text + "()"
        if not is_call and t.text in ("system_clock", "steady_clock",
                                      "high_resolution_clock",
                                      "random_device"):
            return t.text  # type-ish sources used as ::now() etc.
    return None


def _local_taint(body, tainted_fns):
    """Linear pass: local names assigned from tainted expressions.
    Returns {name: line}."""
    tainted = {}
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "id" and i + 1 < n and \
                body[i + 1].kind == "punct" and \
                body[i + 1].text == "=" and \
                (i + 2 < n and body[i + 2].text != "="):
            # statement RHS up to ';'
            j = i + 2
            while j < n:
                u = body[j]
                if u.kind == "punct":
                    if u.text == "(":
                        j = match_paren(body, j)
                        continue
                    if u.text == ";":
                        break
                j += 1
            rhs = body[i + 2:j]
            why = _expr_tainted(rhs, tainted_fns, tainted)
            if why:
                tainted[t.text] = t.line
            i = j
            continue
        i += 1
    return tainted


def check_project(project):
    findings = []
    closure = project.taint_closure(_SOURCES, max_depth=3)
    tainted_fns = {project.functions[k].name: d
                   for k, d in closure.items()}
    stats_names = _stats_member_names(project)
    serialized = _serialized_members(project)

    for fi in project.functions.values():
        body = fi.method.body
        # Fast reject: no source/tainted name appears at all.
        mentioned = {t.text for t in body if t.kind == "id"}
        if not (mentioned & (_SOURCES | set(tainted_fns))):
            continue
        tainted_locals = _local_taint(body, tainted_fns)
        ser = serialized.get(fi.cls, set())

        n = len(body)
        for i, t in enumerate(body):
            if t.kind != "id":
                continue
            nxt_open = i + 1 < n and body[i + 1].kind == "punct" and \
                body[i + 1].text in ("(", "{")
            # Sink 1: schedule*(...) arguments.
            if nxt_open and body[i + 1].text == "(" and \
                    t.text.startswith("schedule"):
                args, _close = split_args(body, i + 1)
                for arg in args:
                    why = _expr_tainted(arg, tainted_fns,
                                        tainted_locals)
                    if why:
                        findings.append(
                            (fi.path, t.line, RULE_ID,
                             "host-derived value (%s) flows into "
                             "'%s' in '%s'; a host-dependent event "
                             "time reorders the whole run — use "
                             "sim time (eq.now()) instead"
                             % (why, t.text, fi.qual)))
                        break
                continue
            # Sink 2: RNG seeding.
            if nxt_open and t.text in _SEED_CALLS:
                args, _close = split_args(body, i + 1)
                for arg in args:
                    why = _expr_tainted(arg, tainted_fns,
                                        tainted_locals)
                    if why:
                        findings.append(
                            (fi.path, t.line, RULE_ID,
                             "host-derived value (%s) seeds the "
                             "RNG via '%s' in '%s'; every draw "
                             "downstream becomes run-dependent — "
                             "seed from config/CLI only"
                             % (why, t.text, fi.qual)))
                        break
                continue
            # Sink 3+4: assignment into stats scalars or
            # checkpoint-serialized members.
            if i + 1 < n and body[i + 1].kind == "punct" and \
                    body[i + 1].text in ("=", "+=", "-="):
                target = t.text
                is_stats = target in stats_names and (
                    receiver_chain(body, i) or fi.cls)
                is_ser = fi.cls and target in ser
                if not (is_stats or is_ser):
                    continue
                j = i + 2
                while j < n:
                    u = body[j]
                    if u.kind == "punct":
                        if u.text == "(":
                            j = match_paren(body, j)
                            continue
                        if u.text == ";":
                            break
                    j += 1
                why = _expr_tainted(body[i + 2:j], tainted_fns,
                                    tainted_locals)
                if why:
                    what = ("stats scalar" if is_stats
                            else "checkpoint-serialized member")
                    findings.append(
                        (fi.path, t.line, RULE_ID,
                         "host-derived value (%s) is written into "
                         "%s '%s' in '%s'; exported/witnessed state "
                         "must not depend on host timing"
                         % (why, what, target, fi.qual)))
    return findings
