"""L2 `stats-lifetime`: external group registrations must be removed.

StatsRegistry formulas capture pointers into the registering
component (`[this] { return double(counter_); }`). When a component
registers a group into a registry it does NOT own and dies first,
every later dump (interval sample, panic snapshot, end-of-run JSON)
calls through dangling captures — the PR 2 "worklist" group bug.

Rule: if any method of class C calls `<recv>.group(...)` or
`<recv>.freshGroup(...)` where the receiver is not a StatsRegistry
data member of C itself (i.e. the registry is external — a
parameter, or reached through another object), then C must define a
destructor from which a `removeGroup(...)` call is reachable through
the project call graph (C's methods plus free functions, depth <= 6
— since the ProjectModel landed this follows helper chains of any
realistic depth, where the old rule stopped after one level and
flagged a removeGroup two helpers deep as missing;
tests/lint_fixtures/stats_deep_ok.hh pins that) — or hold a
by-value `StatsClaim` data member, whose destructor removes the group
unless the registry has already died.

The conforming pattern is worklist/worklist.hh: attachStats() makes
a StatsClaim on the group before registering it.
"""

from ..scan import receiver_chain, type_mentions

RULE_ID = "stats-lifetime"

DOC = ("StatsRegistry group registrations into an external registry "
       "need a StatsClaim member or a removeGroup reachable from the "
       "destructor")

_REGISTER = {"group", "freshGroup"}


def _own_registry_members(entry):
    """Names of by-value StatsRegistry data members of the class."""
    own = set()
    for _path, m in entry["members"]:
        if type_mentions(m.type_tokens, {"StatsRegistry"}):
            # By-value only: a pointer/reference member means the
            # registry lives elsewhere.
            tix = [t.text for t in m.type_tokens
                   if t.kind == "punct" and t.text in ("*", "&")]
            if not tix:
                own.add(m.name)
    return own


def _holds_claim(entry):
    """Does the class hold a StatsClaim by value (its destructor
    removes the claimed group)?"""
    for _path, m in entry["members"]:
        if type_mentions(m.type_tokens, {"StatsClaim"}) and not any(
                t.kind == "punct" and t.text in ("*", "&")
                for t in m.type_tokens):
            return True
    return False


def _registration_sites(entry):
    """[(path, line, receiver_chain)] for group()/freshGroup() calls
    with an explicit receiver in the class's methods."""
    sites = []
    for path, m in entry["methods"]:
        body = m.body
        for i, t in enumerate(body):
            if t.kind == "id" and t.text in _REGISTER and \
                    i + 1 < len(body) and body[i + 1].text == "(":
                chain = receiver_chain(body, i)
                if not chain:
                    continue  # bare call (e.g. inside StatsRegistry)
                sites.append((path, t.line, chain))
    return sites


def _removal_reachable(project, entry, cls_name):
    """Is a removeGroup() call reachable from ~cls_name through the
    project call graph (class methods + free functions)?"""
    dtor = None
    for _path, m in entry["methods"]:
        if m.name.split("::")[-1] == "~" + cls_name:
            dtor = m
            break
    if dtor is None:
        return False

    def body_has_remove(m):
        return any(t.kind == "id" and t.text == "removeGroup"
                   for t in m.body)

    if body_has_remove(dtor):
        return True
    dfi = project.func_of(dtor)
    if dfi is None:
        return False
    for key in project.reachable_from(dfi.key, max_depth=6,
                                      same_class=cls_name):
        if body_has_remove(project.functions[key].method):
            return True
    return False


def check_project(project):
    findings = []
    for name, entry in project.classes.items():
        sites = _registration_sites(entry)
        if not sites:
            continue
        own = _own_registry_members(entry)
        external = []
        for path, line, chain in sites:
            # Own registry: single-step receiver naming a by-value
            # StatsRegistry member (`stats.group("sim")` inside the
            # class that declares `StatsRegistry stats;`).
            if len(chain) == 1 and chain[0] in own:
                continue
            external.append((path, line, chain))
        if not external:
            continue
        if _holds_claim(entry) or \
                _removal_reachable(project, entry, name):
            continue
        for path, line, chain in external:
            findings.append(
                (path, line, RULE_ID,
                 "'%s' registers a stats group into an external "
                 "registry ('%s') but holds no StatsClaim and no "
                 "removeGroup() is reachable from ~%s; formulas "
                 "capturing this object will dangle when it dies "
                 "before the registry (see worklist.hh attachStats "
                 "for the pattern)"
                 % (name, ".".join(chain), name)))
    return findings
