"""D2 `unordered-export`: no unordered iteration in export paths.

Stats JSON, timeline export, and diagnostic dumps are diffed
byte-for-byte across runs (check_stats_json.py, check_trace_json.py,
check_equivalence.py). Iterating a std::unordered_map/set while
producing them leaks hash-table order — which is stable for a fixed
libstdc++ *today* but is salted or layout-dependent on other
standard libraries and changes with load factor — into those
artifacts.

Operational definition (documented in DESIGN.md 5g): inside any
function whose name marks it as an export path (it contains "json",
"dump", "export", "diag", "flatten", or "summary", or is named
writeFile/report/recordSample/toString), iterating a variable whose
declared type is an unordered container is a finding unless the
same function also calls std::sort/stable_sort — the canonical
conforming shape collects the keys and sorts them before emitting,
and a token-level pass cannot prove which container the sort fixed,
so any sort in the function is taken as the author handling
ordering — or the loop carries `// LINT-OK(unordered-export):
reason`.
"""

import re

from ..scan import type_mentions

RULE_ID = "unordered-export"

DOC = ("flags iteration over unordered containers inside JSON/dump/"
       "export functions")

_EXPORT_NAME = re.compile(
    r"json|dump|export|diag|flatten|summary", re.IGNORECASE)
_EXPORT_EXACT = {"writeFile", "report", "recordSample", "toString"}

_UNORDERED = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
}


def _is_export_function(name):
    base = name.split("::")[-1]
    return bool(_EXPORT_NAME.search(base)) or base in _EXPORT_EXACT


def _unordered_names(unit):
    """Map variable name -> declaration line for every member or
    local whose type mentions an unordered container, plus local
    declarations found by direct scan of function bodies."""
    names = {}
    for model in unit:
        for cls in model.classes:
            for m in cls.members:
                if type_mentions(m.type_tokens, _UNORDERED):
                    names[m.name] = m.line
        # Local declarations: `unordered_map<...> name` — find the
        # identifier following the closing '>' of the template args.
        for fn in _iter_functions(model):
            toks = fn.body
            for i, t in enumerate(toks):
                if t.kind == "id" and t.text in _UNORDERED and \
                        i + 1 < len(toks) and \
                        toks[i + 1].text == "<":
                    j = i + 1
                    depth = 0
                    while j < len(toks):
                        if toks[j].kind == "punct":
                            if toks[j].text == "<":
                                depth += 1
                            elif toks[j].text == ">":
                                depth -= 1
                                if depth == 0:
                                    break
                        j += 1
                    k = j + 1
                    # Skip refs and cv-qualifiers.
                    while k < len(toks) and (
                            toks[k].kind == "punct" and
                            toks[k].text in ("&", "*") or
                            toks[k].kind == "id" and
                            toks[k].text == "const"):
                        k += 1
                    if k < len(toks) and toks[k].kind == "id":
                        names[toks[k].text] = toks[k].line
    return names


def _iter_functions(model):
    for fn in model.functions:
        yield fn
    for cls in model.classes:
        for fn in cls.methods:
            yield fn


def _range_for_exprs(toks):
    """Yield (line, expr_tokens) for every range-for in the body."""
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text == "for" and i + 1 < n and \
                toks[i + 1].text == "(":
            depth = 0
            colon = None
            j = i + 1
            while j < n:
                u = toks[j]
                if u.kind == "punct":
                    if u.text == "(":
                        depth += 1
                    elif u.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif u.text == ":" and depth == 1 and \
                            colon is None:
                        colon = j
                j += 1
            if colon is not None:
                yield toks[i].line, toks[colon + 1:j]
            i = j
            continue
        i += 1


def check(unit):
    findings = []
    unordered = _unordered_names(unit)
    if not unordered:
        return findings
    for model in unit:
        for fn in _iter_functions(model):
            if not _is_export_function(fn.name):
                continue
            body = fn.body
            if _has_sort_call(body):
                continue
            # Range-for over an unordered variable.
            for line, expr in _range_for_exprs(body):
                for t in expr:
                    if t.kind == "id" and t.text in unordered:
                        findings.append(
                            (model.path, line, RULE_ID,
                             "export function '%s' iterates "
                             "unordered container '%s' (declared "
                             "line %d); sort the keys first or "
                             "explain with LINT-OK(unordered-"
                             "export)" % (fn.name, t.text,
                                          unordered[t.text])))
                        break
            # Iterator-style loops: name.begin() / name->begin().
            for i, t in enumerate(body):
                if t.kind == "id" and t.text == "begin" and i >= 2 \
                        and body[i - 1].kind == "punct" and \
                        body[i - 1].text in (".", "->") and \
                        body[i - 2].kind == "id" and \
                        body[i - 2].text in unordered:
                    findings.append(
                        (model.path, t.line, RULE_ID,
                         "export function '%s' walks unordered "
                         "container '%s' via iterators; sort the "
                         "keys first or explain with "
                         "LINT-OK(unordered-export)"
                         % (fn.name, body[i - 2].text)))
    return findings


def _has_sort_call(body):
    """Does this body call sort/stable_sort? Evidence the author
    fixed an emission order (see the module docstring for why this
    is function-granular)."""
    return any(t.kind == "id" and t.text in ("sort", "stable_sort")
               and i + 1 < len(body) and body[i + 1].text == "("
               for i, t in enumerate(body))
