"""C1 `coro-suspend-safety`: no dangling references across co_await.

A CoTask coroutine's locals live in the frame and survive
suspension, but anything they *point into* does not have to: while
the coroutine is suspended, any other threadlet can run and mutate
the world. The PR 4 engine-teardown UAF and the PR 6 stranded-slot
bug are both this shape one level removed — state cached before a
suspension, invalid after it. Four concrete hazards are checked,
all inside bodies that both mention CoTask in their header and
contain a suspension keyword (co_await / co_yield):

 1. *Element references across suspension.* A reference or pointer
    local whose initializer indexes or calls into a container
    (`auto &w = workers_[i]`, `auto &s = q.front()`) that is read
    after a later suspension point in the same brace scope. The
    container can grow, rehash, or pop while suspended. References
    to plain members/objects (`auto &eq = eq_`) are exempt — the
    object identity is stable even if its value changes — and so
    are smart-pointer peeks (`tl = machine().timeline.get()`): the
    pointer is a copy and the owner is not an element that moves.

 2. *Reference parameters across suspension.* A by-reference
    parameter read after the first suspension point refers to
    caller-owned storage that outlives the caller's frame only if
    the caller awaits the task to completion — a detached or
    re-owned task reads freed stack. Two discharges: machine-
    lifetime service types (SimContext/ThreadletCtx/EventQueue/
    Machine/*Sink/...) are exempt because their referents live as
    long as the simulation; and — whole-program, via the
    ProjectModel — the finding is discharged when every visible
    call site of the coroutine in the scan directly `co_await`s it
    (the worklist pop/fill out-param API: the caller's frame
    provably outlives the callee). A coroutine handed to
    adoptThreadlet() has a non-awaited call site, so detached
    workers keep the check.

 3. *By-reference lambda captures that escape.* A `[&...]` lambda
    assigned to a local used after a later suspension, handed to a
    scheduling/container sink, or stored into a member outlives the
    locals it captured the moment the frame suspends and dies.

 4. *Stack-local addresses into non-awaited coroutines.* Passing
    `&local` to a CoTask-returning callee (resolved through the
    project call graph) without immediately co_await-ing the result
    detaches a coroutine holding a pointer into this frame.

Suppress knowingly-safe instances (fixed-size containers sized at
construction, node-stable maps) with
`// LINT-OK(coro-suspend-safety): reason`.
"""

from ..scan import match_paren, split_args

RULE_ID = "coro-suspend-safety"

DOC = ("references/pointers into containers, by-ref params and "
       "by-ref lambda captures must not be read across co_await "
       "in CoTask bodies")

# Parameter types whose referents are machine-lifetime: reading them
# after a suspension is the normal idiom, not a hazard. The second
# set is the executor-shared aggregates every detached worker
# coroutine borrows (the executor joins its workers before tearing
# these down); `*Sink`, `*Ctx` and `*Context` suffixes are exempted
# structurally in _ref_params.
_STABLE_PARAM_TYPES = {
    "EventQueue", "Machine", "Worklist", "App", "MinnowEngine",
    "StatsRegistry", "Graph", "Ckpt", "MemorySystem", "Timeline",
    "BspShared", "WorklistRunStats",
}

# Call sinks through which a by-ref lambda escapes the frame.
_LAMBDA_SINKS = {
    "schedule", "scheduleCompact", "push_back", "emplace_back",
    "adoptThreadlet", "addCkptHook", "setHook", "defer",
}


def _suspend_points(body):
    return [i for i, t in enumerate(body)
            if t.kind == "id" and t.text in ("co_await", "co_yield")]


def _scope_end(body, i):
    """Index just past the enclosing brace scope of body[i] (end of
    body if the declaration sits at coroutine top level)."""
    depth = 0
    n = len(body)
    j = i
    while j < n:
        t = body[j]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth < 0:
                    return j
        j += 1
    return n


def _stmt_end(body, i):
    """Index of the ';' ending the statement at body[i] (skipping
    nested parens/braces)."""
    n = len(body)
    j = i
    while j < n:
        t = body[j]
        if t.kind == "punct":
            if t.text == "(":
                j = match_paren(body, j)
                continue
            if t.text == "{":
                depth = 0
                while j < n:
                    if body[j].kind == "punct":
                        if body[j].text == "{":
                            depth += 1
                        elif body[j].text == "}":
                            depth -= 1
                            if depth == 0:
                                break
                    j += 1
                j += 1
                continue
            if t.text == ";":
                return j
        j += 1
    return n


def _used_after(body, name, start, end):
    return any(body[k].kind == "id" and body[k].text == name
               for k in range(start, min(end, len(body))))


def _ref_local_decls(body):
    """[(index_of_name, name, init_tokens, semi_index)] for
    reference/pointer local declarations `... &name = init;`."""
    out = []
    n = len(body)
    for i in range(1, n - 2):
        t = body[i]
        if not (t.kind == "punct" and t.text in ("&", "*")):
            continue
        prev = body[i - 1]
        if not (prev.kind == "id" or
                (prev.kind == "punct" and prev.text == ">")):
            continue  # not a declarator position
        if not (body[i + 1].kind == "id" and
                body[i + 2].kind == "punct" and
                body[i + 2].text == "="):
            continue
        name = body[i + 1].text
        semi = _stmt_end(body, i + 3)
        out.append((i + 1, name, body[i + 3:semi], semi))
    return out


def _param_list(header):
    """Parameter token sublists from a function header."""
    n = len(header)
    i = 0
    paren = None
    while i < n:
        t = header[i]
        if t.kind == "punct" and t.text == "(":
            paren = i
            break
        i += 1
    if paren is None:
        return []
    args, _close = split_args(header, paren)
    return args


def _ref_params(header):
    """[(name, line)] for non-exempt by-reference parameters."""
    out = []
    for arg in _param_list(header):
        has_ref = any(t.kind == "punct" and t.text in ("&", "&&")
                      for t in arg)
        if not has_ref:
            continue
        ids = [t for t in arg if t.kind == "id"]
        if not ids:
            continue
        name_tok = ids[-1]
        type_ids = {t.text for t in ids[:-1]}
        if any(x in _STABLE_PARAM_TYPES or x.endswith("Ctx") or
               x.endswith("Context") or x.endswith("Sink")
               for x in type_ids):
            continue
        out.append((name_tok.text, name_tok.line))
    return out


def _callers_all_await(project, fi):
    """True when the scan sees at least one call site of `fi` and
    every one of them is directly co_await-ed (walking back over the
    receiver chain). The caller's frame then provably outlives the
    coroutine, so its by-ref params cannot dangle. Conservative by
    name: any same-named call anywhere (another overload, a
    same-named container op) that is not awaited keeps the finding."""
    seen_any = False
    for g in project.functions.values():
        body = g.method.body
        n = len(body)
        for i, t in enumerate(body):
            if not (t.kind == "id" and t.text == fi.name and
                    i + 1 < n and body[i + 1].kind == "punct" and
                    body[i + 1].text == "("):
                continue
            if i > 0 and body[i - 1].kind == "punct" and \
                    body[i - 1].text == "&":
                continue  # member-pointer mention, not a call
            seen_any = True
            k = i - 1
            while k > 0 and body[k].kind == "punct" and \
                    body[k].text in (".", "->", "::") and \
                    body[k - 1].kind == "id":
                k -= 2
            if not (k >= 0 and body[k].kind == "id" and
                    body[k].text == "co_await"):
                return False
    return seen_any


def _enclosing_call(body, i):
    """Base name of the innermost call whose argument list contains
    body[i], or None."""
    depth = 0
    j = i - 1
    while j >= 0:
        t = body[j]
        if t.kind == "punct":
            if t.text == ")":
                depth += 1
            elif t.text == "(":
                if depth == 0:
                    if j > 0 and body[j - 1].kind == "id":
                        return body[j - 1].text
                    return None
                depth -= 1
        j -= 1
    return None


def _lambda_regions(body):
    """[(open_bracket, close_bracket, by_ref)] for lambda capture
    lists: a '[' not preceded by a postfix expression."""
    out = []
    n = len(body)
    for i, t in enumerate(body):
        if not (t.kind == "punct" and t.text == "["):
            continue
        if i > 0:
            p = body[i - 1]
            if p.kind in ("id", "num") or \
                    (p.kind == "punct" and p.text in (")", "]")):
                continue  # subscript, not a capture list
        depth = 0
        j = i
        while j < n:
            if body[j].kind == "punct":
                if body[j].text == "[":
                    depth += 1
                elif body[j].text == "]":
                    depth -= 1
                    if depth == 0:
                        break
            j += 1
        if j >= n or j + 1 >= n:
            continue
        nxt = body[j + 1]
        if not (nxt.kind == "punct" and nxt.text in ("(", "{")):
            continue  # attribute or array bound, not a lambda
        by_ref = any(x.kind == "punct" and x.text == "&"
                     for x in body[i + 1:j])
        out.append((i, j, by_ref))
    return out


def _check_body(project, fi, findings):
    body = fi.method.body
    suspends = _suspend_points(body)
    if not suspends:
        return
    first_suspend = suspends[0]

    # 1. element references / pointers read across suspension.
    for name_ix, name, init, semi in _ref_local_decls(body):
        if not any(t.kind == "punct" and t.text in ("[", "(")
                   for t in init):
            continue  # plain member/object reference: stable
        if len(init) >= 3 and init[-1].text == ")" and \
                init[-2].text == "(" and \
                init[-3].kind == "id" and init[-3].text == "get" and \
                not any(t.kind == "punct" and t.text == "["
                        for t in init):
            continue  # smart-pointer .get() peek: pointer is a copy
                      # and the owner is not a moving element
        scope = _scope_end(body, name_ix)
        for s in suspends:
            if semi < s < scope and \
                    _used_after(body, name, s + 1, scope):
                findings.append(
                    (fi.path, body[name_ix].line, RULE_ID,
                     "'%s' in coroutine '%s' refers into a "
                     "container/call result and is read after a "
                     "co_await (line %d); the referent can move or "
                     "die while suspended — re-fetch it after the "
                     "await or take a copy" %
                     (name, fi.qual, body[s].line)))
                break

    # 2. by-reference parameters read after the first suspension —
    # unless every visible call site co_awaits this coroutine, in
    # which case the caller's frame provably outlives it.
    ref_params = [
        (pname, pline)
        for pname, pline in _ref_params(fi.method.header)
        if _used_after(body, pname, first_suspend + 1, len(body))]
    if ref_params and not _callers_all_await(project, fi):
        for pname, pline in ref_params:
            findings.append(
                (fi.path, pline, RULE_ID,
                 "by-reference parameter '%s' of coroutine '%s' is "
                 "read after a suspension point; it dangles unless "
                 "every caller co_awaits the task to completion — "
                 "pass by value or justify with a LINT-OK" %
                 (pname, fi.qual)))

    # 3. by-ref lambda captures that escape the frame.
    for open_b, close_b, by_ref in _lambda_regions(body):
        if not by_ref:
            continue
        line = body[open_b].line
        # Stored into a variable or member: `x = [&]...`.
        if open_b >= 2 and body[open_b - 1].kind == "punct" and \
                body[open_b - 1].text == "=" and \
                body[open_b - 2].kind == "id":
            target = body[open_b - 2].text
            scope = _scope_end(body, open_b)
            is_member = target.endswith("_")
            later = [s for s in suspends if s > close_b]
            if is_member or (later and _used_after(
                    body, target, later[0] + 1, scope)):
                findings.append(
                    (fi.path, line, RULE_ID,
                     "by-reference lambda stored in '%s' inside "
                     "coroutine '%s' outlives a suspension point; "
                     "its captures dangle once the frame suspends "
                     "— capture by value" % (target, fi.qual)))
            continue
        sink = _enclosing_call(body, open_b)
        if sink in _LAMBDA_SINKS:
            findings.append(
                (fi.path, line, RULE_ID,
                 "by-reference lambda passed to '%s' from "
                 "coroutine '%s' escapes the frame; captured "
                 "locals dangle at the next suspension — capture "
                 "by value" % (sink, fi.qual)))

    # 4. &local passed into a CoTask call that is not co_awaited.
    for name, cline in project.functions[fi.key].call_sites:
        targets = project.funcs_named(name)
        if not targets or not all(t.returns_cotask for t in targets):
            continue
        for i, t in enumerate(body):
            if not (t.kind == "id" and t.text == name and
                    t.line == cline and i + 1 < len(body) and
                    body[i + 1].kind == "punct" and
                    body[i + 1].text == "("):
                continue
            # Walk back over any receiver chain, then look for
            # co_await directly awaiting this call.
            k = i - 1
            while k > 0 and body[k].kind == "punct" and \
                    body[k].text in (".", "->", "::") and \
                    body[k - 1].kind == "id":
                k -= 2
            awaited = k >= 0 and body[k].kind == "id" and \
                body[k].text == "co_await"
            if awaited:
                continue
            args, _close = split_args(body, i + 1)
            for arg in args:
                if len(arg) >= 2 and arg[0].kind == "punct" and \
                        arg[0].text == "&" and arg[1].kind == "id":
                    findings.append(
                        (fi.path, t.line, RULE_ID,
                         "'&%s' (a frame local of coroutine '%s') "
                         "is passed to CoTask '%s' without "
                         "co_await; the detached coroutine keeps a "
                         "pointer into this frame" %
                         (arg[1].text, fi.qual, name)))
                    break


def check_project(project):
    findings = []
    for fi in project.functions.values():
        if fi.returns_cotask and fi.is_coroutine:
            _check_body(project, fi, findings)
    return findings
