"""S1 `serializer-coverage`: checkpointed classes must cover members.

A class that defines a `checkpoint(ckpt::Ckpt &) const` visitor
promises that its complete value state is in the checkpoint. Saves
go one way: nothing reads a checkpoint back; two runs that save at
the same anchor are compared byte for byte, so each section is a
witness. The failure mode this rule targets is silent
drift: a later change adds a data member and forgets the visitor,
and a member the witness omits lets a divergence in it go unseen,
unless it happens to change some other serialized state downstream.

Rule: for every class C that defines a method named `checkpoint`,
every non-static data member of C must be *named* inside some
checkpoint method body of C — either as an identifier token (an
`ck.io(member_)` call or any other use) or as a word inside a string
literal (the `ck.transient("a_ b_ c_")` declaration for members that
are deliberately not serialized: host pointers, derived caches,
coroutine handles).

Members that must not be serialized still must be *declared*, so a
reviewer can see the decision and this rule can prove coverage.
False positives (e.g. a member consumed via a helper the rule cannot
see) can be waived per line with `// LINT-OK(serializer-coverage):
reason`.
"""

import re

RULE_ID = "serializer-coverage"

DOC = ("every non-static data member of a class defining a "
       "checkpoint() visitor must be serialized or declared "
       "ck.transient(...)")

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _merge_classes(unit):
    """name -> {'members': [(path, Member)], 'methods':
    [(path, Method)]} merged across the unit's files (foo.hh +
    foo.cc), so out-of-line checkpoint definitions see the header's
    member list."""
    classes = {}

    def cls_entry(name):
        return classes.setdefault(name, {"members": [], "methods": []})

    for model in unit:
        for cls in model.classes:
            e = cls_entry(cls.name)
            e["members"].extend((model.path, m) for m in cls.members)
            e["methods"].extend((model.path, m) for m in cls.methods)
        for fn in model.functions:
            if fn.cls:
                cls_entry(fn.cls)["methods"].append((model.path, fn))
    return classes


def _covered_names(ckpt_methods):
    """Every identifier token in a checkpoint body, plus every
    identifier-shaped word inside its string literals (the
    transient("a_ b_") form)."""
    covered = set()
    for _path, m in ckpt_methods:
        for t in m.body:
            if t.kind == "id":
                covered.add(t.text)
            elif t.kind == "str":
                covered.update(_WORD.findall(t.text))
    return covered


def check(unit):
    findings = []
    for name, entry in _merge_classes(unit).items():
        ckpt_methods = [
            (path, m) for path, m in entry["methods"]
            if m.name.split("::")[-1] == "checkpoint"
        ]
        if not ckpt_methods:
            continue
        covered = _covered_names(ckpt_methods)
        for path, mem in entry["members"]:
            if any(t.kind == "id" and t.text == "static"
                   for t in mem.type_tokens):
                continue
            # `struct Foo;` nested forward declarations parse as a
            # member whose "type" is the class-key (plus the name
            # itself) — not data.
            rest = [t.text for t in mem.type_tokens
                    if t.text not in ("struct", "class", "enum")]
            if any(t.text in ("struct", "class", "enum")
                   for t in mem.type_tokens) and \
                    rest in ([], [mem.name]):
                continue
            if mem.name in covered:
                continue
            findings.append(
                (path, mem.line, RULE_ID,
                 "'%s::%s' is not serialized by checkpoint() nor "
                 "declared ck.transient(\"%s\"); the checkpoint "
                 "witness would not see it diverge"
                 % (name, mem.name, mem.name)))
    return findings
