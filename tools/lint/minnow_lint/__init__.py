"""minnow-lint: in-tree static analysis for the Minnow simulator.

A libclang-free analyzer enforcing the project's determinism,
lifetime, instrumentation, and architecture invariants (see DESIGN.md
sections 5g and 5l). It is built from a real C++ tokenizer
(tools/lint/minnow_lint/tokenizer.py), a lightweight structural model
(cpp_model.py) that per-rule visitors walk, and a whole-program
ProjectModel (project.py) — call graph, include graph, layer DAG —
that whole-program rules query; it is deliberately *not* a pile of
regexes over raw text, so string literals, comments, and nested class
bodies cannot confuse the rules.

Rules (stable identifiers, used in LINT-OK suppressions):

  determinism        D1: no wall-clock / ambient-entropy / pointer-
                     keyed-ordered-container use in src/.
  unordered-export   D2: no iteration over unordered containers in
                     functions that export JSON / dumps.
  coroutine-order    L1: timeline/stat bookkeeping members must be
                     declared before coroutine containers.
  stats-lifetime     L2: external StatsRegistry group registrations
                     need a removeGroup reachable from the dtor
                     (whole-program: follows helper chains).
  daemon-accounting  E1: self-rearming EventQueue events must use the
                     daemon accounting API, never empty()
                     (whole-program: re-arms N helpers deep count).
  trace-format       T1: DPRINTF/logging format strings must match
                     their argument counts.
  serializer-coverage S1: every member of a checkpointed class must
                     be serialized or declared transient.
  host-threading     P1: std::thread/mutex/atomic and other host
                     concurrency primitives only inside the
                     --host-par point farm (sim/parallel/task_farm).
  coro-suspend-safety C1: no reference/pointer into a stack frame,
                     by-ref parameter, or by-ref lambda capture used
                     across a co_await suspension in CoTask bodies.
  determinism-taint  D3: values derived from hostNowNs()/D1 entropy
                     sources must not flow (<= 3 call-graph hops)
                     into schedule times, stats, checkpointed
                     members, or RNG seeds.
  layer-dag          A1: src/ includes must respect the layer DAG in
                     tools/lint/layers.toml; backward edges and
                     include cycles are findings.

Meta findings: stale-suppression (a LINT-OK that suppressed nothing)
and bad-suppression (unknown rule or missing reason).
"""

__version__ = "2.0"

SCHEMA = "minnow-lint-2"
