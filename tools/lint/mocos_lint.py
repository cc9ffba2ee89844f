#!/usr/bin/env python3
"""mocos_lint — contract-enforcement static analysis for the mocos tree.

Dependency-free (Python 3 stdlib only), token/regex based. Turns the
project's implicit contracts into machine-checked rules:

Determinism contract (PR 2): results must be bit-identical for any --jobs
count. Enforced in `src/runtime/`, `src/sim/`, `src/descent/`, `src/multi/`,
and `src/markov/resolvent.*` (the chain solve every descent probe runs):

  det-rng        rand()/srand()/std::random_device — ambient entropy breaks
                 replay; draw from util::Rng::stream(i) indexed streams.
  det-time       time()/clock()/system_clock/steady_clock/... — wall-clock
                 reads make results depend on when/where the run happened.
  det-unordered  iteration over std::unordered_{map,set} — bucket order is
                 implementation-defined, so any fold over it is
                 scheduling/libstdc++-dependent. Reduce over indexed vectors.
  det-socket     raw POSIX socket/poll call — network arrival order is
                 scheduling the contract cannot see; the serve telemetry
                 endpoint (src/serve/telemetry_http.cpp, DESIGN.md §15) is
                 the one sanctioned site and carries per-line allows. The
                 rule matches ::-qualified spellings plus the names that
                 cannot collide with project identifiers (socket, sendto,
                 recvfrom, setsockopt, getsockname, listen), so
                 ServerImpl::accept and std::bind stay clean.

Numerical-safety contract (PR 1): descent/recovery code must route linear
algebra through the guarded Try* layer so the recovery ladder can see
failures:

  raw-solver     throwing solver entry points (lu_factor, stationary_-
                 distribution, fundamental_matrix, group_inverse,
                 first_passage_times, analyze_chain) called in
                 `src/descent/` or `src/markov/resolvent.*` outside the
                 Try* layer.
  float-eq       exact ==/!= against a floating-point literal anywhere in
                 src/. Either convert to a tolerance check or annotate the
                 intentional exact comparison with a suppression + reason.

Error-handling contract:

  task-throw     `throw` inside a lambda handed directly to
                 ThreadPool::submit — the pool is a dumb executor; an
                 escaping exception terminates the process. Use TaskGroup
                 (which captures per-index) or catch internally.
  discarded-status
                 a try_*/check_* call used as a bare statement — the
                 Status/StatusOr result is the whole point; dropping it
                 hides exactly the failures the recovery ladder exists for.

Observability contract (PR 5): src/obs/ is the only module allowed to read
a wall clock (the trace sink stamps spans; timestamps never reach reports
or metric values):

  obs-only-clock wall-clock read in src/ outside both src/obs/ and the
                 determinism scope. Inside the determinism scope the
                 stricter det-time rule already fires; inside src/obs/
                 clock reads are still det-time violations so each site
                 carries an explicit allow() justification.

Layering contract (PR 8): modules under src/ form a DAG (DESIGN.md §13
holds the normative table; MODULE_DEPS below mirrors it). One documented
mutually-visible pair is the only sanctioned back-edge: the {util, obs}
foundation (locks need annotations, fault injection needs metrics).
File-level cycles are banned everywhere, including inside that pair:

  layer-violation  a `#include "src/..."` edge the module DAG does not
                   permit. Fires at the include line, whether or not the
                   target file exists. A module with no row in the table
                   may include no other module.
  layer-cycle      file-level strongly-connected include component. Every
                   include edge inside the cycle is reported.

Locking contract (PR 8): all synchronization goes through the annotated
util::Mutex wrappers so Clang -Wthread-safety sees every acquisition:

  lock-raw-mutex       std::mutex / condition_variable / lock_guard /
                       unique_lock / ... outside src/util/mutex.hpp. The
                       libstdc++ types carry no capability attributes, so
                       the analysis is blind to them.
  lock-raw-call        manual .lock()/.unlock()/.try_lock() call — scope
                       exits and exceptions skip the unlock; use RAII
                       util::MutexLock.
  lock-across-parallel a lock guard held at a parallel_for call site. The
                       pool may run tasks inline on the calling thread;
                       a task that takes the same lock self-deadlocks.

Baselines (ratchet mechanism): --baseline FILE suppresses up to the
recorded count of findings per (path, rule), so CI fails only on NEW
findings; entries that over-count what still fires are reported as
baseline-expiry so the file ratchets down and cannot mask regressions.
Regenerate with --write-baseline FILE.

Suppressions (the allowlist mechanism):

  x == 0.0;  // mocos-lint: allow(float-eq) exact sentinel from line_search
  // mocos-lint: allow(det-time) coarse progress timestamp, not in results
  next_line_with_violation();

A same-line comment suppresses the named rules on that line; a line whose
only content is the comment suppresses them on the next line. Unknown rule
names in a suppression are themselves reported (bad-suppression) so typos
cannot silently disable a gate.

Usage:
  mocos_lint.py [--root DIR] [--json] [--list-rules]
                [--baseline FILE | --write-baseline FILE] [paths ...]

Paths default to `<root>/src`. Exit status: 0 clean, 1 violations found,
2 usage error.
"""

import argparse
import json
import os
import re
import sys

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# Directories (relative to --root, POSIX separators) under the determinism
# contract: anything here runs, or is reachable from, indexed parallel work.
# The resolvent solve is on the list because every descent probe flows
# through it: nondeterministic iteration there would break the
# jobs-invariance guarantee end to end. src/obs/ is on the list because its
# metric values must be jobs-invariant too — its single sanctioned clock
# site (the trace sink epoch) carries an explicit det-time suppression.
# src/serve/ is on the list because replayed request logs must be
# byte-identical at any --jobs count; its deadline/watchdog clock sites
# carry explicit det-time suppressions (server.cpp documents why timing
# may steer *scheduling* there but never response bytes).
# src/sparse/ is on the list because every descent probe on a sparse route
# runs the resolvent ladder, so it is held to the same
# bit-identical-for-any---jobs contract as the dense pipeline.
DETERMINISM_SCOPE = ("src/runtime/", "src/sim/", "src/descent/", "src/multi/",
                     "src/markov/resolvent", "src/obs/", "src/serve/",
                     "src/sparse/")

# Descent + recovery code must use the guarded Try* solver layer. The
# resolvent solve sits on the descent hot path and owns the fallback from
# the sparse ladder to the dense factorization, so its internals are held to
# the same try_*-only contract. The serve layer's failure-isolation
# promise (a numerical fault costs one structured error response, never the
# process) only holds if it, too, never touches an unguarded solver. The
# sparse ladder exists to *fall back* on numerical failure
# (banded → BiCGSTAB → dense), which is only possible when every rung
# reports through Status instead of throwing.
RAW_SOLVER_SCOPE = ("src/descent/", "src/markov/resolvent", "src/serve/",
                    "src/sparse/")

# Normative module layer DAG (mirrored in DESIGN.md §13): module -> the set
# of modules its files may `#include "src/<module>/..."` from. Self-edges
# are always allowed and not listed. One mutually-visible pair is
# deliberate: {util, obs} (util's lock wrappers are what obs locks with;
# util's fault injection reports through obs metrics). Mutual *module*
# visibility never licenses a file-level include cycle — layer-cycle checks
# those separately.
MODULE_DEPS = {
    "util": {"obs"},
    "obs": {"util"},
    "linalg": {"util"},
    "geometry": {"util"},
    "runtime": {"obs", "util"},
    "sensing": {"geometry", "linalg", "util"},
    "sparse": {"linalg", "util"},
    "markov": {"linalg", "obs", "sparse", "util"},
    "cost": {"linalg", "markov", "obs", "sensing", "util"},
    "descent": {"cost", "linalg", "markov", "obs", "runtime", "util"},
    "sim": {"markov", "runtime", "sensing", "util"},
    "core": {"cost", "descent", "geometry", "markov", "runtime", "sensing",
             "util"},
    "multi": {"core", "cost", "markov", "runtime", "sensing", "util"},
    "baselines": {"markov", "sensing", "util"},
    "cli": {"core", "geometry", "markov", "obs", "runtime", "sensing", "sim",
            "util"},
    "serve": {"cli", "core", "markov", "obs", "runtime", "util"},
}

# The one file allowed to spell raw std synchronization primitives: the
# annotated wrappers themselves.
LOCK_WRAPPER_FILE = "src/util/mutex.hpp"

RULES = {
    "det-rng": "ambient randomness breaks the jobs-invariance determinism "
               "contract; use util::Rng::stream(index)",
    "det-time": "wall-clock reads make results depend on when the run "
                "happened; thread timestamps in explicitly",
    "det-unordered": "unordered-container iteration order is implementation-"
                     "defined; iterate an indexed/sorted sequence instead",
    "det-socket": "raw socket/poll call in the determinism scope; network "
                  "timing must never steer results — the telemetry endpoint "
                  "is the only sanctioned site (suppress with a "
                  "justification there)",
    "raw-solver": "throwing solver entry point in descent/recovery code; "
                  "call the try_* variant so the recovery ladder can branch "
                  "on the failure",
    "float-eq": "exact floating-point equality; use a tolerance check or "
                "suppress with a one-line justification",
    "task-throw": "throw inside a ThreadPool::submit task escapes the pool "
                  "and terminates the process; use TaskGroup or catch "
                  "internally",
    "discarded-status": "Status/StatusOr result of a guarded call is "
                        "discarded; check it or bind it",
    "obs-only-clock": "wall-clock read outside src/obs/; the trace sink is "
                      "the only sanctioned clock site — record timing as a "
                      "span/instant through src/obs/trace.hpp",
    "layer-violation": "include edge not permitted by the module layer DAG "
                       "(MODULE_DEPS / DESIGN.md §13); depend downward or "
                       "move the shared piece to a lower layer",
    "layer-cycle": "file-level include cycle; break it with a forward "
                   "declaration or by extracting the shared interface",
    "lock-raw-mutex": "raw std synchronization primitive; use util::Mutex / "
                      "util::MutexLock / util::CondVar so Clang "
                      "-Wthread-safety sees the acquisition",
    "lock-raw-call": "manual lock()/unlock() call escapes RAII and the "
                     "thread-safety analysis; use util::MutexLock",
    "lock-across-parallel": "lock guard held across parallel_for; inline "
                            "task execution on the calling thread "
                            "self-deadlocks if a task takes the same lock",
    "baseline-expiry": "baseline entry over-counts what still fires; "
                       "regenerate the baseline with --write-baseline",
    "bad-suppression": "suppression names an unknown rule id",
}

RE_DET_RNG = re.compile(r"\b(?:s?rand\s*\(|random_device\b)")
RE_DET_TIME = re.compile(
    r"\b(?:time\s*\(|clock\s*\(|system_clock\b|steady_clock\b|"
    r"high_resolution_clock\b)")
RE_UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;=]*>\s+(\w+)")
RE_UNORDERED_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*(\w+)\s*\)")
RE_UNORDERED_INLINE = re.compile(
    r"\bfor\s*\([^;)]*unordered_(?:map|set|multimap|multiset)\b")
RE_UNORDERED_BEGIN = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")
# Two alternatives: (a) ::-qualified POSIX socket calls (how the tree spells
# them), excluding std:: so std::bind / std::accumulate-style names never
# match; (b) unqualified calls of the names no project identifier collides
# with. Deliberately NOT matched unqualified: bind (std::bind), accept
# (ServerImpl::accept), send/recv/poll/select/connect/shutdown (too generic).
RE_DET_SOCKET = re.compile(
    r"(?<!std)::\s*(?:socket|bind|listen|accept|connect|send|sendto|recv|"
    r"recvfrom|poll|select|shutdown|setsockopt|getsockname)\s*\("
    r"|(?<![\w.:>])(?:socket|sendto|recvfrom|setsockopt|getsockname|listen)"
    r"\s*\(")
RE_RAW_SOLVER = re.compile(
    r"\b(lu_factor|stationary_distribution|fundamental_matrix|"
    r"group_inverse|first_passage_times|analyze_chain)\s*\(")
RE_FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?[fFlL]?"
RE_FLOAT_EQ = re.compile(
    r"(?:(?:==|!=)\s*" + RE_FLOAT_LITERAL + r"(?![\w.])"
    r"|" + RE_FLOAT_LITERAL + r"\s*(?:==|!=))")
RE_DISCARDED = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:::|\.|->))*((?:try_|check_)\w+)\s*\(")
RE_SUBMIT_CALL = re.compile(r"\bsubmit\s*\(")
RE_THROW = re.compile(r"\bthrow\b")
RE_SUPPRESSION = re.compile(r"mocos-lint:\s*allow\(([^)]*)\)")
RE_PROJECT_INCLUDE = re.compile(r'^\s*#\s*include\s*"(src/[^"]+)"')
RE_MODULE = re.compile(r"^src/([^/]+)/")
RE_LOCK_TYPE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_|"
    r"shared_timed_)?mutex\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
    r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RE_LOCK_CALL = re.compile(r"(?:\.|->)\s*(?:try_)?(?:lock|unlock)\s*\(")
RE_GUARD_DECL = re.compile(
    r"\b(?:util\s*::\s*)?MutexLock\s+\w+\s*[({]"
    r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RE_PARALLEL_FOR = re.compile(r"\bparallel_for\s*(?:<[^>]*>\s*)?\(")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(?:\\.|[^"\\])*"')
RE_CHAR = re.compile(r"'(?:\\.|[^'\\])'")

# A line whose code ends with one of these is an unfinished statement; the
# next line is a continuation, not a statement start (guards discarded-status
# against multi-line assignments like `Status s =\n    check_finite(...)`).
CONTINUATION_TAIL = re.compile(r"(?:[=(,+\-*/%&|!<>?:]|\breturn|\bco_return)$")


class Violation:
    def __init__(self, path, line, rule, detail=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def message(self):
        base = RULES.get(self.rule, "")
        if self.detail:
            return "%s (%s)" % (base, self.detail)
        return base


def strip_code(line, in_block_comment):
    """Returns (code, still_in_block_comment): the line with comments and
    string/char literal contents blanked so token rules cannot match inside
    them."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        ch = line[i]
        nxt = line[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            break
        if ch == "/" and nxt == "*":
            in_block_comment = True
            i += 2
            continue
        if ch == '"':
            m = RE_STRING.match(line, i)
            if m:
                out.append('""')
                i = m.end()
                continue
        if ch == "'":
            m = RE_CHAR.match(line, i)
            if m:
                out.append("''")
                i = m.end()
                continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def in_scope(rel_path, scope_dirs):
    return any(rel_path.startswith(d) for d in scope_dirs)


class SubmitTracker:
    """Paren-depth tracker for the argument list of a ThreadPool::submit
    call: any `throw` while the call is open is a task-throw violation."""

    def __init__(self):
        self.depth = 0
        self.active = False

    def feed(self, code, report):
        pos = 0
        while pos < len(code):
            if not self.active:
                m = RE_SUBMIT_CALL.search(code, pos)
                if not m:
                    return
                self.active = True
                self.depth = 1
                pos = m.end()
                continue
            ch = code[pos]
            if ch == "(":
                self.depth += 1
            elif ch == ")":
                self.depth -= 1
                if self.depth == 0:
                    self.active = False
                    pos += 1
                    continue
            elif code.startswith("throw", pos) and \
                    RE_THROW.match(code, pos):
                report(pos)
            pos += 1


class GuardTracker:
    """Brace-depth tracker for live RAII lock guards: a parallel_for call
    while any guard's scope is still open is a lock-across-parallel
    violation. Lexical per file — guards in one function cannot leak into
    the next because their enclosing braces close first."""

    def __init__(self):
        self.depth = 0
        self.guard_depths = []  # brace depth each live guard was declared at

    def feed(self, code, report):
        events = [(m.start(), m.end(), "guard")
                  for m in RE_GUARD_DECL.finditer(code)]
        events += [(m.start(), m.end(), "par")
                   for m in RE_PARALLEL_FOR.finditer(code)]
        events.sort()
        pos = 0
        for start, end, kind in events:
            if start < pos:
                continue
            self._braces(code[pos:start])
            if kind == "par":
                if self.guard_depths:
                    report()
            else:
                self.guard_depths.append(self.depth)
            self._braces(code[start:end])
            pos = end
        self._braces(code[pos:])

    def _braces(self, chunk):
        for ch in chunk:
            if ch == "{":
                self.depth += 1
            elif ch == "}":
                self.depth -= 1
                while self.guard_depths and \
                        self.guard_depths[-1] > self.depth:
                    self.guard_depths.pop()


def module_of(rel_path):
    m = RE_MODULE.match(rel_path)
    return m.group(1) if m else None


def lint_file(abs_path, rel_path, violations, include_edges=None):
    try:
        with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as err:
        print("mocos_lint: cannot read %s: %s" % (abs_path, err),
              file=sys.stderr)
        return

    determinism = in_scope(rel_path, DETERMINISM_SCOPE)
    raw_solver = in_scope(rel_path, RAW_SOLVER_SCOPE)
    # Everything in src/ outside the determinism scope (where det-time
    # already covers clocks) and outside src/obs/ (the sanctioned sink).
    obs_clock = (rel_path.startswith("src/") and not determinism
                 and not rel_path.startswith("src/obs/"))
    # Lock hygiene applies tree-wide under src/ except the wrapper itself.
    lock_rules = (rel_path.startswith("src/")
                  and rel_path != LOCK_WRAPPER_FILE)

    in_block = False
    unordered_vars = set()
    pending_suppression = set()
    prev_code_tail = ""
    tracker = SubmitTracker()
    guards = GuardTracker()

    for lineno, raw in enumerate(raw_lines, start=1):
        code, in_block = strip_code(raw, in_block)

        # Suppressions live in the comment part of the raw line.
        suppressed = set(pending_suppression)
        pending_suppression = set()
        for m in RE_SUPPRESSION.finditer(raw):
            names = {s.strip() for s in m.group(1).split(",") if s.strip()}
            for name in names:
                if name not in RULES or name == "bad-suppression":
                    violations.append(Violation(
                        rel_path, lineno, "bad-suppression",
                        "allow(%s)" % name))
            names &= set(RULES)
            if code.strip():
                suppressed |= names
            else:
                pending_suppression |= names

        def report(rule, detail=""):
            if rule not in suppressed:
                violations.append(Violation(rel_path, lineno, rule, detail))

        stripped = code.strip()

        if determinism:
            if RE_DET_RNG.search(code):
                report("det-rng")
            if RE_DET_TIME.search(code):
                report("det-time")
            if RE_DET_SOCKET.search(code):
                report("det-socket")
            for m in RE_UNORDERED_DECL.finditer(code):
                unordered_vars.add(m.group(1))
            if RE_UNORDERED_INLINE.search(code):
                report("det-unordered")
            else:
                m = RE_UNORDERED_FOR.search(code)
                if m and m.group(1) in unordered_vars:
                    report("det-unordered", "range-for over '%s'" % m.group(1))
                else:
                    m = RE_UNORDERED_BEGIN.search(code)
                    if m and m.group(1) in unordered_vars:
                        report("det-unordered",
                               "'%s.begin()'" % m.group(1))

        if obs_clock and RE_DET_TIME.search(code):
            report("obs-only-clock")

        if raw_solver:
            m = RE_RAW_SOLVER.search(code)
            if m:
                report("raw-solver", "call to '%s'" % m.group(1))

        if RE_FLOAT_EQ.search(code):
            report("float-eq")

        m = RE_DISCARDED.match(code)
        if m and stripped.endswith(";") and \
                not CONTINUATION_TAIL.search(prev_code_tail):
            report("discarded-status", "result of '%s'" % m.group(1))

        # Match against the raw line: strip_code blanks string literals,
        # and the include target is one. `^\s*#` keeps commented-out
        # includes from matching.
        m = RE_PROJECT_INCLUDE.match(raw)
        if m and include_edges is not None:
            include_edges.append((lineno, m.group(1), frozenset(suppressed)))

        if lock_rules:
            if RE_LOCK_TYPE.search(code):
                report("lock-raw-mutex")
            if RE_LOCK_CALL.search(code):
                report("lock-raw-call")
            guards.feed(code, lambda: report("lock-across-parallel"))

        tracker.feed(code, lambda pos: report("task-throw"))

        if stripped:
            prev_code_tail = stripped


def read_include_edges(abs_path):
    """Include edges of a file pulled into the graph only transitively (it
    was not among the scanned paths, so it gets no per-line rule checks)."""
    edges = []
    try:
        with open(abs_path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError:
        return edges
    for lineno, raw in enumerate(raw_lines, start=1):
        m = RE_PROJECT_INCLUDE.match(raw)
        if m:
            edges.append((lineno, m.group(1), frozenset()))
    return edges


def tarjan_sccs(graph):
    """Iterative Tarjan over {node: [successor, ...]}. Returns the list of
    strongly-connected components (each a set of nodes), only those that
    actually contain a cycle (size > 1, or a self-loop)."""
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for start in sorted(graph):
        if start in index_of:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        index_of[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in graph:
                    continue
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph.get(node, ()):
                    sccs.append(scc)
    return sccs


def project_pass(scanned_edges, root, violations):
    """Whole-graph checks over the scanned files' `#include "src/..."`
    edges: module-DAG conformance and file-level cycles. The cycle check
    loads transitively-included files so a cycle is caught even when only
    one of its files was scanned."""
    # layer-violation: every scanned edge must be permitted by MODULE_DEPS.
    for rel in sorted(scanned_edges):
        src_mod = module_of(rel)
        if src_mod is None:
            continue
        for lineno, target, suppressed in scanned_edges[rel]:
            dst_mod = module_of(target)
            if dst_mod is None or dst_mod == src_mod:
                continue
            allowed = MODULE_DEPS.get(src_mod, set())
            if dst_mod not in allowed and \
                    "layer-violation" not in suppressed:
                violations.append(Violation(
                    rel, lineno, "layer-violation",
                    "%s -> %s (includes %s)" % (src_mod, dst_mod, target)))

    # layer-cycle: SCCs over the file graph (scanned plus transitive).
    graph = {rel: [t for _, t, _ in edges]
             for rel, edges in scanned_edges.items()}
    queue = sorted({t for succs in graph.values() for t in succs})
    while queue:
        target = queue.pop()
        if target in graph:
            continue
        edges = read_include_edges(os.path.join(root, target))
        graph[target] = [t for _, t, _ in edges]
        queue.extend(t for t in graph[target] if t not in graph)

    for scc in tarjan_sccs(graph):
        for rel in sorted(scc & set(scanned_edges)):
            for lineno, target, suppressed in scanned_edges[rel]:
                if target in scc and \
                        (target != rel or len(scc) == 1) and \
                        "layer-cycle" not in suppressed:
                    violations.append(Violation(
                        rel, lineno, "layer-cycle",
                        "'%s' and '%s' include each other (cycle of %d "
                        "files)" % (rel, target, len(scc))))


def collect_files(paths, root):
    del root  # paths resolve against the CWD; root only scopes the rules
    files = []
    for p in paths:
        abs_p = os.path.abspath(p)
        if os.path.isfile(abs_p):
            files.append(abs_p)
        elif os.path.isdir(abs_p):
            for dirpath, dirnames, filenames in os.walk(abs_p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(dirpath, name))
        else:
            print("mocos_lint: no such path: %s" % p, file=sys.stderr)
            sys.exit(2)
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="mocos_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="tree root used to resolve rule scopes "
                             "(default: repository root, two levels above "
                             "this script)")
    parser.add_argument("--json", action="store_true",
                        help="emit violations as a JSON array")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and rationale, then exit")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="JSON baseline: suppress up to the recorded "
                             "count of findings per (path, rule); stale "
                             "entries are reported as baseline-expiry")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="record current findings as the baseline "
                             "and exit 0")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: <root>/src)")
    args = parser.parse_args(argv)

    if args.baseline and args.write_baseline:
        print("mocos_lint: --baseline and --write-baseline are exclusive",
              file=sys.stderr)
        return 2

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-18s %s" % (rule, RULES[rule]))
        return 0

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", ".."))
    paths = args.paths or [os.path.join(root, "src")]

    violations = []
    scanned_edges = {}
    for abs_path in collect_files(paths, root):
        rel = os.path.relpath(abs_path, root).replace(os.sep, "/")
        edges = []
        lint_file(abs_path, rel, violations, edges)
        scanned_edges[rel] = edges
    project_pass(scanned_edges, root, violations)

    violations.sort(key=lambda v: (v.path, v.line, v.rule))

    if args.write_baseline:
        counts = {}
        for v in violations:
            key = "%s:%s" % (v.path, v.rule)
            counts[key] = counts.get(key, 0) + 1
        with open(args.write_baseline, "w", encoding="utf-8") as f:
            json.dump(counts, f, indent=2, sort_keys=True)
            f.write("\n")
        print("mocos_lint: wrote %d baseline entr%s (%d finding%s) to %s" %
              (len(counts), "y" if len(counts) == 1 else "ies",
               len(violations), "" if len(violations) == 1 else "s",
               args.write_baseline))
        return 0

    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as f:
                baseline = json.load(f)
        except (OSError, ValueError) as err:
            print("mocos_lint: cannot read baseline %s: %s" %
                  (args.baseline, err), file=sys.stderr)
            return 2
        if not isinstance(baseline, dict) or \
                not all(isinstance(n, int) and n > 0
                        for n in baseline.values()):
            print("mocos_lint: baseline must map 'path:rule' to positive "
                  "counts", file=sys.stderr)
            return 2
        remaining = dict(baseline)
        kept = []
        for v in violations:
            key = "%s:%s" % (v.path, v.rule)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
            else:
                kept.append(v)
        violations = kept
        # A baseline entry that over-counts what still fires would mask the
        # next regression at that site; force the ratchet down instead.
        for key in sorted(k for k, n in remaining.items() if n > 0):
            path, _, rule = key.rpartition(":")
            violations.append(Violation(
                path, 0, "baseline-expiry",
                "%d stale finding%s of '%s'" %
                (remaining[key], "" if remaining[key] == 1 else "s", rule)))
        violations.sort(key=lambda v: (v.path, v.line, v.rule))

    if args.json:
        print(json.dumps(
            [{"path": v.path, "line": v.line, "rule": v.rule,
              "message": v.message()} for v in violations],
            indent=2))
    else:
        for v in violations:
            print("%s:%d: [%s] %s" % (v.path, v.line, v.rule, v.message()))
        if violations:
            print("mocos_lint: %d violation%s" %
                  (len(violations), "" if len(violations) == 1 else "s"),
                  file=sys.stderr)

    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
