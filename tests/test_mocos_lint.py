#!/usr/bin/env python3
"""Self-test for tools/lint/mocos_lint.py.

Runs the linter over the fixture tree in tests/lint_fixtures/ (which mirrors
src/ so the directory-scoped rules fire) and asserts, per fixture:

  - the exact rule id and line number of each expected violation,
  - a nonzero exit status whenever a fixture violates a rule,
  - zero violations for the clean, suppressed, and out-of-scope fixtures,
  - and finally that the real src/ tree lints clean (exit 0).

Registered as the `mocos_lint` ctest; runnable directly:
    python3 tests/test_mocos_lint.py
"""

import json
import os
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "lint", "mocos_lint.py")
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


def run_lint(paths, root, extra=None):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, "--json"] + (extra or [])
        + paths,
        capture_output=True, text=True, cwd=REPO_ROOT)
    try:
        violations = json.loads(proc.stdout) if proc.stdout.strip() else []
    except json.JSONDecodeError:
        raise AssertionError("non-JSON lint output:\n" + proc.stdout)
    return proc.returncode, violations


def fixture(rel):
    return os.path.join(FIXTURE_ROOT, rel)


class FixtureViolations(unittest.TestCase):
    """Each violating fixture yields exactly its expected (rule, line)
    pairs and a nonzero exit status."""

    EXPECTED = {
        "src/runtime/det_rng.cpp": [("det-rng", 8)],
        "src/sim/det_time.cpp": [("det-time", 8)],
        "src/multi/det_unordered.cpp": [("det-unordered", 12)],
        "src/descent/raw_solver.cpp": [("raw-solver", 9)],
        "src/linalg/float_eq.cpp": [("float-eq", 9)],
        "src/markov/discarded_status.cpp": [("discarded-status", 10)],
        # The resolvent scope extension: src/markov/resolvent* is inside
        # the raw-solver and determinism scopes even though the rest of
        # src/markov/ is not (discarded_status.cpp above fires a
        # path-independent rule).
        "src/markov/resolvent_raw_solver.cpp": [("raw-solver", 15),
                                                ("det-unordered", 17)],
        "src/runtime/task_throw.cpp": [("task-throw", 14)],
        "src/core/bad_suppression.cpp": [("bad-suppression", 8),
                                         ("float-eq", 9)],
        # Observability clock contract: outside src/obs/ (and outside the
        # determinism scope, where det-time already fires) a clock read is
        # obs-only-clock; inside src/obs/ it is det-time unless the site
        # carries an allow() justification like the real trace-sink epoch.
        "src/cost/clock_outside_obs.cpp": [("obs-only-clock", 10)],
        "src/obs/clock_in_obs.cpp": [("det-time", 15)],
        # The serve scope extension: src/serve/ joins both the determinism
        # scope (clock reads there are det-time, suppressible at the
        # sanctioned deadline/watchdog sites) and the raw-solver scope
        # (request execution must stay on the guarded try_* layer so one
        # numerical fault costs one structured error response, not the
        # process).
        "src/serve/deadline_clock.cpp": [("det-time", 20),
                                         ("raw-solver", 25)],
        # The det-socket rule (telemetry plane, DESIGN.md §15): raw socket
        # calls in the determinism scope fire unless carrying the explicit
        # per-line sanction the real endpoint uses; std::bind, project
        # accept()/send() members, and the allow()ed mirror stay clean.
        "src/serve/raw_socket.cpp": [("det-socket", 18),
                                     ("det-socket", 19),
                                     ("det-socket", 20)],
        # The sparse scope extension: src/sparse/ joins the determinism
        # scope (the resolvent ladder runs in every sparse descent probe
        # under the bit-identical contract) and the raw-solver scope (its
        # fallback ladder branches on Status, which an unguarded throwing
        # solver would bypass).
        "src/sparse/clock_in_solver.cpp": [("det-time", 16),
                                           ("raw-solver", 21)],
        "src/sparse/unordered_blocks.cpp": [("det-unordered", 19),
                                            ("raw-solver", 24)],
        # Layering contract (PR 8): the include-graph pass judges every
        # `#include "src/..."` edge against the module DAG (the target need
        # not exist), and flags file-level include cycles via SCC — the
        # cycle is caught even when only one of its files is scanned,
        # reported at that file's offending include line.
        "src/geometry/forbidden_edge.cpp": [("layer-violation", 6)],
        # sparse sits below markov: the ladder's row is {linalg, util}.
        "src/sparse/upward_include.cpp": [("layer-violation", 7)],
        # A module directory with no MODULE_DEPS row may include nothing
        # outside itself, so it cannot lint clean by being left out.
        "src/unlisted/no_layer_row.cpp": [("layer-violation", 6),
                                          ("layer-violation", 7)],
        "src/markov/cycle_a.hpp": [("layer-cycle", 6)],
        "src/markov/cycle_b.hpp": [("layer-cycle", 4)],
        # Locking contract (PR 8): raw std primitives and manual
        # lock()/unlock() are invisible to Clang -Wthread-safety; locks
        # held across parallel_for self-deadlock under inline execution.
        # Each fixture also contains the compliant form as a near-miss.
        "src/cost/raw_mutex.cpp": [("lock-raw-mutex", 14),
                                   ("lock-raw-mutex", 19)],
        "src/cost/raw_lock_call.cpp": [("lock-raw-call", 12),
                                       ("lock-raw-call", 14)],
        "src/sim/lock_across_parallel.cpp": [("lock-across-parallel", 17)],
    }

    def test_each_fixture_exact_rule_and_line(self):
        for rel, expected in self.EXPECTED.items():
            with self.subTest(fixture=rel):
                code, violations = run_lint([fixture(rel)], FIXTURE_ROOT)
                self.assertEqual(code, 1,
                                 "%s: expected exit 1, got %d" % (rel, code))
                got = [(v["rule"], v["line"]) for v in violations]
                self.assertEqual(sorted(got), sorted(expected), rel)

    def test_violation_paths_are_root_relative(self):
        code, violations = run_lint(
            [fixture("src/linalg/float_eq.cpp")], FIXTURE_ROOT)
        self.assertEqual(code, 1)
        self.assertEqual(violations[0]["path"], "src/linalg/float_eq.cpp")


class CleanFixtures(unittest.TestCase):
    """Suppressed, near-miss, and out-of-scope fixtures lint clean."""

    CLEAN = [
        "src/descent/suppressed.cpp",   # allow() on every violation
        "src/core/clean.cpp",           # near-miss patterns
        "src/cost/out_of_scope.cpp",    # scoped rules outside their dirs
    ]

    def test_clean_fixtures_exit_zero(self):
        for rel in self.CLEAN:
            with self.subTest(fixture=rel):
                code, violations = run_lint([fixture(rel)], FIXTURE_ROOT)
                self.assertEqual(violations, [], rel)
                self.assertEqual(code, 0, rel)

    def test_whole_fixture_tree_reports_every_violation(self):
        code, violations = run_lint(
            [os.path.join(FIXTURE_ROOT, "src")], FIXTURE_ROOT)
        self.assertEqual(code, 1)
        expected = sorted(
            (rel, rule, line)
            for rel, pairs in FixtureViolations.EXPECTED.items()
            for rule, line in pairs)
        got = sorted((v["path"], v["rule"], v["line"]) for v in violations)
        self.assertEqual(got, expected)


class SuppressionForms(unittest.TestCase):
    """Same-line and standalone-previous-line suppressions both work, and
    only for the named rule."""

    def test_suppressed_fixture_has_raw_patterns(self):
        # Guard against the fixture rotting: the suppressed file must still
        # contain the raw violation patterns its allow() comments cover.
        with open(fixture("src/descent/suppressed.cpp")) as f:
            text = f.read()
        self.assertIn("markov::analyze_chain(", text)
        self.assertIn("== 0.0", text)
        self.assertIn("mocos-lint: allow(raw-solver)", text)
        self.assertIn("mocos-lint: allow(float-eq)", text)

    def test_misspelled_suppression_reported_and_ineffective(self):
        code, violations = run_lint(
            [fixture("src/core/bad_suppression.cpp")], FIXTURE_ROOT)
        self.assertEqual(code, 1)
        rules = [v["rule"] for v in violations]
        self.assertIn("bad-suppression", rules)
        self.assertIn("float-eq", rules)  # the typo suppressed nothing


class BaselineRatchet(unittest.TestCase):
    """--baseline suppresses exactly the recorded findings: known findings
    pass, new findings still fail, and stale entries fail as
    baseline-expiry so the file can only ratchet down."""

    FIXTURE = "src/cost/raw_lock_call.cpp"  # fires lock-raw-call twice

    def run_with_baseline(self, baseline_path):
        return run_lint([fixture(self.FIXTURE)], FIXTURE_ROOT,
                        extra=["--baseline", baseline_path])

    def write_baseline(self, entries):
        import tempfile
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        json.dump(entries, handle)
        handle.close()
        self.addCleanup(os.unlink, handle.name)
        return handle.name

    def test_write_baseline_round_trips_clean(self):
        import tempfile
        path = os.path.join(tempfile.mkdtemp(), "baseline.json")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", FIXTURE_ROOT,
             "--write-baseline", path, fixture(self.FIXTURE)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(path) as f:
            recorded = json.load(f)
        self.assertEqual(recorded, {self.FIXTURE + ":lock-raw-call": 2})
        code, violations = self.run_with_baseline(path)
        self.assertEqual(violations, [])
        self.assertEqual(code, 0)

    def test_new_finding_is_not_masked(self):
        # Baseline covers only one of the two findings: the second is new.
        path = self.write_baseline({self.FIXTURE + ":lock-raw-call": 1})
        code, violations = self.run_with_baseline(path)
        self.assertEqual(code, 1)
        self.assertEqual([(v["rule"], v["line"]) for v in violations],
                         [("lock-raw-call", 14)])

    def test_stale_entry_fails_as_baseline_expiry(self):
        # The checked-in stale baseline over-counts: its obs-only-clock
        # entry no longer fires at all. Silence there must not be free —
        # it would mask the next regression at that (path, rule).
        code, violations = self.run_with_baseline(
            os.path.join(FIXTURE_ROOT, "stale_baseline.json"))
        self.assertEqual(code, 1)
        self.assertEqual(
            [(v["path"], v["rule"], v["line"]) for v in violations],
            [(self.FIXTURE, "baseline-expiry", 0)])

    def test_baseline_conflicts_with_write_baseline(self):
        path = self.write_baseline({})
        proc = subprocess.run(
            [sys.executable, LINT, "--root", FIXTURE_ROOT,
             "--baseline", path, "--write-baseline", path,
             fixture(self.FIXTURE)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        self.assertEqual(proc.returncode, 2)


class RealTreeIsClean(unittest.TestCase):
    """The contract the CI gate enforces: src/ lints clean."""

    def test_src_tree_exits_zero(self):
        code, violations = run_lint(
            [os.path.join(REPO_ROOT, "src")], REPO_ROOT)
        self.assertEqual(
            violations, [],
            "src/ has lint violations:\n" + "\n".join(
                "%s:%d [%s]" % (v["path"], v["line"], v["rule"])
                for v in violations))
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
