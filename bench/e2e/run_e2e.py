#!/usr/bin/env python3
"""The mocos end-to-end benchmark: whole runs of the user-facing binaries.

    python3 bench/e2e/run_e2e.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--build DIR] [--out FILE]
        [--smoke]

Builds mocos_cli and mocos_serve (Release) into DIR when needed, generates
every input from --seed, runs each workload's fixed number of repetitions
(sized from --seconds), checks every output and prints each metric by name
and unit. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics with
--trace 1. Exit status: 0 when every output passed its checks, 1 when one
failed, 2 on a usage, build or environment error (then no result is
printed). bench/e2e/README.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
JOBS = 4                 # worker threads of every multi-threaded child
SETUPS = 15              # set-up samples per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0  # a hung child is killed well inside the run cap
ROW_TOLERANCE = 1e-9
MAX_LAG_S = 0.020        # the load generator's allowed lateness at p99
LATE_PASS_TRIES = 3      # open-loop passes before a late generator is fatal


class Fatal(Exception):
    """An environment, build or load-generator failure: no result."""


class GeneratorLate(Fatal):
    """The serve load generator could not keep to its arrival schedule."""


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


# ----------------------------------------------------------------- processes

class Launcher:
    """Starts every measured child through peak_rss, which reports the
    child's own peak RSS (see peak_rss.cpp), and tracks the live ones."""

    def __init__(self, tool, report_dir):
        self.tool, self.report_dir = tool, report_dir
        self.live, self.count = {}, 0

    def spawn(self, cmd, **kwargs):
        self.count += 1
        report = self.report_dir / f"rss{self.count}"
        proc = subprocess.Popen(
            [str(c) for c in (self.tool, report, *cmd)], **kwargs)
        self.live[proc.pid] = (proc, report)
        return proc

    def reap(self, proc):
        """Waits for proc; returns (exit code, its peak RSS in MB)."""
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.terminate)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        _, report = self.live.pop(proc.pid)
        try:
            rss_mb = int(report.read_text()) / 1024.0
        except (OSError, ValueError):
            rss_mb = 0.0
        return proc.returncode, rss_mb

    def stop(self, proc):
        """Kills the child (the launcher forwards SIGTERM as SIGKILL)."""
        proc.terminate()
        return self.reap(proc)

    def stop_all(self):
        for proc, _ in list(self.live.values()):
            self.stop(proc)


LAUNCHER = None  # set by main() once peak_rss is built


def kill_all():
    if LAUNCHER is not None:
        LAUNCHER.stop_all()


def run_logged(cmd, log):
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
        out.flush()
        code = subprocess.run([str(c) for c in cmd], stdout=out,
                              stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode
    if code != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        raise Fatal(f"command failed ({code}): {' '.join(map(str, cmd))}\n"
                    + "\n".join(tail))


# ---------------------------------------------------------------- statistics

def percentile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    k = (len(s) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs))


# -------------------------------------------------------------------- build

def read_cmake_cache(build_dir):
    cache = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line and line[0] not in "#/" and "=" in line and ":" in line:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def build(build_dir):
    """Builds the tools and the benchmark's helpers incrementally; Release
    trees only."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Fatal(f"no mocos source tree (CMakeLists.txt, src/) at {ROOT}")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "e2e-build.log"
    log.write_text("")
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    cache = read_cmake_cache(build_dir)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise Fatal(f"{build_dir} is a {cache.get('CMAKE_BUILD_TYPE')!r} "
                    "tree; the benchmark measures Release builds only")
    nproc = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", build_dir, "--target", "mocos_cli",
                "mocos_serve", "-j", nproc], log)
    helpers = build_dir / "e2e"
    run_logged(["cmake", "-S", HERE, "-B", helpers,
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DCMAKE_CXX_COMPILER={cache['CMAKE_CXX_COMPILER']}",
                f"-DMOCOS_ROOT={ROOT}",
                f"-DMOCOS_LIB={build_dir / 'src' / 'libmocos.a'}",
                "-DMOCOS_FAULT_INJECTION="
                + cache.get("MOCOS_FAULT_INJECTION", "ON")], log)
    run_logged(["cmake", "--build", helpers, "-j", nproc], log)
    return cache


def provenance(cache):
    """Where the numbers came from; compare.py refuses mismatched hardware."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip() + ("-dirty" if dirty.stdout.strip()
                                        else "")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
    if version.returncode == 0 and version.stdout:
        compiler = version.stdout.splitlines()[0]
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE")}


# ------------------------------------------------------------------- checks

def read_schedule(path):
    lines = Path(path).read_text().split("\n")
    if lines[0] != "mocos-schedule v1" or not lines[1].startswith("pois "):
        raise CheckFailed(f"{path}: not a mocos schedule")
    n = int(lines[1].split()[1])
    rows = [[float(x) for x in line.split()] for line in lines[2:2 + n]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise CheckFailed(f"{path}: expected {n} rows of {n} entries")
    return rows


def check_rows(rows, support=None):
    """Each row stochastic to ROW_TOLERANCE; no mass off `support`."""
    for i, row in enumerate(rows):
        if not all(math.isfinite(x) and x >= 0.0 for x in row):
            raise CheckFailed(f"row {i}: negative or non-finite entry")
        if abs(math.fsum(row) - 1.0) > ROW_TOLERANCE:
            raise CheckFailed(f"row {i} sums to {math.fsum(row)!r}")
        if support is not None:
            off = [j for j, x in enumerate(row) if x != 0.0
                   and j not in support[i]]
            if off:
                raise CheckFailed(f"row {i}: mass off the support at "
                                  f"{off[:5]}")


def support_of(rows):
    return [{j for j, x in enumerate(row) if x != 0.0} for row in rows]


def check_cost(cost):
    if cost is None or not math.isfinite(cost) or cost <= 0.0:
        raise CheckFailed(f"cost {cost!r} is not a finite positive number")
    return cost


def check_responses(requests, responses):
    """One ok response per request, in order; returns the failed count."""
    if len(responses) != len(requests):
        raise CheckFailed(f"{len(responses)} responses to {len(requests)} "
                          "requests")
    failed = 0
    for seq, (req, resp) in enumerate(zip(requests, responses)):
        if resp.get("id") != req["id"]:
            raise CheckFailed(f"response {seq} answers {resp.get('id')!r}, "
                              f"expected {req['id']!r}")
        try:
            if resp.get("status") != "ok" or resp.get("code") != 0:
                raise CheckFailed(f"{req['id']}: {resp.get('status')}: "
                                  f"{resp.get('error', '')}")
            check_cost(resp.get("cost"))
        except CheckFailed as e:
            print(f"check {e}", file=sys.stderr)
            failed += 1
    return failed


def corrupt_row(rows):
    bad = [list(r) for r in rows]
    bad[0][0] += 1e-3
    return bad


def corrupt_support(rows, support):
    bad = [list(r) for r in rows]
    i = next(i for i, s in enumerate(support) if len(s) < len(rows))
    off = next(j for j in range(len(rows)) if j not in support[i])
    on = max(support[i], key=lambda j: bad[i][j])
    bad[i][off], bad[i][on] = 1e-3, bad[i][on] - 1e-3
    return bad


# ------------------------------------------------------------------- serving

WARMUP_REQUEST = {"id": "warmup",
                  "config": "topology = grid:2x2\nalgorithm = adaptive\n"
                            "iterations = 1"}


class Pass:
    """One fresh mocos_serve fed `requests` at `offsets` seconds, open loop.

    Ready (setup_s) once the reply to a warm-up request arrived. Each
    request's latency runs from when it was due to when its response line
    arrived; `lateness` is how late the generator sent each one."""

    def __init__(self, tool, tmp, requests, offsets, extra=()):
        self.requests = requests
        with open(tmp / "serve.err", "wb") as err:
            start = time.perf_counter()
            proc = LAUNCHER.spawn(
                [tool, "--jobs", JOBS, "--queue-depth", 1024, "--timings",
                 *extra], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err)
            try:
                self._run(proc, start, offsets)
            except (OSError, ValueError) as e:  # closed pipe, bad JSON
                raise CheckFailed(f"mocos_serve: {e}") from e
            finally:
                for pipe in (proc.stdin, proc.stdout):
                    try:
                        pipe.close()
                    except OSError:
                        pass
                self.code, self.rss_mb = LAUNCHER.reap(proc)
        if self.code not in (0, 4):
            raise CheckFailed(f"mocos_serve exited {self.code}")

    def _run(self, proc, start, offsets):
        proc.stdin.write(json.dumps(WARMUP_REQUEST).encode() + b"\n")
        proc.stdin.flush()
        warm = proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not warm or json.loads(warm).get("status") != "ok":
            raise CheckFailed(f"warm-up request failed: {warm!r}")
        lines = [json.dumps(r).encode() + b"\n" for r in self.requests]
        got = []

        def read():
            for _ in lines:
                line = proc.stdout.readline()
                if not line:
                    return
                got.append((time.perf_counter(), line))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        t0 = time.perf_counter()
        self.lateness = []
        for offset, line in zip(offsets, lines):
            delay = t0 + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lateness.append(time.perf_counter() - t0 - offset)
            proc.stdin.write(line)
            proc.stdin.flush()
        proc.stdin.close()
        reader.join(CHILD_TIMEOUT_S)
        if reader.is_alive():
            proc.terminate()
            raise CheckFailed("mocos_serve stopped answering")
        self.latency = [at - t0 - off for (at, _), off in zip(got, offsets)]
        self.wall_s = (got[-1][0] - t0) if got else 0.0
        self.responses = [json.loads(line) for _, line in got]


# ----------------------------------------------------------------- workloads

class Scale:
    """Input sizes: the benchmark's, or toy sizes for --smoke."""

    def __init__(self, smoke):
        self.paper_iterations = 200 if smoke else 2000
        self.city_pois = 256 if smoke else 1024
        self.serve_rate = 60              # req/s of the latency metrics
        self.serve_requests = 40 if smoke else 240   # per open-loop pass
        self.ladder = () if smoke else (15, 30, 120)  # traced runs only
        self.probe_budget_ms = 20 if smoke else 100


def write_conf(path, **keys):
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


class Workload:
    """One workload: prepare() once, then a fixed number of repetitions.

    The count depends on --seconds alone, never on how fast the program
    ran, and repetition k draws its inputs from (--seed, k). So a parent and
    a change run the same inputs. Subclasses fill plain (untraced) and
    traced repetition records; the metric methods turn them into
    BENCHMARK.json's metrics."""

    name = ""
    rep_seconds = 1.0  # about how long one repetition takes on 4 cores

    def __init__(self, args, scale, tools, tmp, seconds):
        self.args, self.scale, self.tools = args, scale, tools
        self.tmp = tmp / self.name
        self.tmp.mkdir(parents=True)
        self.rng = random.Random(f"{args.seed}:{self.name}")
        self.reps = max(1, round(seconds / self.rep_seconds))
        self.setups, self.rss, self.plain, self.traced = [], [], [], []
        self.attempted = self.failed = 0
        self.errors, self.diagnostics, self.costs = [], {}, {}

    def fail(self, what, error):
        self.failed += 1
        self.errors.append(f"{what}: {error}")
        print(f"check {self.name} {what}: {error}", file=sys.stderr)

    def rep(self, k, traced):
        (self.traced if traced else self.plain).append(
            self.run_rep(k, traced))


class CliWorkload(Workload):
    """Sequential mocos_cli runs; a repetition runs every job once.

    Repetition k draws its own inputs from (--seed, k), so a run's medians
    pool over several inputs and the work a seed happens to draw (how soon
    a perturbed descent stalls, which random starts win) moves them less."""

    support = None

    def job_confs(self, rep_dir, seed, iterations):
        """Yields (name, config path, --jobs) with schedules in rep_dir."""
        raise NotImplementedError

    def iterations(self):
        return self.scale.paper_iterations

    def rep_seed(self, k):
        return random.Random(f"{self.args.seed}:{self.name}:{k}").randrange(
            1, 2**31)

    def rep_dir(self, tag):
        d = self.tmp / str(tag)
        d.mkdir(exist_ok=True)
        return d

    def prepare(self):
        warm = self.rep_dir("warmup")
        short = max(1, self.iterations() // 20)
        for name, conf, jobs in self.job_confs(warm, self.rep_seed("warmup"),
                                               short):
            self.run_job(name, conf, jobs, warm, check=False)
        confs = list(self.job_confs(self.rep_dir("setup"),
                                    self.rep_seed("setup"), self.iterations()))
        for k in range(SETUPS):
            _, conf, jobs = confs[k % len(confs)]
            self.setups.append(self.setup_sample(conf, jobs))

    def setup_sample(self, conf, jobs):
        """Spawn until `mocos: optimizing`, printed after build_problem."""
        start = time.perf_counter()
        proc = LAUNCHER.spawn(["stdbuf", "-oL", self.tools["cli"], "--jobs",
                               jobs, conf], stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        try:
            for line in proc.stdout:
                if line.startswith(b"mocos: optimizing"):
                    return time.perf_counter() - start
            raise CheckFailed(f"{conf}: no 'mocos: optimizing' line")
        finally:
            proc.stdout.close()
            self.rss.append(LAUNCHER.stop(proc)[1])

    def run_job(self, name, conf, jobs, rep_dir, check=True, extra=()):
        out_path, err_path = rep_dir / f"{name}.out", rep_dir / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = LAUNCHER.spawn(
                [self.tools["cli"], "--jobs", jobs, *extra, conf],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, rss = LAUNCHER.reap(proc)
            wall = time.perf_counter() - start
        self.rss.append(rss)
        if not check:
            return None
        self.attempted += 1
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: "
                                  + err_path.read_text(errors="replace"))
            cost = None
            for line in out_path.read_text().splitlines():
                if line.startswith("penalized cost U_eps:"):
                    cost = float(line.split(":", 1)[1])
            check_cost(cost)
            check_rows(read_schedule(rep_dir / f"{name}.schedule"),
                       self.support)
        except (CheckFailed, OSError, ValueError) as e:
            self.fail(name, e)
            return None
        self.costs.setdefault(name, cost)
        return {"wall": wall, "cost": cost, "conf": conf, "dir": rep_dir}

    def run_rep(self, k, traced):
        """Repetition k; traced, the same inputs with --metrics and
        --profile on."""
        d = self.rep_dir(f"traced{k}" if traced else f"rep{k}")
        record = {"jobs": {}}
        for name, conf, jobs in self.job_confs(d, self.rep_seed(k),
                                               self.iterations()):
            extra = ()
            if traced:
                extra = ("--metrics", d / f"{name}.metrics.json",
                         "--profile", d / f"{name}.profile.json")
            result = self.run_job(name, conf, jobs, d, extra=extra)
            if result is not None:
                record["jobs"][name] = result
        return record

    def wall(self, records):
        """Sum over jobs of each job's median wall time across records: a
        slow spell on the host then costs one sample of a job, not a whole
        repetition."""
        names = {n for r in records for n in r["jobs"]}
        return sum(statistics.median(r["jobs"][n]["wall"] for r in records
                                     if n in r["jobs"]) for n in names)

    def metrics(self):
        runs = [j for r in self.plain for j in r["jobs"].values()]
        # A caller of this workload waits for a whole repetition.
        latency_ms = [1e3 * sum(j["wall"] for j in r["jobs"].values())
                      for r in self.plain]
        return {"setup_s": statistics.median(self.setups),
                "wall_s": self.wall(self.plain),
                "lat_mean_ms": statistics.fmean(latency_ms),
                "lat_p95_ms": percentile(latency_ms, 0.95),
                "peak_rss_mb": max(self.rss),
                "final_cost": geomean([j["cost"] for j in runs])}

    def layer_parts(self):
        """Per job: the traced counts, the profile and layer_probe's times."""
        parts, counters, phases = [], {}, {}
        for name, job in self.traced[0]["jobs"].items():
            d = job["dir"]
            m = json.loads((d / f"{name}.metrics.json").read_text())
            p = json.loads((d / f"{name}.profile.json").read_text())
            add_counts(counters, m["counters"])
            for phase, v in p["phases"].items():
                add_counts(phases.setdefault(phase, {}), v)
            c = m["counters"]
            parts.append({
                "runs": 1,
                "solves": c.get("chain_cache.full_solves", 0),
                "iterations": c.get("descent.iterations", 0),
                "probes": c.get("descent.line_search.probes", 0),
                "probe": run_probe(self.tools["probe"], job["conf"],
                                   d / f"{name}.schedule",
                                   self.scale.probe_budget_ms)})
        return parts, counters, phases, self.wall(self.plain)

    def overhead(self):
        """The traced repetition against the plain one on the same inputs."""
        return self.wall(self.traced) / self.wall(self.plain[:1]) - 1.0


class PaperSweep(CliWorkload):
    """Paper Topologies 1-4 x {basic, adaptive, perturbed}, 2000 iterations,
    alpha:beta as in EXPERIMENTS.md, twelve sequential --jobs 1 runs."""

    name = "paper_sweep"
    rep_seconds = 6.5
    TOPOLOGIES = (  # name, topology, targets, alpha, beta
        ("t1", "grid:2x2", "0.25,0.25,0.25,0.25", 0, 1),
        ("t2", "grid:2x2", "0.7,0.1,0.1,0.1", 1, 0),
        ("t3", "grid:1x4", "0.4,0.1,0.1,0.4", 1, 1e-4),
        ("t4", "grid:3x3", "0.20,0.10,0.10,0.10,0.20,0.10,0.05,0.05,0.10",
         1, 0))

    def job_confs(self, rep_dir, seed, iterations):
        for t, topology, targets, alpha, beta in self.TOPOLOGIES:
            for algorithm in ("basic", "adaptive", "perturbed"):
                name = f"{t}-{algorithm}"
                yield name, write_conf(
                    rep_dir / f"{name}.conf", topology=topology,
                    targets=targets, alpha=alpha, beta=beta,
                    algorithm=algorithm, iterations=iterations, seed=seed,
                    save_schedule=rep_dir / f"{name}.schedule"), 1


class PaperMultistart(CliWorkload):
    """The Fig. 2 protocol as one call: Topology 1, alpha=0 beta=1,
    perturbed, 16 random starts, 2000 iterations, at --jobs 4."""

    name = "paper_multistart"
    rep_seconds = 2.0  # 1.2-1.6 s, plus the one --jobs 1 run spread over all

    def job_confs(self, rep_dir, seed, iterations):
        yield "t1-multistart", write_conf(
            rep_dir / "t1-multistart.conf", topology="grid:2x2", alpha=0,
            beta=1, algorithm="perturbed", random_start="true", starts=16,
            iterations=iterations, seed=seed,
            save_schedule=rep_dir / "t1-multistart.schedule"), JOBS

    def run_rep(self, k, traced):
        record = super().run_rep(k, traced)
        first = record["jobs"].get("t1-multistart")
        if k == 0 and not traced and first is not None:
            # The first repetition's input once more at --jobs 1, for the
            # scaling_eff diagnostic.
            d = self.rep_dir("jobs1")
            (name, conf, _), = self.job_confs(d, self.rep_seed(0),
                                              self.iterations())
            result = self.run_job(name, conf, 1, d)
            if result is not None:
                self.diagnostics["wall_jobs1_s"] = result["wall"]
                self.diagnostics["scaling_eff"] = result["wall"] / (
                    JOBS * first["wall"])
        return record


class City(CliWorkload):
    """city:1024:S, radius 0.1, support_radius 2.0, adaptive, one iteration
    (47 line-search probes), --jobs 1, saving the schedule. One map per run:
    its line search does the same 47 probes whatever the map."""

    name = "city_1024"
    rep_seconds = 20.0  # so a run holds one repetition

    def __init__(self, *a):
        super().__init__(*a)
        self.topology = (f"city:{self.scale.city_pois}:"
                         f"{self.rng.randrange(1, 10**6)}")

    def iterations(self):
        return 1

    def prepare(self):
        # The support-uniform start, saved by a step too small to move any
        # entry, is the support every later schedule must stay on. This run
        # doubles as the warm-up.
        d = self.rep_dir("start")
        conf = write_conf(d / "start.conf", topology=self.topology,
                          radius=0.1, support_radius=2.0, algorithm="basic",
                          step="1e-300", iterations=1,
                          save_schedule=d / "start.schedule")
        self.run_job("start", conf, 1, d, check=False)
        try:
            self.support = support_of(read_schedule(d / "start.schedule"))
        except (OSError, ValueError) as e:
            raise CheckFailed(f"no support-uniform start: {e}") from e
        (_, conf, jobs), = self.job_confs(self.rep_dir("setup"), 0, 1)
        for _ in range(SETUPS):
            self.setups.append(self.setup_sample(conf, jobs))

    def job_confs(self, rep_dir, seed, iterations):
        yield "city-adaptive", write_conf(
            rep_dir / "city-adaptive.conf", topology=self.topology,
            radius=0.1, support_radius=2.0, algorithm="adaptive",
            iterations=iterations,
            save_schedule=rep_dir / "city-adaptive.schedule"), 1


def busy_s(p):
    """The server's processing time for a pass: the sum of elapsed_ms."""
    return sum(r.get("elapsed_ms", 0.0) for r in p.responses) / 1e3


class ServeMix(Workload):
    """mocos_serve --jobs 4, a fresh server per pass. A repetition is one
    pass of 240 requests sent open loop with Poisson arrivals at 60 req/s;
    traced runs add a diagnostic ladder of rates."""

    name = "serve_mix"
    rep_seconds = 4.0
    KINDS = {
        "a23": "topology = grid:2x3\nalgorithm = adaptive\n"
               "iterations = 30\nrandom_start = true",
        "a33": "topology = grid:3x3\nalgorithm = adaptive\n"
               "iterations = 30\nrandom_start = true",
        "p23": "topology = grid:2x3\nalgorithm = perturbed\n"
               "iterations = 30\nrandom_start = true",
    }
    # Per block of 20 requests: 45% adaptive grid:2x3, 45% adaptive
    # grid:3x3, 10% perturbed grid:2x3. The perturbed requests and the last
    # adaptive request of each kind are cold (20%); the other 80% use one of
    # 8 warm lanes, 4 per adaptive kind.
    BLOCK = ["a23"] * 9 + ["a33"] * 9 + ["p23"] * 2
    COLD = (8, 17, 18, 19)

    def __init__(self, *a):
        super().__init__(*a)
        self.kind_of = {}

    def population(self, tag, n):
        """n requests in the mix's exact proportions, in block order.

        A lane's first request starts from the lane's own seed and every
        later one continues from the lane's previous answer."""
        requests, keyed = [], dict.fromkeys(self.KINDS, 0)
        for i in range(n):
            kind = self.BLOCK[i % len(self.BLOCK)]
            req = {"id": f"{tag}-{i}", "config": self.KINDS[kind]}
            if i % len(self.BLOCK) not in self.COLD:
                lane = keyed[kind] % 4
                keyed[kind] += 1
                req["config"] += f"\nseed = {lane + 1}"
                req["cache_key"] = f"{kind}-{lane}"
                req["warm_start"] = True
            self.kind_of[req["id"]] = kind
            requests.append(req)
        return requests

    def serve(self, requests, offsets, extra=()):
        self.attempted += len(requests)
        try:
            p = Pass(self.tools["serve"], self.tmp, requests, offsets, extra)
            self.rss.append(p.rss_mb)
            failed = check_responses(requests, p.responses)
        except CheckFailed as e:
            self.fail("pass", e)
            self.failed += len(requests) - 1
            return None
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} requests failed")
        return p

    def open_loop(self, tag, rate, extra=()):
        """One pass at `rate`; its order and arrival times come from
        (--seed, tag). A pass whose generator ran late is discarded and run
        again on the same inputs: a stolen CPU slice on the host can delay
        the sending thread."""
        rng = random.Random(f"{self.args.seed}:{self.name}:{tag}")
        requests = self.population(tag, self.scale.serve_requests)
        rng.shuffle(requests)
        t, offsets = 0.0, []
        for _ in requests:
            offsets.append(t)
            t += rng.expovariate(rate)
        for _ in range(LATE_PASS_TRIES):
            p = self.serve(requests, offsets, extra)
            if p is None or percentile(p.lateness, 0.99) <= MAX_LAG_S:
                return p
            print(f"run_e2e: {rate} req/s pass discarded: generator "
                  f"{1e3 * percentile(p.lateness, 0.99):.1f} ms late at p99",
                  file=sys.stderr)
        raise GeneratorLate(f"{rate} req/s: load generator ran more than "
                            f"{MAX_LAG_S * 1e3:.0f} ms late at p99 in "
                            f"{LATE_PASS_TRIES} passes")

    def prepare(self):
        warm = self.population("warmup", 2 * len(self.BLOCK))
        self.rss.append(Pass(self.tools["serve"], self.tmp, warm,
                             [0.0] * len(warm)).rss_mb)
        for _ in range(SETUPS):
            p = Pass(self.tools["serve"], self.tmp, [], [])
            self.setups.append(p.setup_s)
            self.rss.append(p.rss_mb)

    def run_rep(self, k, traced):
        """Pass k; traced, the same inputs with --metrics and --profile on,
        then the ladder."""
        extra, d = (), None
        if traced:
            d = self.tmp / f"traced{k}"
            d.mkdir()
            extra = ("--metrics", d / "metrics.json",
                     "--profile", d / "profile.json")
        rate = self.scale.serve_rate
        record = {"pass": self.open_loop(f"pass{k}", rate, extra), "dir": d}
        if traced:
            rungs = {rate: self.plain[0]["pass"]}
            for r in self.scale.ladder:
                try:
                    rungs[r] = self.open_loop(f"r{r}", r)
                except GeneratorLate as e:  # a diagnostic rung: skip it
                    self.diagnostics[f"r{r}"] = str(e)
            self.diagnose(rungs)
        return record

    def passes(self):
        return [r["pass"] for r in self.plain if r["pass"] is not None]

    def metrics(self):
        passes = self.passes()
        latency_ms = [1e3 * x for p in passes for x in p.latency]
        responses = [r for p in passes for r in p.responses]
        costs = [r["cost"] for r in responses if r.get("status") == "ok"]
        self.costs = {"geomean": geomean(costs)}
        self.diagnostics["warm_share"] = statistics.fmean(
            bool(r.get("warm_started")) for r in responses)
        self.diagnostics["solves_per_req"] = statistics.fmean(
            r.get("cache_full_solves", 0) for r in responses)
        self.diagnostics["gen_lag_ms_p99"] = 1e3 * max(
            percentile(p.lateness, 0.99) for p in passes)
        self.diagnostics["lat_p50_ms"] = percentile(latency_ms, 0.50)
        return {"setup_s": statistics.median(self.setups),
                "wall_s": statistics.median(p.wall_s for p in passes),
                # Not the median: at 60 req/s latencies fall in a fast mode
                # (10-40 ms) and a mode blocked behind a perturbed request
                # (130-200 ms), and the median sits in the gap between them.
                "lat_mean_ms": statistics.fmean(latency_ms),
                "lat_p95_ms": percentile(latency_ms, 0.95),
                "peak_rss_mb": max(self.rss),
                "final_cost": geomean(costs)}

    def diagnose(self, passes):
        """Latency per ladder rate and the highest rate meeting the limit:
        p95 <= 300 ms, >= 99% ok, and no growing backlog (the median latency
        of the last fifth of requests at most twice that of the first)."""
        max_rate = 0
        for rate, p in sorted(passes.items()):
            if p is None:
                continue
            lat = [x * 1e3 for x in p.latency]
            ok = sum(r.get("status") == "ok" for r in p.responses) / len(
                p.requests)
            fifth = max(1, len(lat) // 5)
            growth = (statistics.median(lat[-fifth:])
                      / statistics.median(lat[:fifth]))
            d = {"n": len(lat), "p50_ms": percentile(lat, 0.5),
                 "p95_ms": percentile(lat, 0.95), "ok_share": ok,
                 "backlog_growth": growth,
                 "gen_lag_ms_p99": 1e3 * percentile(p.lateness, 0.99),
                 "proc_ms_p50": percentile([r.get("elapsed_ms", 0.0)
                                            for r in p.responses], 0.5),
                 "wait_ms_p95": percentile(
                     [x - r.get("elapsed_ms", 0.0)
                      for x, r in zip(lat, p.responses)], 0.95)}
            self.diagnostics[f"r{rate}"] = d
            if d["p95_ms"] <= 300 and ok >= 0.99 and growth <= 2.0:
                max_rate = rate
        self.diagnostics["max_rate_rps"] = max_rate

    def layer_parts(self):
        record = self.traced[0]
        m = json.loads((record["dir"] / "metrics.json").read_text())
        p = json.loads((record["dir"] / "profile.json").read_text())
        counters = m["counters"]
        traced = record["pass"]
        if traced is None:
            raise CheckFailed("the traced pass failed")
        solves = {k: 0 for k in self.KINDS}
        runs = {k: 0 for k in self.KINDS}
        for req, resp in zip(traced.requests, traced.responses):
            kind = self.kind_of[req["id"]]
            solves[kind] += resp.get("cache_full_solves", 0)
            runs[kind] += 1
        total = sum(solves.values()) or 1
        parts = []
        for kind, config in self.KINDS.items():
            if not runs[kind]:
                continue
            conf = self.tmp / f"{kind}.conf"
            conf.write_text(config + "\n")
            share = solves[kind] / total
            parts.append({
                "runs": runs[kind],
                "solves": share * counters.get("chain_cache.full_solves", 0),
                "iterations": share * counters.get("descent.iterations", 0),
                "probes": share * counters.get("descent.line_search.probes",
                                               0),
                "probe": run_probe(self.tools["probe"], conf, None,
                                   self.scale.probe_budget_ms)})
        return parts, counters, p["phases"], busy_s(traced)

    def overhead(self):
        """The traced pass against the plain one on the same inputs."""
        return busy_s(self.traced[0]["pass"]) / busy_s(
            self.plain[0]["pass"]) - 1.0


WORKLOADS = {w.name: w for w in (PaperSweep, PaperMultistart, City, ServeMix)}


# -------------------------------------------------------------- layer probes

def run_probe(tool, conf, schedule, budget_ms, multistart=False):
    cmd = [tool, "--jobs", JOBS, "--budget-ms", budget_ms]
    cmd += ["--multistart", conf] if multistart else [conf]
    if schedule is not None:
        cmd.append(schedule)
    r = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise CheckFailed(f"layer_probe {conf}: exit {r.returncode}: "
                          f"{r.stderr.strip()}")
    return json.loads(r.stdout)


def add_counts(total, counts):
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v


def phase_shares(phases):
    """Exclusive-time share of each profiled phase, keyed by its leaf."""
    total = sum(v["exclusive_ns"] for v in phases.values()) or 1
    shares = {}
    for path, v in phases.items():
        leaf = path.split(";")[-1]
        shares[leaf] = shares.get(leaf, 0.0) + v["exclusive_ns"] / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_metrics(workload, multistart_probe):
    """The per-layer metrics of BENCHMARK.json: counts and phase shares
    from the traced repetition's --metrics and --profile files, per-call
    times from layer_probe, weighted by how often each job makes the call.

    attrib.explained_share takes the solves' time from the profile's
    chain.full_solve phases, not from full_solves x analyze_us: on the
    sparse route the façade's try_analyze_chain adds a block A/D cross-check
    that a descent's cache refresh never runs, and no façade entry point
    times the refresh alone."""
    if multistart_probe is None:
        raise CheckFailed("no multi_start_perturbed timing")
    parts, c, phases, busy = workload.layer_parts()
    total_ns = sum(v["exclusive_ns"] for v in phases.values()) or 1

    def share(pred):
        return sum(v["exclusive_ns"] for path, v in phases.items()
                   if pred(path.split(";"))) / total_ns

    searches = [v for path, v in phases.items()
                if path.split(";")[-1] == "line_search"]

    def weighted(key, weight):
        w = sum(p[weight] for p in parts)
        if w == 0:
            return statistics.fmean(p["probe"][key] for p in parts)
        return sum(p[weight] * p["probe"][key] for p in parts) / w

    solves = c.get("chain_cache.full_solves", 0)
    hits = c.get("chain_cache.exact_hits", 0)
    rows = c.get("chain_cache.row_updates", 0)
    probes = c.get("descent.line_search.probes", 0)
    iterations = c.get("descent.iterations", 0)
    accepted = c.get("descent.steps.accepted", 0)
    rejected = c.get("descent.steps.rejected", 0)
    solve_s = sum(v["inclusive_ns"] for path, v in phases.items()
                  if path.split(";")[-1] == "chain.full_solve") / 1e9
    explained_s = solve_s + sum(
        p["iterations"] * p["probe"]["gradient_us"]
        + p["probes"] * p["probe"]["value_us"] for p in parts) / 1e6
    workload.diagnostics["profile_shares"] = phase_shares(phases)
    return {
        "sensing.problem_build_ms": weighted("build_ms", "runs"),
        "markov.analyze_us": weighted("analyze_us", "solves"),
        "markov.stationary_us": weighted("stationary_us", "solves"),
        "markov.full_solves": solves,
        "markov.exact_hit_share": hits / max(1, solves + hits + rows),
        "markov.row_update_share": rows / max(1, solves + hits + rows),
        "markov.solve_share": share(lambda s: s[-1] == "chain_solve"
                                    or s[-1].startswith(("chain.",
                                                         "sparse."))),
        "sparse.full_solve_share":
            c.get("chain_cache.sparse_full_solves", 0) / max(1, solves),
        "cost.value_us": weighted("value_us", "probes"),
        "cost.terms_share": share(lambda s: "cost_terms" in s),
        "cost.gradient_us": weighted("gradient_us", "iterations"),
        "cost.gradient_share": share(lambda s: s[-1] == "gradient_assembly"),
        "descent.probes": probes,
        "descent.probes_per_iter": probes / max(1, iterations),
        "descent.probe_us": busy * 1e6 / max(1, probes),
        "descent.line_search_ms": sum(v["inclusive_ns"] for v in searches)
        / 1e6 / max(1, sum(v["count"] for v in searches)),
        "descent.search_share": share(lambda s: s[-1] == "line_search"),
        "descent.accept_share": accepted / max(1, accepted + rejected),
        "runtime.pool_eff": statistics.median(
            p["probe"]["pool_1_ms"] / (JOBS * p["probe"]["pool_n_ms"])
            for p in parts),
        "runtime.multistart_speedup": multistart_probe["multistart_1_ms"]
        / multistart_probe["multistart_n_ms"],
        "obs.traced_overhead": workload.overhead(),
        "attrib.explained_share": explained_s / busy,
    }


# --------------------------------------------------------------------- main

def measure(workloads, traced):
    """Round-robin repetitions across workloads, so a noisy-neighbour
    episode spreads over all of them. With tracing, the traced repetition
    follows the first plain one, on the same inputs."""
    ready = []
    for w in workloads:
        try:
            w.prepare()
            ready.append(w)
        except CheckFailed as e:
            w.fail("prepare", e)
    for k in range(max((w.reps for w in ready), default=0)):
        for w in ready:
            if k < w.reps:
                w.rep(k, False)
                if traced and k == 0:
                    w.rep(0, True)


def load_spec():
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise Fatal(f"cannot read {SPEC_PATH}: {e}") from e
    return spec


def print_metric(kind, workload, name, value, unit):
    print(f"{kind:<6} {workload:<17} {name:<28} {value:>16.10g} {unit}")


def reference_lines(workloads, seed):
    """Per-run costs against reference.json: diagnostics only, so a change
    that legitimately moves the descent trajectory is not blocked."""
    try:
        ref = json.loads((HERE / "reference.json").read_text())
    except (OSError, ValueError):
        return
    if ref.get("seed") != seed:
        print(f"ref    no reference costs for seed {seed} "
              f"(reference.json holds seed {ref.get('seed')})")
        return
    for w in workloads:
        expected = ref.get("costs", {}).get(w.name, {})
        for key, cost in sorted(w.costs.items()):
            if key in expected:
                rel = (cost - expected[key]) / abs(expected[key])
                print(f"ref    {w.name:<17} {key:<28} {cost:>16.8g} "
                      f"ref {expected[key]:.8g} rel {rel:+.2e}")


def smoke_checks(workloads):
    """Every correctness check must trip on a deliberately corrupted output."""
    problems = []
    city = next((w for w in workloads if isinstance(w, City)), None)
    if city is not None and city.plain and city.plain[0]["jobs"]:
        job = city.plain[0]["jobs"]["city-adaptive"]
        rows = read_schedule(job["dir"] / "city-adaptive.schedule")
        for label, bad in (("row", corrupt_row(rows)),
                           ("support", corrupt_support(rows, city.support))):
            try:
                check_rows(bad, city.support)
                problems.append(f"a corrupted {label} passed the check")
            except CheckFailed:
                print(f"smoke  {label} corruption caught")
    serve = next((w for w in workloads if isinstance(w, ServeMix)), None)
    if serve is not None and serve.passes():
        p = serve.passes()[0]
        try:
            check_responses(p.requests, p.responses[1:])
            problems.append("a dropped serve response passed the check")
        except CheckFailed:
            print("smoke  dropped-response corruption caught")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="sizes each workload's repetition count "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--build", type=Path, default=ROOT / ".bench_build" /
                    "mocos", help="CMake build tree (Release)")
    ap.add_argument("--out", type=Path, help="write the full result here")
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, every metric, corruption self-check")
    args = ap.parse_args()
    traced = bool(args.trace) or args.traced or args.smoke
    build_dir = args.build if args.build.is_absolute() else Path.cwd() / \
        args.build

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (
        0.0 if args.smoke else spec["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cache = build(build_dir)
    tools = {"cli": build_dir / "tools" / "mocos_cli",
             "serve": build_dir / "tools" / "mocos_serve",
             "probe": build_dir / "e2e" / "layer_probe"}
    tmp = build_dir / "tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    global LAUNCHER
    LAUNCHER = Launcher(build_dir / "e2e" / "peak_rss", tmp)
    try:
        scale = Scale(args.smoke)
        workloads = [WORKLOADS[n](args, scale, tools, tmp, seconds)
                     for n in names]
        measure(workloads, traced)
        ms_probe = None
        if traced:
            conf = write_conf(tmp / "fig2.conf", topology="grid:2x2",
                              alpha=0, beta=1, starts=16, iterations=200,
                              seed=args.seed)
            try:
                ms_probe = run_probe(tools["probe"], conf, None, 1000,
                                     multistart=True)
            except CheckFailed as e:
                workloads[0].fail("multistart probe", e)
        result = {"provenance": provenance(cache), "seed": args.seed,
                  "seconds": seconds, "traced": traced, "workloads": {}}
        final = {}
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        for w in workloads:
            if not w.plain:
                continue
            try:
                e2e = w.metrics()
                layers = layer_metrics(w, ms_probe) if traced else {}
            except (CheckFailed, KeyError, IndexError, ValueError,
                    ZeroDivisionError, statistics.StatisticsError) as e:
                w.fail("metrics", f"{type(e).__name__}: {e}")
                continue
            expected = [m["name"] for m in spec["end_to_end"]]
            if traced:
                expected += [m["name"] for m in spec["per_layer"]]
            if sorted(expected) != sorted({**e2e, **layers}):
                raise Fatal(f"{w.name}: metrics do not match BENCHMARK.json")
            for n, v in e2e.items():
                print_metric("e2e", w.name, n, v, units[n])
            for n, v in layers.items():
                print_metric("layer", w.name, n, v, units[n])
            for n, v in w.diagnostics.items():
                if isinstance(v, (int, float)):
                    print_metric("diag", w.name, n, v, "")
                else:
                    print(f"diag   {w.name:<17} {n} {json.dumps(v)}")
            shown = {**e2e, **layers} if args.smoke else (
                layers if traced else e2e)
            prefix = "" if len(workloads) == 1 else w.name + "."
            final.update({prefix + n: {"value": v, "unit": units[n]}
                          for n, v in shown.items()})
            result["workloads"][w.name] = {
                "metrics": e2e, "layers": layers,
                "diagnostics": w.diagnostics, "costs": w.costs,
                "reps": len(w.plain), "traced_reps": len(w.traced),
                "attempted": w.attempted, "failed": w.failed,
                "errors": w.errors}
        problems = []
        if args.smoke:  # toy sizes: the reference costs do not apply
            problems = smoke_checks(workloads)
        else:
            reference_lines(workloads, args.seed)
        for p in problems:
            print(f"smoke  FAILED: {p}", file=sys.stderr)
        attempted = sum(w.attempted for w in workloads)
        failed = sum(w.failed for w in workloads)
        correct = failed == 0 and attempted > 0 and not problems and len(
            result["workloads"]) == len(workloads)
        if args.out:
            args.out.write_text(json.dumps(result, indent=1, default=str)
                                + "\n")
        print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                          "failed": failed, "metrics": final}))
        return 0 if correct else 1
    finally:
        kill_all()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except Fatal as e:
        kill_all()
        print(f"run_e2e: {e}", file=sys.stderr)
        sys.exit(2)
