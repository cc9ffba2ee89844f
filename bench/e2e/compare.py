#!/usr/bin/env python3
"""Paired comparison of two mocos checkouts on the end-to-end benchmark.

    python3 bench/e2e/compare.py --base PARENT_DIR --change CHANGE_DIR
        [--pairs 10] [--workload all|NAME] [--seed 1] [--seconds S]
        [--save FILE]
    python3 bench/e2e/compare.py --load FILE

Runs bench/e2e/run_e2e.py in both checkouts for --pairs pairs (at least
10). Pair i uses seed --seed + i on both sides, and the side that runs
first alternates from pair to pair. Then it reports, for each workload and
end-to-end metric, each side's median and quartiles, the change's win
share (ties count for neither side) and a verdict:

  gain          the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's own quartile spread
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
  unresolved    a side's quartile spread, relative to its median, exceeds
                the bound, and not every change run beats every parent run
  no change     none of the above

Results whose hardware metadata (nproc, CPU model, compiler, build type)
differ are refused, and so are checkouts whose benchmark files
(BENCHMARK.json and bench/e2e/ apart from results/) differ. Exit status: 0
without regressions, 1 with one, 2 on an error.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HARDWARE = ("nproc", "cpu_model", "compiler", "build_type")
MIN_PAIRS = 10


def fail(message):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def run_side(checkout, workload, seed, seconds):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "result.json"
        cmd = ["python3", "bench/e2e/run_e2e.py", "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if r.returncode != 0:
            fail(f"{checkout}: run_e2e.py exited {r.returncode}\n"
                 f"{r.stderr.strip()}")
        return json.loads(out.read_text())


def benchmark_files(checkout):
    """{relative path: sha256} of BENCHMARK.json and every file under
    bench/e2e/ except the committed results."""
    e2e = checkout / "bench" / "e2e"
    paths = [checkout / "BENCHMARK.json"] + [
        p for p in sorted(e2e.rglob("*")) if p.is_file()
        and not {"results", "__pycache__"} & set(p.relative_to(e2e).parts)]
    return {str(p.relative_to(checkout)):
            hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def run_pairs(args):
    base, change = Path(args.base), Path(args.change)
    files = benchmark_files(base), benchmark_files(change)
    differ = sorted(rel for rel in files[0].keys() | files[1].keys()
                    if files[0].get(rel) != files[1].get(rel))
    if differ:
        fail(f"benchmark files differ between the checkouts ("
             f"{', '.join(differ)}); both sides must be measured with the "
             "same benchmark")
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("base", base), ("change", change)]
        if i % 2:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, checkout in order:
            pair[side] = run_side(checkout, args.workload, seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: {side} done",
                  file=sys.stderr)
        pairs.append(pair)
    spec = json.loads((base / "BENCHMARK.json").read_text())
    return {"benchmark": spec, "pairs": pairs}


def check_hardware(pairs):
    seen = {}
    for pair in pairs:
        for side in ("base", "change"):
            prov = pair[side]["provenance"]
            key = tuple(prov.get(k) for k in HARDWARE)
            seen.setdefault(key, f"{side} seed {pair['seed']}")
    if len(seen) > 1:
        rows = "\n".join(f"  {dict(zip(HARDWARE, k))} ({where})"
                         for k, where in seen.items())
        fail(f"results come from different hardware:\n{rows}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    share = wins / len(base)
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if len(base) < MIN_PAIRS:
        text = f"too few pairs ({len(base)} < {MIN_PAIRS})"
    elif worse_by > bound:
        text = "regression"
    elif share >= 0.9 and abs(cm - bm) > (b3 - b1) and sign * (bm - cm) > 0:
        text = "gain"
    elif spread > bound and not all_better:
        text = "unresolved"
    else:
        text = "no change"
    return share, worse_by, text


def report(data):
    pairs = data["pairs"]
    check_hardware(pairs)
    spec = data["benchmark"]
    workloads = sorted(set().union(*(p["base"]["workloads"] for p in pairs)))
    shas = [pairs[0][side]["provenance"]["git_sha"]
            for side in ("base", "change")]
    print(f"{len(pairs)} pairs; base {shas[0]} vs change {shas[1]}")
    print(f"{'workload':<17} {'metric':<12} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse':>8} {'wins':>5}  verdict")
    regressions = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [p["base"]["workloads"][w]["metrics"][name] for p in pairs]
            change = [p["change"]["workloads"][w]["metrics"][name]
                      for p in pairs]
            share, worse_by, text = verdict(base, change, m["better"],
                                            m["bound"])
            regressions += text == "regression"
            b1, bm, b3 = quartiles(base)
            c1, cm, c3 = quartiles(change)
            print(f"{w:<17} {name:<12} "
                  f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>32} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>32} "
                  f"{worse_by:>+8.2%} {share:>5.0%}  {text} "
                  f"(bound {m['bound']:.0%}, {m['unit']})")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="parent checkout")
    ap.add_argument("--change", help="changed checkout")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", type=Path, help="write the raw pairs here")
    ap.add_argument("--load", type=Path, help="report saved pairs")
    args = ap.parse_args()
    if args.load:
        data = json.loads(args.load.read_text())
    elif args.base and args.change:
        if args.pairs < MIN_PAIRS:
            ap.error(f"--pairs must be at least {MIN_PAIRS}")
        data = run_pairs(args)
    else:
        ap.error("give --base and --change, or --load")
    if args.save:
        args.save.write_text(json.dumps(data, indent=1) + "\n")
    return report(data)


if __name__ == "__main__":
    sys.exit(main())
