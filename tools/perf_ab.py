#!/usr/bin/env python3
"""A/B the benchmark of two revisions in alternating pairs.

  python3 tools/perf_ab.py --base REV --change REV [--workloads a,b]
                           [--pairs N] [--seconds S] [--seed0 N] [--trace 0|1]
                           [--json FILE] [--keep DIR]
  python3 tools/perf_ab.py --self-test

Each revision is exported with `git archive` into its own temporary
directory (the working tree is never touched), built there by one short
warm-up run of `perfbench/run.py`, and then run in pairs: for each workload
and pair, both sides run the same seed back to back, and the side that runs
first alternates from pair to pair, so a drift of the host lands on both.

For every metric of BENCHMARK.json (the end-to-end list, or the per-layer
list with --trace 1) the report gives each side's median and IQR (the
distance between the quartiles), the change's delta against the base
median in the metric's own direction (+ is worse), and how many pairs the
change won. The header stamps both SHAs and `nproc`.

Verdict: exit 1 when a change median is worse than the base median by more
than the metric's BENCHMARK.json bound, or when a larger share of the
change's operations failed; otherwise exit 0. Per-layer metrics have no
bound and are reported only.

--self-test checks the statistics and the verdict on canned result lines,
with no build or run: an A/A set must flag nothing, and a planted +40%
`step_s` and a planted failed operation must each be flagged.
"""

import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def log(msg):
    print(f"perf_ab: {msg}", file=sys.stderr, flush=True)


def parse_result(stdout):
    """The result object on the last line of one perfbench run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    return {"attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: float(m["value"])
                        for name, m in result["metrics"].items()}}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def worse_by(metric, base, change):
    """How much worse `change` is than `base`, relative to base, in the
    metric's direction (positive is worse)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return delta if metric["better"] == "lower" else -delta


def summarize(metrics, pairs):
    """Per-metric statistics and the verdict for one workload.

    `pairs` is a list of (base_result, change_result) from parse_result.
    Returns (rows, problems, share): one dict per metric, the flagged
    findings, and each side's share of failed operations.
    """
    rows, problems = [], []
    for m in metrics:
        name = m["name"]
        base = [b["metrics"][name] for b, _ in pairs if name in b["metrics"]]
        chg = [c["metrics"][name] for _, c in pairs if name in c["metrics"]]
        if not base or not chg:
            problems.append(f"{name}: not emitted")
            continue
        wins = sum(1 for b, c in pairs
                   if name in b["metrics"] and name in c["metrics"]
                   and worse_by(m, b["metrics"][name], c["metrics"][name]) < 0)
        row = {"metric": name, "unit": m.get("unit", ""),
               "better": m["better"], "bound": m.get("bound"),
               "base_median": statistics.median(base), "base_iqr": iqr(base),
               "change_median": statistics.median(chg),
               "change_iqr": iqr(chg), "wins": wins, "pairs": len(pairs)}
        row["worse"] = worse_by(m, row["base_median"], row["change_median"])
        # Beyond the noise: the medians differ by more than the base IQR.
        row["beyond_iqr"] = (abs(row["change_median"] - row["base_median"])
                             > row["base_iqr"])
        if row["bound"] is not None and row["worse"] > row["bound"]:
            problems.append(f"{name}: change median {row['worse']:+.1%} "
                            f"worse than base, bound {row['bound']:.0%}")
        rows.append(row)
    share = {}
    for side, idx in (("base", 0), ("change", 1)):
        attempted = sum(p[idx]["attempted"] for p in pairs)
        failed = sum(p[idx]["failed"] for p in pairs)
        share[side] = failed / attempted if attempted else 0.0
    if share["change"] > share["base"]:
        problems.append(f"failed operations: change {share['change']:.2%} "
                        f"> base {share['base']:.2%}")
    return rows, problems, share


def print_report(workload, rows, share, problems, out=sys.stdout):
    print(f"\n== {workload} ==", file=out)
    print(f"{'metric':<34}{'base med':>12}{'base IQR':>11}{'chg med':>12}"
          f"{'chg IQR':>11}{'delta':>9}{'wins':>7}  beyond IQR", file=out)
    for r in rows:
        print(f"{r['metric']:<34}{r['base_median']:>12.5g}"
              f"{r['base_iqr']:>11.3g}{r['change_median']:>12.5g}"
              f"{r['change_iqr']:>11.3g}{r['worse']:>+9.1%}"
              f"{r['wins']:>4}/{r['pairs']:<2}  "
              f"{'yes' if r['beyond_iqr'] else 'no'}", file=out)
    print(f"failed share: base {share['base']:.2%}, change "
          f"{share['change']:.2%}", file=out)
    for p in problems:
        print(f"FLAG {workload}: {p}", file=out)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha, dest):
    """Writes the tree of `sha` into `dest` with git archive."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_bench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode not in (0, 1):
        sys.stderr.write(r.stderr[-4000:])
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {r.returncode}")
    return parse_result(r.stdout)


def nproc():
    return len(os.sched_getaffinity(0))


def ab(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    shas = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    workdir = Path(args.keep or tempfile.mkdtemp(prefix="perf_ab-"))
    trees = {side: workdir / sha[:12] for side, sha in shas.items()}
    print(f"base {shas['base']}\nchange {shas['change']}\nnproc {nproc()}\n"
          f"pairs {args.pairs} x {args.seconds:g} s, seeds from {args.seed0}, "
          f"trace {args.trace}", flush=True)
    record = {"base": shas["base"], "change": shas["change"],
              "nproc": nproc(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    flagged = []
    try:
        for side, tree in trees.items():
            if not (tree / "perfbench").exists():
                tree.mkdir(parents=True, exist_ok=True)
                export(shas[side], tree)
            log(f"building {side} in {tree}")
            run_bench(tree, workloads[0], 0, 1, 0)
        for w in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {side: run_bench(trees[side], w, seed, args.seconds,
                                       args.trace) for side in order}
                pairs.append((got["base"], got["change"]))
                log(f"{w} pair {i + 1}/{args.pairs} (seed {seed}, "
                    f"{order[0]} first) done")
            rows, problems, share = summarize(metrics, pairs)
            print_report(w, rows, share, problems)
            sys.stdout.flush()
            flagged += [f"{w}: {p}" for p in problems]
            record["workloads"][w] = {
                "runs": [{"seed": args.seed0 + i, "base": b, "change": c}
                         for i, (b, c) in enumerate(pairs)],
                "summary": rows, "failed_share": share, "flags": problems}
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    print("\nverdict: " + ("FLAGGED" if flagged else "nothing flagged"))
    return 1 if flagged else 0


def canned_line(rng, step_s, failed=0, attempted=100):
    """One run's result line as hfmm_perfbench prints it, with noise."""
    def jitter(v):
        return v * (1.0 + rng.uniform(-0.05, 0.05))
    step = jitter(step_s)
    metrics = {"step_s": (step, "s"), "step_tail_s": (jitter(1.1 * step), "s"),
               "solves_per_s": (8.0 / step, "1/s"),
               "setup_s": (jitter(0.27), "s"), "rel_err": (jitter(3.7e-4), "1"),
               "peak_rss_mb": (jitter(190.0), "MB")}
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    bad = []
    # The statistics on known values.
    if statistics.median([3.0, 1.0, 2.0]) != 2.0 or iqr([1, 2, 3, 4, 5]) != 3.0:
        bad.append("median/IQR of known values")
    lower = {"better": "lower"}
    if abs(worse_by(lower, 1.0, 1.4) - 0.4) > 1e-12 or \
            abs(worse_by({"better": "higher"}, 10.0, 6.0) - 0.4) > 1e-12:
        bad.append("worse_by direction")

    def pairs_for(change_step=1.0, change_failed_run=None):
        rng = random.Random(7)
        out = []
        for i in range(10):
            base = parse_result(canned_line(rng, 0.13))
            chg = parse_result(canned_line(
                rng, 0.13 * change_step,
                failed=1 if i == change_failed_run else 0))
            out.append((base, chg))
        return out

    _, problems, _ = summarize(metrics, pairs_for())
    if problems:
        bad.append(f"A/A set flagged: {problems}")
    _, problems, _ = summarize(metrics, pairs_for(change_step=1.4))
    if not any(p.startswith("step_s:") for p in problems):
        bad.append("planted +40% step_s not flagged")
    _, problems, _ = summarize(metrics, pairs_for(change_failed_run=3))
    if not any(p.startswith("failed operations") for p in problems):
        bad.append("planted failed operation not flagged")
    rows, _, _ = summarize(metrics, pairs_for(change_step=0.6))
    step = next(r for r in rows if r["metric"] == "step_s")
    if step["wins"] != 10 or not step["beyond_iqr"]:
        bad.append(f"planted -40% step_s: wins {step['wins']}, "
                   f"beyond IQR {step['beyond_iqr']}")
    for b in bad:
        print(f"FAIL {b}")
    print("self-test " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base")
    ap.add_argument("--change")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run and the summary here")
    ap.add_argument("--keep", help="export into DIR/<sha> and keep it; a "
                    "tree already there is reused with its build")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        ap.error("--base and --change are required")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
