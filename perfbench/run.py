#!/usr/bin/env python3
"""Build and run the hfmm benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form builds the benchmark driver from this checkout's sources into
.bench_build (configured once, rebuilt incrementally) and runs one workload;
the last line of its output is the result object. --trace 1 also writes the
run's spans to .bench_build/traces/ as Chrome trace-event JSON.

--self-test checks that the benchmark's sources name none of the retired
identifiers in perfbench/retired_api.txt, then runs every workload of
BENCHMARK.json once at small N (the driver's --smoke), untraced and traced,
and checks that each run passed its correctness gate, emitted every metric
BENCHMARK.json names as a finite number with its unit, and that the trace
parses.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hfmm_perfbench"
TRACE_DIR = BUILD_DIR / "traces"
RETIRED_API = BENCH_DIR / "retired_api.txt"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures on first use and brings the driver up to date."""
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hfmm_perfbench", "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def revision():
    """The git revision of the checkout, or "unknown" outside git."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown"


def driver_command(workload, seed, seconds, trace, smoke, trace_file):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--sha={revision()}"]
    if trace:
        cmd.append(f"--trace-file={trace_file}")
    if smoke:
        cmd.append("--smoke")
    return cmd


def run(args):
    if not build():
        return 1
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    cmd = driver_command(args.workload, args.seed, args.seconds, args.trace,
                         False, trace_file)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


def retired_api_uses():
    """Every match of a retired-identifier pattern in the benchmark's files."""
    patterns = [re.compile(line) for line in
                RETIRED_API.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
    found = []
    for f in sorted(BENCH_DIR.rglob("*")):
        if f == RETIRED_API or not f.is_file():
            continue
        text = f.read_text(errors="replace")
        for pat in patterns:
            for m in pat.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                found.append(f"{f.relative_to(ROOT)}:{line}: {m.group(0)}")
    return found


def check_result(stdout, expected):
    """Problems with one run's result line against the metrics expected."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correctness gate: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(metrics) ^ set(names)):
        problems.append(f"metric {name} " +
                        ("not emitted" if name in names else "not declared"))
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r}")
        if m.get("unit") != unit:
            problems.append(f"metric {name} unit {m.get('unit')!r} != {unit!r}")
    return problems


def check_trace(path):
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return [f"trace {path}: {e}"]
    if not events:
        return [f"trace {path}: no events"]
    bad = [e for e in events
           if e.get("ph") != "X" or not {"name", "ts", "dur"} <= set(e)]
    return [f"trace {path}: {len(bad)} malformed events"] if bad else []


def self_test():
    problems = [f"retired API named: {u}" for u in retired_api_uses()]
    if not build():
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    TRACE_DIR.mkdir(exist_ok=True)
    for w in spec["workloads"]:
        for trace in (0, 1):
            trace_file = TRACE_DIR / f"selftest-{w['name']}.json"
            cmd = driver_command(w["name"], 1, 1, trace, True, trace_file)
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
            found = [] if r.returncode == 0 else [f"exit code {r.returncode}"]
            found += check_result(
                r.stdout, spec["per_layer" if trace else "end_to_end"])
            if trace:
                found += check_trace(trace_file)
            label = f"{w['name']} trace={trace}"
            log(f"{label}: " + ("ok" if not found else "; ".join(found)))
            problems += [f"{label}: {p}" for p in found]
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
