#!/usr/bin/env bash
# Tier-1 check: build + ctest once normally, once as a Release build, once
# with ASan + UBSan (HFMM_SANITIZE=address,undefined), and once with TSan
# (HFMM_SANITIZE=thread — the concurrent phase-graph scheduler is the main
# subject). Run from the repository root:
#   tools/check.sh [jobs] [lane]
# `lane` selects which suites run (default all): plain | asan | tsan |
# release | service | all — CI runs the lanes as separate matrix jobs. The
# `release` lane builds with -DCMAKE_BUILD_TYPE=Release (-O3) and runs the
# full suite and the bench smokes there, so the bitwise contract
# (seq == threads) holds at -O3 too. The `service` lane is the focused fast
# path for the solver-service stack: the service/C-API suites plain AND
# under TSan (the multi-tenant scheduler and the shared plan cache are the
# main data-race subjects).
set -euo pipefail

jobs="${1:-$(nproc)}"
lane="${2:-all}"
case "$lane" in
  all|plain|asan|tsan|release|service) ;;
  *) echo "unknown lane '$lane' (plain|asan|tsan|release|service|all)" >&2
     exit 2 ;;
esac
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@" >/dev/null
  cmake --build "$build_dir" -j "$jobs"
  # The full suite holds the short-range kernel (DESIGN.md §16) and solver
  # service (§17) suites and the clustered warm-solve fixture
  # (reuse_test_clustered); each runs here once.
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
  # Bench smokes (plain tree only — sanitizer trees build no bench).
  if [[ -x "$build_dir/bench/bench_scaling" ]]; then
    clustered_bench_smoke "$build_dir"
    vdw_bench_smoke "$build_dir"
  fi
}

# Clustered bench smoke: every Plummer row must leave boxes inactive
# (active-box count below the box count of levels 0..depth), and every
# breakdown config must carry pair counts, non-empty occupancy and a
# non-empty near phase. The same breakdown run holds the vdW rows, whose
# far phases must be empty DAG nodes (DESIGN.md §16), and whose near lists
# are cut to the cutoff: each evaluates under a quarter of the pairs of the
# Laplace row on the same input.
clustered_bench_smoke() {
  local build_dir="$1"
  echo "== clustered bench smoke =="
  "$build_dir/bench/bench_scaling" --nmax=32000 --ndp=8000 \
    --dist=plummer --json="$build_dir/smoke_scaling.json" >/dev/null
  grep -q '"near_pairs"' "$build_dir/smoke_scaling.json"
  "$build_dir/bench/bench_breakdown" --n=20000 --dist=plummer \
    --json="$build_dir/smoke_breakdown.json" >/dev/null
  grep -q '"pairs"' "$build_dir/smoke_breakdown.json"
  python3 - "$build_dir" << 'EOF'
import json, sys
def all_boxes(depth):
    return sum(8 ** l for l in range(depth + 1))
build = sys.argv[1]
for row in json.load(open(f"{build}/smoke_scaling.json"))["n_sweep"]:
    assert row["active_boxes"] < all_boxes(row["depth"]), row["n"]
configs = json.load(open(f"{build}/smoke_breakdown.json"))["configs"]
labels = {c["label"] for c in configs}
for label in ("plummer_d4_sparse", "plummer_d5_sparse", "plummer_sparse_auto",
              "kernel_laplace", "kernel_vdw"):
    assert label in labels, label
def near_of(c):
    return [p for p in c["phases"] if p["phase"] == "near"][0]
laplace_pairs = near_of(
    [c for c in configs if c["label"] == "kernel_laplace"][0])["pairs"]
for c in configs:
    assert c["occupancy"], f"empty occupancy for {c['label']}"
    near = near_of(c)
    assert near["boxes_total"] > 0, f"zero near boxes for {c['label']}"
    if c["dist"] == "plummer":
        assert c["active_boxes"] < all_boxes(c["depth"]), c["label"]
    if c["kernel"] == "vdw":
        far = [p for p in c["phases"] if p["phase"] in
               ("p2m", "upward", "interactive", "downward", "l2p")]
        assert len(far) == 5, f"missing far phases for {c['label']}"
        for p in far:
            assert p["boxes_active"] == 0 and p["pairs"] == 0, \
                f"non-empty far phase {p['phase']} for {c['label']}"
        assert near["pairs"] > 0, f"zero near pairs for {c['label']}"
        assert 4 * near["pairs"] < laplace_pairs, \
            f"{c['label']}: {near['pairs']} near pairs, Laplace {laplace_pairs}"
EOF
}

# vdW bench smoke: --kernel retargets the sweep at the short-range kernel
# and every row records it.
vdw_bench_smoke() {
  local build_dir="$1"
  echo "== vdW bench smoke =="
  "$build_dir/bench/bench_scaling" --nmax=16000 --ndp=4000 --kernel=vdw \
    --json="$build_dir/smoke_vdw.json" >/dev/null
  grep -q '"kernel": "vdw"' "$build_dir/smoke_vdw.json"
  grep -q '"near_pairs"' "$build_dir/smoke_vdw.json"
}

run_service_tests() {
  local build_dir="$1"
  ctest --test-dir "$build_dir" --output-on-failure \
    -R 'ServiceTest|CApiTest|SharedMapTest|PlanCacheTest|service_client'
}

# The focused service lane: service/C-API suites on the plain tree, then
# the same suites under TSan.
run_service_lane() {
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  echo "== service suite: plain =="
  run_service_tests build
  echo "== service suite: TSan =="
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  cmake -B build-tsan -S . \
    -DHFMM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHFMM_BUILD_BENCH=OFF -DHFMM_BUILD_EXAMPLES=ON >/dev/null
  cmake --build build-tsan -j "$jobs"
  run_service_tests build-tsan
}

if [[ "$lane" == service ]]; then
  run_service_lane
  echo "== service lane passed =="
  exit 0
fi

# What a solve computes comes from its config structs alone: only the two
# instruction-set selectors (HFMM_BLAS_KERNEL, HFMM_PKERN_KERNEL) and the
# parser they share may read the environment.
env_readers_check() {
  local allowed=" src/util/env.cpp src/blas/kernels.cpp src/pkern/kernels.cpp "
  local file bad=0
  while IFS= read -r file; do
    if [[ "$allowed" != *" $file "* ]]; then
      echo "reads the environment outside the backend selectors: $file" >&2
      bad=1
    fi
  done < <(git grep -lE 'getenv\(|env::parse_' -- src include)
  return "$bad"
}

# The plain and Release lanes fail on any compiler warning
# (CMAKE_COMPILE_WARNING_AS_ERROR, CMake >= 3.24), so a new warning cannot
# hide in the lane logs.
if [[ "$lane" == all || "$lane" == plain ]]; then
  echo "== environment readers =="
  env_readers_check
  echo "== tier-1: plain build =="
  run_suite build -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
fi

if [[ "$lane" == all || "$lane" == release ]]; then
  echo "== tier-1: Release build =="
  run_suite build-release -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
fi

if [[ "$lane" == all || "$lane" == asan ]]; then
  echo "== tier-1: ASan + UBSan build =="
  # halt_on_error so UBSan findings fail the suite instead of just logging.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  asan_flags=(-DHFMM_SANITIZE=address,undefined
              -DCMAKE_BUILD_TYPE=RelWithDebInfo
              -DHFMM_BUILD_BENCH=OFF -DHFMM_BUILD_EXAMPLES=OFF)
  cmake -B build-sanitize -S . "${asan_flags[@]}" >/dev/null
  cmake --build build-sanitize -j "$jobs"
  # Far-field scratch race: without supernodes the upward and interactive
  # stages of a threaded solve share per-chunk scratch, and only the graph
  # edge from the end of the upward chain to the first T2 stage keeps them
  # apart. Repeat the two solves that exposed a missing edge until one
  # fails, before the full suite, so the race is attributed on its own row.
  echo "== far-field scratch race repeats =="
  ctest --test-dir build-sanitize --output-on-failure --repeat until-fail:50 \
    -R 'FmmSolverTest.ThreadedNoSupernodesMatchesSequentialBitwise|FmmSolverTest.PaperAccuracyHeadlines'
  run_suite build-sanitize "${asan_flags[@]}"
fi

if [[ "$lane" == all || "$lane" == tsan ]]; then
  echo "== tier-1: TSan build =="
  # TSan is exclusive of ASan, so it gets its own tree. halt_on_error makes
  # any reported race fail the suite.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  run_suite build-tsan \
    -DHFMM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHFMM_BUILD_BENCH=OFF -DHFMM_BUILD_EXAMPLES=OFF
fi

echo "== all checks passed =="
