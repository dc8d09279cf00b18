// Headline scaling reproduction (abstract / Section 4): "the speed of the
// code scales linearly with the number of processors and number of
// particles".
//
// Two sweeps on the simulated machine:
//   (1) N sweep at the occupancy-based depth policy: time/particle and
//       cycles/particle should be ~flat (linear in N);
//   (2) VU sweep at fixed N: per-VU work should fall linearly while the
//       communication fraction stays bounded (the paper: 10-25%).
//
// --dist {uniform,plummer,two-clusters} selects the particle distribution.
// The N sweep is written to BENCH_scaling.json (--json=FILE) with the
// host's core count ("nproc"), the distribution, and the active-box count,
// the per-level active-box occupancy and the near-field pair count of every
// row. Every figure but the cold time comes from warm solves: the median of
// kWarmSolves timed solves that follow the cold one and one untimed warm-up
// (the JSON also carries their min and max), and the breakdown of the solve
// whose time is that median.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

constexpr int kWarmSolves = 5;

ParticleSet make_dist(const std::string& dist, std::size_t n,
                      std::uint64_t seed) {
  if (dist == "plummer") return make_plummer(n, Box3{}, seed);
  if (dist == "two-clusters") return make_two_clusters(n, Box3{}, seed);
  if (dist != "uniform") {
    std::fprintf(stderr, "unknown --dist %s (uniform|plummer|two-clusters)\n",
                 dist.c_str());
    std::exit(1);
  }
  return make_uniform(n, Box3{}, seed);
}

// No --kernel (empty string) means Laplace.
core::KernelType parse_kernel(const std::string& name) {
  if (name.empty() || name == "laplace") return core::KernelType::kLaplace3d;
  if (name == "vdw") return core::KernelType::kVanDerWaals;
  std::fprintf(stderr, "unknown --kernel %s (laplace|vdw)\n", name.c_str());
  std::exit(1);
}

// Retargets a config at the short-range vdW kernel: two-type Rmin/eps
// table at unit-box scale, KernelSpec's default switching window.
void apply_vdw(core::FmmConfig& cfg) {
  cfg.kernel.type = core::KernelType::kVanDerWaals;
  cfg.kernel.vdw_rmin = {0.02, 0.016};
  cfg.kernel.vdw_epsilon = {1.0, 0.5};
}

void type_particles(ParticleSet& p) {
  p.ensure_types();
  for (std::size_t i = 0; i < p.size(); ++i)
    p.set_type(i, static_cast<std::int32_t>(i % 2));
}

struct WarmSolves {
  double median = 0.0, min = 0.0, max = 0.0;
  PhaseBreakdown breakdown;  ///< of the solve whose time is the median
};

// One untimed warm-up, then kWarmSolves timed solves on the reused
// plan/workspace: the steady-state cost and its spread.
WarmSolves time_warm_solves(core::FmmSolver& solver, const ParticleSet& p) {
  (void)solver.solve(p);
  std::vector<std::pair<double, PhaseBreakdown>> runs;
  for (int rep = 0; rep < kWarmSolves; ++rep) {
    WallTimer t;
    core::FmmResult r = solver.solve(p);
    runs.emplace_back(t.seconds(), std::move(r.breakdown));
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  auto& mid = runs[runs.size() / 2];  // kWarmSolves is odd
  return {mid.first, runs.front().first, runs.back().first,
          std::move(mid.second)};
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_scaling.json";
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const std::size_t nmax =
      static_cast<std::size_t>(cli.get("nmax", std::int64_t{256000}));
  const std::string dist = cli.get("dist", std::string("uniform"));
  const core::KernelType kernel =
      parse_kernel(cli.get("kernel", std::string()));
  const bool vdw = kernel == core::KernelType::kVanDerWaals;

  bench::print_header("bench_scaling",
                      "Abstract/Section 4 — linear scaling in N and P; "
                      "communication fraction 10-25%");

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_scaling\",\n  \"nproc\": %u,\n"
                 "  \"dist\": \"%s\",\n  \"kernel\": \"%s\",\n"
                 "  \"n_sweep\": [",
                 std::thread::hardware_concurrency(), dist.c_str(),
                 core::to_string(kernel));

  // ---- Sweep 1: N, shared-memory executor, supernodes on (the paper's
  // production configuration).
  std::printf("[1] particle-count sweep (threads executor, supernodes, "
              "dist %s, kernel %s)\n\n",
              dist.c_str(), core::to_string(kernel));
  Table t1({"N", "depth", "cold (s)", "warm (s)", "warm us/particle",
            "cycles/particle", "Gflop", "efficiency", "near pairs"});
  bool first_row = true;
  for (std::size_t n = nmax / 16; n <= nmax; n *= 4) {
    core::FmmConfig cfg;
    cfg.supernodes = true;
    if (vdw) apply_vdw(cfg);
    ParticleSet p = make_dist(dist, n, 606);
    if (vdw) type_particles(p);
    core::FmmSolver solver(cfg);
    (void)solver.precompute();
    WallTimer t;
    const core::FmmResult r = solver.solve(p);
    const double secs = t.seconds();
    const WarmSolves w = time_warm_solves(solver, p);
    const std::uint64_t near_pairs =
        w.breakdown.phases().count("near")
            ? w.breakdown.phases().at("near").pairs
            : 0;
    t1.row({Table::num(std::uint64_t(n)), Table::num(std::uint64_t(r.depth)),
            Table::num(secs, 3), Table::num(w.median, 3),
            Table::num(1e6 * w.median / static_cast<double>(n), 3),
            Table::num(bench::cycles_per_particle(w.median, n), 4),
            Table::num(static_cast<double>(w.breakdown.total_flops()) / 1e9,
                       3),
            Table::percent(bench::efficiency(w.breakdown.total_flops(),
                                             w.breakdown.total_seconds())),
            Table::num(near_pairs)});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    { \"n\": %zu, \"depth\": %d, "
                   "\"kernel\": \"%s\", "
                   "\"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
                   "\"warm_min_seconds\": %.6f, "
                   "\"warm_max_seconds\": %.6f, \"warm_repeats\": %d, "
                   "\"near_pairs\": %llu, "
                   "\"active_boxes\": %zu, "
                   "\"workspace_bytes\": %zu, \"occupancy\": [",
                   first_row ? "" : ",", n, r.depth,
                   core::to_string(r.kernel), secs, w.median, w.min, w.max,
                   kWarmSolves,
                   static_cast<unsigned long long>(near_pairs),
                   r.active_boxes, r.workspace_bytes);
      for (std::size_t l = 0; l < r.level_occupancy.size(); ++l)
        std::fprintf(json, "%s%.6f", l == 0 ? "" : ", ",
                     r.level_occupancy[l]);
      std::fprintf(json, "] }");
      first_row = false;
    }
  }
  t1.print(std::cout);

  // ---- Sweep 2: VU count on the simulated data-parallel machine.
  std::printf("\n[2] VU sweep (data-parallel executor, N fixed)\n\n");
  const std::size_t n_dp =
      static_cast<std::size_t>(cli.get("ndp", std::int64_t{32000}));
  bench::check_unused(cli);
  ParticleSet p = make_dist(dist, n_dp, 607);
  if (vdw) type_particles(p);
  Table t2({"VUs", "depth", "est. compute/VU (s)", "est. comm (s)",
            "comm fraction", "off-VU MB", "messages"});
  if (json != nullptr) std::fprintf(json, "\n  ],\n  \"vu_sweep\": [");
  first_row = true;
  for (const std::int32_t vu : {1, 2, 4}) {
    core::FmmConfig cfg;
    cfg.mode = core::ExecutionMode::kDataParallel;
    cfg.machine = {vu, vu, vu};
    cfg.depth = 4;
    if (vdw) apply_vdw(cfg);
    const std::size_t vus = cfg.machine.total_vus();
    core::FmmSolver solver(cfg);
    (void)solver.precompute();
    const core::FmmResult r = solver.solve(p);
    const WarmSolves w = time_warm_solves(solver, p);
    // Estimated per-VU compute: total warm wall compute divided over VUs
    // (the simulated VUs time-share the host), plus the modeled comm time.
    const double comm = w.breakdown.phases().count("comm")
                            ? w.breakdown.phases().at("comm").seconds
                            : 0.0;
    const double per_vu = w.median / static_cast<double>(vus);
    t2.row({Table::num(std::uint64_t(vus)),
            Table::num(std::uint64_t(r.depth)), Table::num(per_vu, 3),
            Table::num(comm, 3), Table::percent(comm / (per_vu + comm)),
            Table::num(static_cast<double>(r.comm.off_vu_bytes) / 1e6, 3),
            Table::num(r.comm.messages)});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    { \"vus\": %zu, \"depth\": %d, "
                   "\"kernel\": \"%s\", "
                   "\"warm_seconds\": %.6f, \"warm_min_seconds\": %.6f, "
                   "\"warm_max_seconds\": %.6f, \"warm_repeats\": %d, "
                   "\"comm_seconds\": %.6f, \"off_vu_bytes\": %llu, "
                   "\"messages\": %llu }",
                   first_row ? "" : ",", vus, r.depth,
                   core::to_string(r.kernel), w.median, w.min, w.max,
                   kWarmSolves, comm,
                   static_cast<unsigned long long>(r.comm.off_vu_bytes),
                   static_cast<unsigned long long>(r.comm.messages));
      first_row = false;
    }
  }
  t2.print(std::cout);
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nscaling JSON written to %s\n", json_path);
  }
  std::printf(
      "\npaper shape to verify: us/particle and cycles/particle flat in N\n"
      "(linear total time); per-VU time falls ~linearly with VUs while the\n"
      "communication fraction stays bounded (paper: 10-25%%).\n");
  return 0;
}
