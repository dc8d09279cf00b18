// Section 4 headline reproduction: per-phase time breakdown, overall
// efficiency (paper: ~27% at D=5, ~35% at D=14 equivalents) and
// communication fraction (paper: 10-25% for large systems).
//
// Alongside the tables, the per-phase trajectory is written to
// BENCH_breakdown.json (override with --json=FILE; same machine-diffable
// shape as BENCH_kernels.json):
//   { "bench": "bench_breakdown", "nproc": 4,
//     "configs": [ { "label": "d5_k12", "n":.., "k":.., "depth":..,
//       "mode": "threads", "dist": "uniform",
//       "active_boxes":.., "workspace_bytes":..,
//       "occupancy": [..],
//       "total_seconds":.., "warm_seconds":.., "warm_allocs":..,
//       "total_gflop":..,
//       "phases": [ {"phase": "near", "seconds":.., "gflop":..,
//                    "imbalance":.., "boxes_active":.., "boxes_total":..,
//                    "pairs":..},
//                   ... ] },
//       ... ],
//     "integrator": { "n":.., "steps":.., "first_eval_seconds":..,
//       "warm_step_seconds":.. } }
// total_seconds is the COLD solve (plan + workspace built); warm_seconds is
// the best-of-3 warm solve on the reused plan/workspace.
//
// --dist {uniform,plummer,two-clusters} selects the particle distribution
// for the headline configs; pinned Plummer N=100k rows at depth 4, depth 5
// and the automatic depth always run, so the clustered cold/warm cost,
// active-box count, workspace footprint and near-field pair count stay
// diffable.

#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

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

struct RunOpts {
  std::string dist = "uniform";
  int depth = -1;  // -1 = occupancy policy
  core::KernelType kernel = core::KernelType::kLaplace3d;
  bool vdw_periodic = false;
};

void run(const char* label, const char* slug, const anderson::Params& params,
         std::size_t n, bool dp_mode, std::FILE* json, bool first,
         const RunOpts& opts = {}) {
  core::FmmConfig cfg;
  cfg.params = params;
  cfg.supernodes = true;
  cfg.depth = opts.depth;
  if (dp_mode) {
    cfg.mode = core::ExecutionMode::kDataParallel;
    cfg.machine = {2, 2, 2};
  }
  ParticleSet p = make_dist(opts.dist, n, 4242);
  if (opts.kernel == core::KernelType::kVanDerWaals) {
    // Two-type Rmin/eps table at unit-box scale; the cuton/cutoff window
    // keeps KernelSpec's defaults.
    cfg.kernel.type = core::KernelType::kVanDerWaals;
    cfg.kernel.vdw_rmin = {0.02, 0.016};
    cfg.kernel.vdw_epsilon = {1.0, 0.5};
    cfg.kernel.vdw_periodic = opts.vdw_periodic;
    p.ensure_types();
    for (std::size_t i = 0; i < p.size(); ++i)
      p.set_type(i, static_cast<std::int32_t>(i % 2));
  }
  core::FmmSolver solver(cfg);
  (void)solver.precompute();
  WallTimer t;
  const core::FmmResult r = solver.solve(p);
  const double total = t.seconds();

  // Warm solves reuse the plan and workspace; best-of-3 is the per-step
  // cost an integrator loop pays.
  double warm = 0.0;
  std::uint64_t warm_allocs = 0;
  std::vector<exec::StageTiming> warm_timeline;
  for (int rep = 0; rep < 3; ++rep) {
    t.reset();
    core::FmmResult w = solver.solve(p);
    const double s = t.seconds();
    if (rep == 0 || s < warm) {
      warm = s;
      warm_timeline = std::move(w.timeline);
    }
    warm_allocs = w.workspace_allocs;
  }

  std::printf("\n%s  (N = %zu, K = %zu, depth %d, %s, dist %s, kernel %s)\n",
              label, n, r.k, r.depth, dp_mode ? "data-parallel" : "threads",
              opts.dist.c_str(), core::to_string(r.kernel));
  Table table({"phase", "time (s)", "share", "Gflop", "efficiency"});
  for (const auto& [name, s] : r.breakdown.phases()) {
    if (name == "comm") continue;
    table.row({name, Table::num(s.seconds, 3),
               Table::percent(s.seconds / total),
               Table::num(static_cast<double>(s.flops) / 1e9, 3),
               Table::percent(bench::efficiency(s.flops, s.seconds))});
  }
  table.print(std::cout);
  std::printf("overall: %.3f s, %.2f Gflop, efficiency %.1f%%\n", total,
              static_cast<double>(r.breakdown.total_flops()) / 1e9,
              100.0 * bench::efficiency(r.breakdown.total_flops(), total));
  std::printf(
      "cold solve %.3f s -> warm solve %.3f s (%.2fx, plan+workspace "
      "reused, %llu warm heap growths)\n",
      total, warm, total / warm,
      static_cast<unsigned long long>(warm_allocs));
  std::printf("workspace: %.2f MB heap; active boxes %zu",
              static_cast<double>(r.workspace_bytes) / 1e6, r.active_boxes);
  const std::uint64_t near_pairs =
      r.breakdown.phases().count("near")
          ? r.breakdown.phases().at("near").pairs
          : 0;
  if (near_pairs > 0)
    std::printf("; near pairs %llu",
                static_cast<unsigned long long>(near_pairs));
  if (!r.level_occupancy.empty()) {
    std::printf("; occupancy by level:");
    for (double o : r.level_occupancy) std::printf(" %.3f", o);
  }
  std::printf("\n");
  if (dp_mode) {
    const double comm = r.breakdown.phases().count("comm")
                            ? r.breakdown.phases().at("comm").seconds
                            : 0.0;
    const double per_vu = total / static_cast<double>(cfg.machine.total_vus());
    std::printf(
        "modeled communication: %.3f s (%.1f%% of per-VU execution), "
        "%.2f MB off-VU, %llu messages\n",
        comm, 100.0 * comm / (per_vu + comm),
        static_cast<double>(r.comm.off_vu_bytes) / 1e6,
        static_cast<unsigned long long>(r.comm.messages));
  }

  // Per-stage timeline of the best warm solve: the wall-clock interval of
  // every phase-graph stage, so far/near overlap is observable rather than
  // inferred from phase sums.
  std::printf("\nwarm-solve stage timeline (start/end in ms since solve "
              "start):\n");
  Table tl({"stage", "phase", "start (ms)", "end (ms)", "chunks", "workers"});
  for (const auto& st : warm_timeline)
    tl.row({st.stage, st.phase, Table::num(st.start_seconds * 1e3, 3),
            Table::num(st.end_seconds * 1e3, 3), Table::num(st.chunks),
            Table::num(st.workers)});
  tl.print(std::cout);

  if (json != nullptr) {
    std::fprintf(json,
                 "%s\n    { \"label\": \"%s\", \"n\": %zu, \"k\": %zu, "
                 "\"depth\": %d, \"mode\": \"%s\", \"kernel\": \"%s\",\n"
                 "      \"dist\": \"%s\", "
                 "\"active_boxes\": %zu, "
                 "\"workspace_bytes\": %zu,\n      \"occupancy\": [",
                 first ? "" : ",", slug, n, r.k, r.depth,
                 dp_mode ? "data_parallel" : "threads",
                 core::to_string(r.kernel), opts.dist.c_str(),
                 r.active_boxes, r.workspace_bytes);
    for (std::size_t l = 0; l < r.level_occupancy.size(); ++l)
      std::fprintf(json, "%s%.6f", l == 0 ? "" : ", ", r.level_occupancy[l]);
    std::fprintf(json,
                 "],\n"
                 "      \"total_seconds\": %.6f, \"warm_seconds\": %.6f, "
                 "\"warm_allocs\": %llu, \"total_gflop\": %.3f,\n"
                 "      \"phases\": [",
                 total, warm, static_cast<unsigned long long>(warm_allocs),
                 static_cast<double>(r.breakdown.total_flops()) / 1e9);
    bool first_phase = true;
    for (const auto& [name, s] : r.breakdown.phases()) {
      std::fprintf(json,
                   "%s\n        { \"phase\": \"%s\", \"seconds\": %.6f, "
                   "\"gflop\": %.3f, \"imbalance\": %.4f, "
                   "\"boxes_active\": %llu, \"boxes_total\": %llu, "
                   "\"pairs\": %llu, \"plan_reuse\": %llu }",
                   first_phase ? "" : ",", name.c_str(), s.seconds,
                   static_cast<double>(s.flops) / 1e9, s.cost_imbalance,
                   static_cast<unsigned long long>(s.boxes_active),
                   static_cast<unsigned long long>(s.boxes_total),
                   static_cast<unsigned long long>(s.pairs),
                   static_cast<unsigned long long>(s.plan_reuse));
      first_phase = false;
    }
    std::fprintf(json, "\n      ],\n      \"timeline\": [");
    bool first_stage = true;
    for (const auto& st : warm_timeline) {
      std::fprintf(json,
                   "%s\n        { \"stage\": \"%s\", \"phase\": \"%s\", "
                   "\"start_seconds\": %.6f, \"end_seconds\": %.6f, "
                   "\"chunks\": %zu, \"workers\": %zu }",
                   first_stage ? "" : ",", st.stage.c_str(), st.phase.c_str(),
                   st.start_seconds, st.end_seconds, st.chunks, st.workers);
      first_stage = false;
    }
    std::fprintf(json, "\n      ] }");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_breakdown.json";
  // Peel off --json=... before the Cli parser sees the flags (same
  // convention as bench_kernels).
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{100000}));
  RunOpts opts;
  opts.dist = cli.get("dist", std::string("uniform"));
  opts.depth = static_cast<int>(cli.get("depth", std::int64_t{-1}));
  opts.kernel = parse_kernel(cli.get("kernel", std::string("")));
  bench::check_unused(cli);

  bench::print_header("bench_breakdown",
                      "Section 4 headlines — phase breakdown, overall "
                      "efficiency (~27%/~35%), comm fraction (10-25%)");
  std::printf("calibrated peak: %.2f Gflop/s\n", bench::peak_flops() / 1e9);

  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_breakdown: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_breakdown\",\n  \"nproc\": %u,\n"
                 "  \"configs\": [",
                 std::thread::hardware_concurrency());

  run("D=5 / K=12 configuration", "d5_k12", anderson::params_d5_k12(), n,
      false, json, true, opts);
  run("K=72 configuration", "k72", anderson::params_d14_k72(), n / 4, false,
      json, false, opts);
  run("D=5 / K=12, simulated 8-VU machine", "d5_k12_dp",
      anderson::params_d5_k12(), n / 2, true, json, false, opts);

  // Pinned Plummer rows: depth 4 (near-field dominated at N=100k), depth 5
  // (translation dominated) and the automatic depth.
  std::printf("\n==== clustered input (Plummer) ====\n");
  for (const int depth : {4, 5, -1}) {
    RunOpts d = opts;
    d.dist = "plummer";
    d.depth = depth;
    char label[96], slug[64];
    if (depth > 0) {
      std::snprintf(label, sizeof label, "Plummer depth-%d", depth);
      std::snprintf(slug, sizeof slug, "plummer_d%d_sparse", depth);
    } else {
      std::snprintf(label, sizeof label, "Plummer, automatic depth");
      std::snprintf(slug, sizeof slug, "plummer_sparse_auto");
    }
    run(label, slug, anderson::params_d5_k12(), n, false, json, false, d);
  }

  // Pinned Laplace/vdW pair at the same N: the short-range tier runs the
  // same tree + near-field machinery with the far-field stages as empty
  // DAG nodes, so the two rows are directly diffable phase by phase.
  std::printf("\n==== kernel comparison (Laplace vs van der Waals) ====\n");
  {
    RunOpts d = opts;
    d.dist = "uniform";
    d.kernel = core::KernelType::kLaplace3d;
    run("Laplace 3-D, uniform", "kernel_laplace", anderson::params_d5_k12(),
        n, false, json, false, d);
    d.kernel = core::KernelType::kVanDerWaals;
    run("van der Waals, uniform", "kernel_vdw", anderson::params_d5_k12(), n,
        false, json, false, d);
    d.vdw_periodic = true;
    run("van der Waals, uniform, periodic box", "kernel_vdw_periodic",
        anderson::params_d5_k12(), n, false, json, false, d);
  }

  // Timestep loop: after the first force evaluation builds the plan, every
  // leapfrog step pays only the warm-solve cost.
  {
    core::FmmConfig cfg;
    cfg.supernodes = true;
    cfg.with_gradient = true;
    // Plummer softening keeps close encounters from scattering particles
    // out of the box mid-bench; the measurement targets solver cost.
    cfg.kernel.softening = 1e-3;
    const std::size_t n_int = n / 4;
    core::FmmSolver solver(cfg);
    core::LeapfrogIntegrator integ(solver, core::ForceLaw::kGravity, 1e-6);
    core::SimulationState state;
    state.particles = make_uniform(n_int, Box3{}, 99);
    state.velocity.assign(n_int, Vec3{});
    WallTimer t;
    integ.initialize(state);
    const double first_eval = t.seconds();
    const std::uint64_t cold_allocs = integ.force_stats().workspace_allocs;
    const int steps = 5;
    t.reset();
    integ.run(state, steps);
    const double per_step = t.seconds() / steps;
    const core::ForceStats& fs = integ.force_stats();
    std::printf(
        "\nintegrator (N = %zu): first force evaluation %.3f s (cold, %llu "
        "heap growths), then %.3f s/step warm (%llu/%llu warm evaluations, "
        "%llu warm heap growths)\n",
        n_int, first_eval, static_cast<unsigned long long>(cold_allocs),
        per_step, static_cast<unsigned long long>(fs.warm_evaluations),
        static_cast<unsigned long long>(fs.evaluations),
        static_cast<unsigned long long>(fs.workspace_allocs - cold_allocs));
    if (json != nullptr) {
      std::fprintf(json,
                   "\n  ],\n  \"integrator\": { \"n\": %zu, \"steps\": %d, "
                   "\"first_eval_seconds\": %.6f, "
                   "\"warm_step_seconds\": %.6f }\n}\n",
                   n_int, steps, first_eval, per_step);
      std::fclose(json);
      std::printf("\nper-phase JSON written to %s\n", json_path);
    }
  }
  return 0;
}
