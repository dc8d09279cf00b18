// Per-step cost of a leapfrog timestep loop (DESIGN.md Section 14): two
// clustered scenarios — a Plummer collapse and a two-cluster merger — step
// on one warm solver. Every step rebuilds the coordinate sort, the active
// sets and the cost model, then streams the force evaluation through a
// SolveView. Each step is timed with a wall clock around
// LeapfrogIntegrator::step() (kick, drift, solve, kick); its sort and
// active phase seconds ride along for attribution. Per-step rows go to
// BENCH_dynamics.json; the console table reports each scenario's median
// step and interquartile range.
//
// --smoke shrinks the run and checks the warm-step contract instead of
// timing: every step after initialize() is a warm solve
// (ForceStats::warm_evaluations == steps) and every evaluation streams
// (streamed_evaluations == evaluations). CI runs this in the plain lane.

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/thread_pool.hpp"

using namespace hfmm;

namespace {

struct StepRow {
  double seconds = 0.0;         // wall clock around integ.step()
  double sort_seconds = 0.0;    // coordinate sort phase of the step's solve
  double active_seconds = 0.0;  // active sets + cost model phase
};

struct ScenarioRun {
  double cold_seconds = 0.0;
  std::vector<StepRow> steps;
  core::ForceStats force;

  // q-quantile of a per-step column (linear interpolation between order
  // statistics).
  double quantile(double StepRow::*f, double q) const {
    std::vector<double> v;
    for (const StepRow& r : steps) v.push_back(r.*f);
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  }
};

double phase_seconds(const PhaseBreakdown& b, const char* phase) {
  const auto it = b.phases().find(phase);
  return it == b.phases().end() ? 0.0 : it->second.seconds;
}

ParticleSet make_scenario(const std::string& name, std::size_t n,
                          std::uint64_t seed) {
  if (name == "plummer-collapse") return make_plummer(n, Box3{}, seed);
  return make_two_clusters(n, Box3{}, seed);  // "two-cluster-merger"
}

// One leapfrog run: cold initialize() then `steps` timed steps.
ScenarioRun run_scenario(const std::string& scenario, std::size_t n,
                         std::uint64_t steps, double dt) {
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.supernodes = true;
  // Plummer softening keeps unresolved close encounters from slingshotting
  // particles across the domain mid-bench (same convention as
  // bench_breakdown's integrator loop); the measurement targets solver cost.
  cfg.kernel.softening = 1e-3;
  core::FmmSolver solver(cfg);
  (void)solver.precompute();

  core::SimulationState state;
  state.particles = make_scenario(scenario, n, 1203);
  state.velocity.assign(n, Vec3{});  // cold start: gravity does the mixing

  core::LeapfrogIntegrator integ(solver, core::ForceLaw::kGravity, dt);
  ScenarioRun run;
  WallTimer t;
  integ.initialize(state);
  run.cold_seconds = t.seconds();
  for (std::uint64_t s = 0; s < steps; ++s) {
    t.reset();
    integ.step(state);
    StepRow row;
    row.seconds = t.seconds();
    row.sort_seconds = phase_seconds(integ.last_breakdown(), "sort");
    row.active_seconds = phase_seconds(integ.last_breakdown(), "active");
    run.steps.push_back(row);
  }
  run.force = integ.force_stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_dynamics.json";
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  Cli cli(static_cast<int>(args.size()), args.data());
  const bool smoke = cli.flag("smoke");
  const std::size_t n = static_cast<std::size_t>(
      cli.get("n", std::int64_t{smoke ? 2000 : 20000}));
  const std::uint64_t steps = static_cast<std::uint64_t>(
      cli.get("steps", std::int64_t{smoke ? 6 : 20}));
  // Default dt keeps the per-step displacement realistic for an accurate
  // integration: per-step solver cost is the subject.
  const double dt = cli.get("dt", smoke ? 1e-3 : 2e-4);
  bench::check_unused(cli);

  bench::print_header(
      "bench_dynamics",
      "Section 1/4 motivation — per-step cost of dynamic simulations "
      "(full rebuild + streamed force evaluation every step)");

  const std::size_t workers = ThreadPool::global().size();
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_dynamics: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_dynamics\",\n  \"n\": %zu,\n"
                 "  \"steps\": %llu,\n  \"dt\": %.6g,\n  \"workers\": %zu,\n"
                 "  \"scenarios\": [",
                 n, static_cast<unsigned long long>(steps), dt, workers);

  Table table({"scenario", "cold (s)", "step median (s)", "step p25 (s)",
               "step p75 (s)", "sort (ms)", "active (ms)", "warm evals",
               "allocs"});
  bool ok = true;
  bool first_scenario = true;
  for (const char* scenario : {"plummer-collapse", "two-cluster-merger"}) {
    const ScenarioRun run = run_scenario(scenario, n, steps, dt);
    const core::ForceStats& fs = run.force;
    const double median = run.quantile(&StepRow::seconds, 0.5);
    const double p25 = run.quantile(&StepRow::seconds, 0.25);
    const double p75 = run.quantile(&StepRow::seconds, 0.75);
    table.row({scenario, Table::num(run.cold_seconds, 3),
               Table::num(median, 4), Table::num(p25, 4), Table::num(p75, 4),
               Table::num(1e3 * run.quantile(&StepRow::sort_seconds, 0.5), 3),
               Table::num(1e3 * run.quantile(&StepRow::active_seconds, 0.5),
                          3),
               Table::num(fs.warm_evaluations),
               Table::num(fs.workspace_allocs)});
    if (json != nullptr) {
      std::fprintf(
          json,
          "%s\n    { \"name\": \"%s\", \"cold_seconds\": %.6f, "
          "\"step_median_seconds\": %.6f, \"step_p25_seconds\": %.6f, "
          "\"step_p75_seconds\": %.6f, \"evaluations\": %llu, "
          "\"warm_evaluations\": %llu, \"streamed_evaluations\": %llu, "
          "\"workspace_allocs\": %llu, \"step_rows\": [",
          first_scenario ? "" : ",", scenario, run.cold_seconds, median, p25,
          p75, static_cast<unsigned long long>(fs.evaluations),
          static_cast<unsigned long long>(fs.warm_evaluations),
          static_cast<unsigned long long>(fs.streamed_evaluations),
          static_cast<unsigned long long>(fs.workspace_allocs));
      for (std::size_t i = 0; i < run.steps.size(); ++i) {
        const StepRow& r = run.steps[i];
        std::fprintf(json,
                     "%s\n      { \"seconds\": %.6f, \"sort_seconds\": %.6f, "
                     "\"active_seconds\": %.6f }",
                     i == 0 ? "" : ",", r.seconds, r.sort_seconds,
                     r.active_seconds);
      }
      std::fprintf(json, "\n    ] }");
    }
    first_scenario = false;
    // Warm-step contract (--smoke gate): after initialize() every step is
    // a warm solve, and every evaluation streams through the SolveView.
    // Workspace growth is allowed: moving particles can legitimately grow
    // per-box buffers.
    if (fs.warm_evaluations != steps ||
        fs.streamed_evaluations != fs.evaluations) {
      std::fprintf(stderr,
                   "bench_dynamics: %s broke the warm-step contract "
                   "(warm %llu of %llu steps, streamed %llu of %llu "
                   "evaluations)\n",
                   scenario,
                   static_cast<unsigned long long>(fs.warm_evaluations),
                   static_cast<unsigned long long>(steps),
                   static_cast<unsigned long long>(fs.streamed_evaluations),
                   static_cast<unsigned long long>(fs.evaluations));
      ok = false;
    }
  }
  table.print(std::cout);
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\ndynamics JSON written to %s\n", json_path);
  }
  std::printf(
      "\nexpected shape: sort + active are a small fraction of each step; "
      "the step is\nthe force evaluation (near field + far-field chain).\n");
  if (smoke && !ok) return 1;
  return 0;
}
