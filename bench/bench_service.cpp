// Solver-as-a-service throughput/latency measurement (DESIGN.md Section 17).
//
// A mixed multi-tenant load — Laplace K=12, Laplace K=72, a clustered
// tenant, and a short-range vdW tenant — is admitted as
// interleaved batches through one SolverService. Reported per scenario:
// warm-solve latency (p50/p95/mean) and the warm-path guarantees
// (plan_reused, zero workspace growth); for the batch: aggregate solves/sec;
// for the service: the plan-cache and client-pool counters.
//
// --smoke shrinks the load and turns the warm-path guarantees into a gate
// (non-zero exit on violation) for tools/check.sh and CI. Results land in
// BENCH_service.json (--json=FILE).

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/anderson/params.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/service/service.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

struct Scenario {
  const char* name;
  const char* dist;  // uniform | two-clusters
  bool vdw;
  int order;  // 5 (K = 12) or 14 (K = 72)
};

const Scenario kScenarios[] = {
    {"laplace_k12_uniform", "uniform", false, 5},
    {"laplace_k72_uniform", "uniform", false, 14},
    {"laplace_k12_clustered", "two-clusters", false, 5},
    {"vdw_k12_uniform", "uniform", true, 5},
};

core::FmmConfig scenario_config(const Scenario& s) {
  core::FmmConfig cfg;
  cfg.params = s.order == 14 ? anderson::params_d14_k72()
                             : anderson::params_d5_k12();
  if (s.vdw) {
    cfg.kernel.type = core::KernelType::kVanDerWaals;
    cfg.kernel.vdw_rmin = {0.02, 0.016};
    cfg.kernel.vdw_epsilon = {1.0, 0.5};
  }
  return cfg;
}

ParticleSet scenario_particles(const Scenario& s, std::size_t n,
                               std::uint64_t seed) {
  ParticleSet p = std::strcmp(s.dist, "two-clusters") == 0
                      ? make_two_clusters(n, Box3{}, seed)
                      : make_uniform(n, Box3{}, seed);
  if (s.vdw) {
    p.ensure_types();
    for (std::size_t i = 0; i < p.size(); ++i)
      p.set_type(i, static_cast<std::int32_t>(i % 2));
  }
  return p;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_service.json";
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
      cli.get("n", std::int64_t{smoke ? 4000 : 20000}));
  // Tenants per scenario in one batch, and warm rounds measured.
  const std::size_t copies = static_cast<std::size_t>(
      cli.get("copies", std::int64_t{smoke ? 2 : 4}));
  const std::size_t rounds = static_cast<std::size_t>(
      cli.get("rounds", std::int64_t{smoke ? 2 : 5}));
  bench::check_unused(cli);

  bench::print_header(
      "bench_service",
      "DESIGN.md Section 17 — multi-tenant solve service: plan cache, "
      "client pool, interleaved batch scheduler");

  constexpr std::size_t kNumScenarios =
      sizeof(kScenarios) / sizeof(kScenarios[0]);

  // The mixed load: `copies` tenants of every scenario, distinct particle
  // seeds per tenant (same workload configuration, different data).
  std::vector<core::FmmConfig> configs;
  std::vector<ParticleSet> particles;
  std::vector<std::size_t> scenario_of;
  for (std::size_t s = 0; s < kNumScenarios; ++s)
    for (std::size_t c = 0; c < copies; ++c) {
      configs.push_back(scenario_config(kScenarios[s]));
      particles.push_back(scenario_particles(kScenarios[s], n, 1000 + 31 * c));
      scenario_of.push_back(s);
    }
  const std::size_t nreq = configs.size();
  std::vector<service::SolveRequest> batch(nreq);
  for (std::size_t i = 0; i < nreq; ++i)
    batch[i] = {configs[i], &particles[i]};

  service::SolverService svc;

  // Cold round: builds every plan, translation set, client and workspace.
  WallTimer cold_clock;
  std::vector<service::SolveOutcome> cold = svc.solve_batch(batch);
  const double cold_seconds = cold_clock.seconds();

  // Warm rounds: the measured steady state.
  std::vector<std::vector<double>> latency(kNumScenarios);
  bool warm_ok = true;
  WallTimer warm_clock;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<service::SolveOutcome> out = svc.solve_batch(batch);
    for (std::size_t i = 0; i < nreq; ++i) {
      latency[scenario_of[i]].push_back(out[i].result.breakdown.total_seconds());
      // Warm-path contract (the --smoke gate): every steady-state solve is
      // served by a pooled client with a cached plan and a workspace that
      // never grows.
      if (!out[i].client_reused || !out[i].result.plan_reused ||
          out[i].result.workspace_allocs != 0) {
        std::fprintf(stderr,
                     "bench_service: warm request %zu (%s) broke the warm "
                     "path (client_reused=%d plan_reused=%d allocs=%llu)\n",
                     i, kScenarios[scenario_of[i]].name,
                     static_cast<int>(out[i].client_reused),
                     static_cast<int>(out[i].result.plan_reused),
                     static_cast<unsigned long long>(
                         out[i].result.workspace_allocs));
        warm_ok = false;
      }
    }
  }
  const double warm_seconds = warm_clock.seconds();
  const double solves_per_sec =
      static_cast<double>(nreq * rounds) / warm_seconds;

  const service::ServiceStats stats = svc.stats();

  Table table({"scenario", "kernel", "K", "dist", "p50 ms", "p95 ms",
               "mean ms"});
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_service: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_service\",\n  \"smoke\": %s,\n"
                 "  \"n\": %zu,\n  \"copies\": %zu,\n  \"rounds\": %zu,\n"
                 "  \"scenarios\": [",
                 smoke ? "true" : "false", n, copies, rounds);
  for (std::size_t s = 0; s < kNumScenarios; ++s) {
    const std::vector<double>& lat = latency[s];
    const double p50 = percentile(lat, 0.50) * 1e3;
    const double p95 = percentile(lat, 0.95) * 1e3;
    double mean = 0.0;
    for (const double t : lat) mean += t;
    mean = lat.empty() ? 0.0 : mean * 1e3 / static_cast<double>(lat.size());
    // Every copy of a scenario runs the same workload; report its shape
    // from the cold outcome.
    std::size_t first = 0;
    while (scenario_of[first] != s) ++first;
    const core::FmmResult& probe = cold[first].result;
    table.row({kScenarios[s].name, core::to_string(probe.kernel),
               std::to_string(probe.k), kScenarios[s].dist,
               Table::num(p50, 3), Table::num(p95, 3), Table::num(mean, 3)});
    if (json != nullptr)
      std::fprintf(json,
                   "%s\n    { \"name\": \"%s\", \"kernel\": \"%s\", "
                   "\"k\": %zu, \"dist\": \"%s\", \"depth\": %d, "
                   "\"p50_ms\": %.6f, \"p95_ms\": %.6f, \"mean_ms\": %.6f }",
                   s == 0 ? "" : ",", kScenarios[s].name,
                   core::to_string(probe.kernel), probe.k, kScenarios[s].dist,
                   probe.depth, p50, p95, mean);
  }
  table.print(std::cout);
  std::printf("\ncold batch: %.3f s for %zu requests\n", cold_seconds, nreq);
  std::printf("warm rounds: %zu x %zu solves, %.1f solves/s\n", rounds, nreq,
              solves_per_sec);
  std::printf(
      "service: %llu solves, plan cache %llu hits / %llu misses / %llu "
      "evictions, clients %llu created / %llu reused\n",
      static_cast<unsigned long long>(stats.solves),
      static_cast<unsigned long long>(stats.plan_cache.plan_hits),
      static_cast<unsigned long long>(stats.plan_cache.plan_misses),
      static_cast<unsigned long long>(stats.plan_cache.plan_evictions),
      static_cast<unsigned long long>(stats.clients_created),
      static_cast<unsigned long long>(stats.clients_reused));

  // Sharing contract: `copies` tenants per scenario must cost ONE plan
  // build per (config, depth) — misses stay at the scenario count no
  // matter how many tenants or rounds ran.
  if (stats.plan_cache.plan_misses > kNumScenarios) {
    std::fprintf(stderr,
                 "bench_service: %llu plan builds for %zu scenarios — the "
                 "cache failed to share\n",
                 static_cast<unsigned long long>(stats.plan_cache.plan_misses),
                 kNumScenarios);
    warm_ok = false;
  }

  if (json != nullptr) {
    std::fprintf(
        json,
        "\n  ],\n  \"batch\": { \"requests\": %zu, \"cold_seconds\": %.6f, "
        "\"warm_seconds\": %.6f, \"solves_per_sec\": %.3f },\n"
        "  \"service\": { \"solves\": %llu, \"batches\": %llu, "
        "\"plan_hits\": %llu, \"plan_misses\": %llu, \"plan_evictions\": "
        "%llu, \"clients_created\": %llu, \"clients_reused\": %llu },\n"
        "  \"warm_zero_alloc\": %s\n}\n",
        nreq, cold_seconds, warm_seconds, solves_per_sec,
        static_cast<unsigned long long>(stats.solves),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.plan_cache.plan_hits),
        static_cast<unsigned long long>(stats.plan_cache.plan_misses),
        static_cast<unsigned long long>(stats.plan_cache.plan_evictions),
        static_cast<unsigned long long>(stats.clients_created),
        static_cast<unsigned long long>(stats.clients_reused),
        warm_ok ? "true" : "false");
    std::fclose(json);
    std::printf("\nservice JSON written to %s\n", json_path);
  }
  std::printf(
      "\nexpected shape: warm p50 well under the cold batch's per-request "
      "cost (plans and workspaces amortized); plan misses equal the "
      "scenario count regardless of tenants.\n");
  if (smoke && !warm_ok) return 1;
  return 0;
}
