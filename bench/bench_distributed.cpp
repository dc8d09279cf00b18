// Owner-computes distributed executor measurement (DESIGN.md Section 18).
//
// For R in {1, 2, 4, 8} (capped by --ranks) the same particle set is solved
// by the R-rank ExecutionMode::kDistributed executor and compared against
// the single-rank reference, the same executor at R = 1 (dist_test ties
// R = 1 to the sequential shared-memory solve). Reported per rank count:
// solve time, partition cost imbalance, LET sizes (ghost bodies + far/local
// vectors received) and the exchange volume, both modeled by the LET plan
// and measured on the fabric; plus a per-rank breakdown at the widest R.
//
// Three gates (non-zero exit on violation, always on — they are the
// distributed executor's correctness contract, not a smoke-only check):
//   1. bitwise identity — phi/grad match the reference solve exactly;
//   2. measured == modeled — fabric byte counters equal the LET plan's
//      modeled bytes exactly (the pack loops realize the model);
//   3. dp oracle (Laplace only) — the LET exchange volume lands within a
//      factor of 64 of the simulated data-parallel machine's off-VU traffic
//      for an R-VU machine. The two executors move different structures
//      (LET ghosts vs grid halos/transposes), so this is a sanity band, not
//      an equality: it catches order-of-magnitude modeling bugs.
//
// --smoke shrinks N for tools/check.sh and CI. Results land in
// BENCH_distributed.json (--json=FILE).

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

core::FmmConfig base_config(bool vdw) {
  core::FmmConfig cfg;
  if (vdw) {
    cfg.kernel.type = core::KernelType::kVanDerWaals;
    cfg.kernel.vdw_rmin = {0.02, 0.016};
    cfg.kernel.vdw_epsilon = {1.0, 0.5};
    cfg.with_gradient = true;
  }
  return cfg;
}

core::FmmConfig reference_of(core::FmmConfig cfg) {
  cfg.mode = core::ExecutionMode::kDistributed;
  cfg.dist_ranks = 1;
  return cfg;
}

bool bitwise_equal(const core::FmmResult& a, const core::FmmResult& b) {
  if (a.phi.size() != b.phi.size() || a.grad.size() != b.grad.size())
    return false;
  if (!a.phi.empty() &&
      std::memcmp(a.phi.data(), b.phi.data(),
                  a.phi.size() * sizeof(double)) != 0)
    return false;
  if (!a.grad.empty() &&
      std::memcmp(a.grad.data(), b.grad.data(),
                  a.grad.size() * sizeof(Vec3)) != 0)
    return false;
  return true;
}

// The R-rank distributed run's oracle machine: an R-VU shape of the
// simulated data-parallel executor.
dp::MachineConfig machine_for(int ranks) {
  switch (ranks) {
    case 2:
      return {2, 1, 1};
    case 4:
      return {2, 2, 1};
    case 8:
      return {2, 2, 2};
    default:
      return {1, 1, 1};
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_distributed.json";
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
      cli.get("n", std::int64_t{smoke ? 3000 : 20000}));
  const std::string dist = cli.get("dist", std::string("uniform"));
  const std::string kernel = cli.get("kernel", std::string("laplace"));
  const int max_ranks =
      static_cast<int>(cli.get("ranks", std::int64_t{8}));
  bench::check_unused(cli);

  const bool vdw = kernel == "vdw";
  if (!vdw && kernel != "laplace") {
    std::fprintf(stderr, "bench_distributed: unknown --kernel=%s\n",
                 kernel.c_str());
    return 2;
  }

  bench::print_header(
      "bench_distributed",
      "DESIGN.md Section 18 — owner-computes distributed executor: "
      "geometric partition, LET exchange, per-rank phase graphs");

  ParticleSet ps = dist == "clustered" ? make_two_clusters(n, Box3{}, 907)
                                       : make_uniform(n, Box3{}, 907);
  if (vdw) {
    ps.ensure_types();
    for (std::size_t i = 0; i < ps.size(); ++i)
      ps.set_type(i, static_cast<std::int32_t>(i % 2));
  }

  core::FmmSolver ref_solver(reference_of(base_config(vdw)));
  WallTimer ref_clock;
  const core::FmmResult ref = ref_solver.solve(ps);
  const double ref_seconds = ref_clock.seconds();

  Table table({"ranks", "depth", "solve ms", "imbalance", "LET cells",
               "LET bodies", "modeled KB", "measured KB", "bitwise"});
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr)
    std::fprintf(stderr, "bench_distributed: cannot write %s\n", json_path);
  else
    std::fprintf(json,
                 "{\n  \"bench\": \"bench_distributed\",\n  \"smoke\": %s,\n"
                 "  \"n\": %zu,\n  \"dist\": \"%s\",\n  \"kernel\": \"%s\",\n"
                 "  \"reference_seconds\": %.6f,\n  \"runs\": [",
                 smoke ? "true" : "false", n, dist.c_str(), kernel.c_str(),
                 ref_seconds);

  bool ok = true;
  bool first_row = true;
  core::FmmResult widest;  // per-rank table for the widest rank count
  for (const int ranks : {1, 2, 4, 8}) {
    if (ranks > max_ranks) continue;
    core::FmmConfig cfg = base_config(vdw);
    cfg.mode = core::ExecutionMode::kDistributed;
    cfg.dist_ranks = ranks;
    core::FmmSolver solver(cfg);
    (void)solver.solve(ps);  // cold: plan + workspace builds excluded
    WallTimer clock;
    const core::FmmResult r = solver.solve(ps);
    const double seconds = clock.seconds();

    // Gate 1: bitwise identity to the reference.
    const bool bits = bitwise_equal(ref, r);
    if (!bits) {
      std::fprintf(stderr,
                   "bench_distributed: R=%d result differs from the "
                   "single-rank reference\n",
                   ranks);
      ok = false;
    }

    // Gate 2: the fabric counters must realize the LET byte model exactly.
    std::uint64_t sent = 0, recv = 0, let_cells = 0, let_bodies = 0;
    for (const core::DistRankStats& d : r.dist) {
      sent += d.bytes_sent;
      recv += d.bytes_recv;
      let_cells += d.let_cells;
      let_bodies += d.let_bodies;
    }
    if (sent != r.dist_modeled_bytes || recv != r.dist_modeled_bytes) {
      std::fprintf(stderr,
                   "bench_distributed: R=%d measured traffic (sent=%llu "
                   "recv=%llu) != modeled %llu bytes\n",
                   ranks, static_cast<unsigned long long>(sent),
                   static_cast<unsigned long long>(recv),
                   static_cast<unsigned long long>(r.dist_modeled_bytes));
      ok = false;
    }

    // Gate 3: dp-simulator oracle (Laplace only — the dp executor's vdW
    // path shares no comm structure worth comparing). Only meaningful once
    // there is actual exchange (R > 1).
    std::uint64_t oracle_bytes = 0;
    if (!vdw && ranks > 1) {
      core::FmmConfig ocfg;
      ocfg.mode = core::ExecutionMode::kDataParallel;
      ocfg.machine = machine_for(ranks);
      ocfg.depth = r.depth;  // same tree as the distributed run
      core::FmmSolver oracle(ocfg);
      const core::FmmResult odp = oracle.solve(ps);
      oracle_bytes = odp.comm.off_vu_bytes;
      const double moved = static_cast<double>(r.dist_modeled_bytes);
      const double dp_moved = static_cast<double>(oracle_bytes);
      if (dp_moved > 0.0 &&
          (moved < dp_moved / 64.0 || moved > dp_moved * 64.0)) {
        std::fprintf(stderr,
                     "bench_distributed: R=%d LET exchange %llu bytes is "
                     "outside 64x of the dp oracle's %llu off-VU bytes\n",
                     ranks, static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(oracle_bytes));
        ok = false;
      }
    }

    table.row({Table::num(std::uint64_t(r.dist_ranks)),
               Table::num(std::uint64_t(r.depth)),
               Table::num(seconds * 1e3, 3),
               Table::num(r.dist_cost_imbalance, 3), Table::num(let_cells),
               Table::num(let_bodies),
               Table::num(static_cast<double>(r.dist_modeled_bytes) / 1e3, 5),
               Table::num(static_cast<double>(sent) / 1e3, 5),
               bits ? "yes" : "NO"});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    { \"ranks\": %d, \"depth\": %d, "
                   "\"solve_seconds\": %.6f, \"cost_imbalance\": %.4f, "
                   "\"modeled_bytes\": %llu, \"measured_bytes\": %llu, "
                   "\"dp_oracle_off_vu_bytes\": %llu, \"bitwise\": %s,\n"
                   "      \"per_rank\": [",
                   first_row ? "" : ",", r.dist_ranks, r.depth, seconds,
                   r.dist_cost_imbalance,
                   static_cast<unsigned long long>(r.dist_modeled_bytes),
                   static_cast<unsigned long long>(sent),
                   static_cast<unsigned long long>(oracle_bytes),
                   bits ? "true" : "false");
      for (std::size_t i = 0; i < r.dist.size(); ++i) {
        const core::DistRankStats& d = r.dist[i];
        std::fprintf(
            json,
            "%s\n        { \"rank\": %zu, \"owned_bodies\": %zu, "
            "\"owned_leaves\": %zu, \"cost\": %llu, \"bytes_sent\": %llu, "
            "\"bytes_recv\": %llu, \"let_cells\": %llu, "
            "\"let_bodies\": %llu }",
            i == 0 ? "" : ",", i, d.owned_bodies, d.owned_leaves,
            static_cast<unsigned long long>(d.cost),
            static_cast<unsigned long long>(d.bytes_sent),
            static_cast<unsigned long long>(d.bytes_recv),
            static_cast<unsigned long long>(d.let_cells),
            static_cast<unsigned long long>(d.let_bodies));
      }
      std::fprintf(json, "\n      ] }");
      first_row = false;
    }
    if (r.dist_ranks >= widest.dist_ranks) widest = r;
  }
  table.print(std::cout);
  std::printf("\nreference (R = 1): %.3f ms\n", ref_seconds * 1e3);

  if (widest.dist_ranks > 1) {
    std::printf("\nper-rank breakdown at R=%d:\n\n", widest.dist_ranks);
    Table pr({"rank", "bodies", "leaves", "cost share", "sent KB", "recv KB",
              "LET cells", "LET bodies"});
    std::uint64_t total_cost = 0;
    for (const core::DistRankStats& d : widest.dist) total_cost += d.cost;
    for (std::size_t i = 0; i < widest.dist.size(); ++i) {
      const core::DistRankStats& d = widest.dist[i];
      pr.row({Table::num(std::uint64_t(i)), Table::num(std::uint64_t(d.owned_bodies)),
              Table::num(std::uint64_t(d.owned_leaves)),
              Table::percent(total_cost == 0
                                 ? 0.0
                                 : static_cast<double>(d.cost) /
                                       static_cast<double>(total_cost)),
              Table::num(static_cast<double>(d.bytes_sent) / 1e3, 5),
              Table::num(static_cast<double>(d.bytes_recv) / 1e3, 5),
              Table::num(d.let_cells), Table::num(d.let_bodies)});
    }
    pr.print(std::cout);
  }

  if (json != nullptr) {
    std::fprintf(json, "\n  ],\n  \"gates_passed\": %s\n}\n",
                 ok ? "true" : "false");
    std::fclose(json);
    std::printf("\ndistributed JSON written to %s\n", json_path);
  }
  std::printf(
      "\nexpected shape: exchange volume grows with the rank count while "
      "per-rank cost shares stay near 1/R; measured bytes equal the model "
      "exactly at every width.\n");
  return ok ? 0 : 1;
}
