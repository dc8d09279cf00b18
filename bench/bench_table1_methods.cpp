// Table 1 reproduction: efficiency and cycles/particle of N-body methods.
//
// The paper's Table 1 surveys implementations of hierarchical N-body
// methods and reports, for "this work", 27% efficiency / 37K cycles per
// particle at D = 5 and 35% / 183K at D = 14 on a 256-node CM-5E. We race
// our Anderson-method FMM (both headline configurations, with and without
// supernodes) against our Barnes-Hut treecode (the O(N log N) family the
// table compares with) and direct summation, reporting the same two metrics.

#include <iostream>

#include "bench_common.hpp"
#include "hfmm/baseline/barnes_hut.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

struct Row {
  std::string method;
  double seconds = 0.0;
  std::uint64_t flops = 0;
  double err_rel_mean = 0.0;  // error relative to mean |phi| (Table 1 metric)
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{20000}));
  const std::size_t nref =
      static_cast<std::size_t>(cli.get("ref", std::int64_t{2000}));
  bench::check_unused(cli);

  bench::print_header("bench_table1_methods",
                      "Table 1 — survey of N-body methods (this work rows: "
                      "27%/37K at D=5, 35%/183K at D=14)");
  std::printf("N = %zu uniform particles; errors vs direct on %zu samples\n",
              n, nref);
  std::printf("calibrated peak: %.2f Gflop/s\n\n", bench::peak_flops() / 1e9);

  const ParticleSet p = make_uniform(n, Box3{}, 12345);

  // Reference: direct potential at the first `nref` particles.
  ParticleSet ref_subset(nref);
  for (std::size_t i = 0; i < nref; ++i)
    ref_subset.set(i, p.position(i), p.charge(i));
  std::vector<double> ref_phi(nref, 0.0);
  for (std::size_t i = 0; i < nref; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      acc += p.charge(j) / (p.position(i) - p.position(j)).norm();
    }
    ref_phi[i] = acc;
  }

  std::vector<Row> rows;

  const auto run_fmm = [&](const char* name, const anderson::Params& params,
                           bool supernodes) {
    core::FmmConfig cfg;
    cfg.params = params;
    cfg.supernodes = supernodes;
    core::FmmSolver solver(cfg);
    (void)solver.precompute();  // exclude precompute from the timing
    WallTimer t;
    const core::FmmResult r = solver.solve(p);
    Row row{name, t.seconds(), r.breakdown.total_flops(), 0.0};
    std::vector<double> got(ref_phi.size());
    for (std::size_t i = 0; i < got.size(); ++i) got[i] = r.phi[i];
    row.err_rel_mean = compare_fields(got, ref_phi).rel_to_mean;
    rows.push_back(row);
  };

  run_fmm("Anderson FMM D=5 K=12", anderson::params_d5_k12(), false);
  run_fmm("Anderson FMM D=5 K=12 +supernodes", anderson::params_d5_k12(),
          true);
  run_fmm("Anderson FMM K=72 (D=14 cfg)", anderson::params_d14_k72(), true);

  {
    baseline::BhConfig bh_cfg;
    bh_cfg.theta = 0.5;
    WallTimer t;
    const baseline::BarnesHut bh(p, bh_cfg);
    const baseline::BhResult r = bh.evaluate_all(false);
    Row row{"Barnes-Hut theta=0.5 quadrupole", t.seconds(), r.flops, 0.0};
    std::vector<double> got(ref_phi.begin(), ref_phi.end());
    for (std::size_t i = 0; i < got.size(); ++i) got[i] = r.phi[i];
    row.err_rel_mean = compare_fields(got, ref_phi).rel_to_mean;
    rows.push_back(row);
  }

  {
    // Direct summation, extrapolated from the reference subset so the bench
    // stays fast: time scales as N/nref.
    WallTimer t;
    std::vector<double> sink(nref, 0.0);
    baseline::direct_ranges(p, 0, nref, 0, n, sink.data(), nullptr);
    const double subset_time = t.seconds();
    Row row{"Direct O(N^2) (extrapolated)",
            subset_time * static_cast<double>(n) / static_cast<double>(nref),
            static_cast<std::uint64_t>(n) * (n - 1) *
                baseline::direct_pair_flops(false),
            0.0};
    rows.push_back(row);
  }

  Table table({"method", "time (s)", "Gflop", "efficiency", "cycles/particle",
               "err (rel mean)"});
  for (const Row& r : rows) {
    table.row({r.method, Table::num(r.seconds, 3),
               Table::num(static_cast<double>(r.flops) / 1e9, 3),
               Table::percent(bench::efficiency(r.flops, r.seconds)),
               Table::num(bench::cycles_per_particle(r.seconds, n), 4),
               Table::num(r.err_rel_mean, 3)});
  }
  table.print(std::cout);
  return 0;
}
