// Table 3 / Section 3.3.3 reproduction: arithmetic efficiency of the
// translation phases under BLAS-2 vs aggregated BLAS-3 application.
//
// The paper reports leaf-level arithmetic efficiencies on the CM-5E:
//   T1/T3 54% (K=12) .. 60% (K=72); T2 74% .. 85%; degraded to 60%/79% with
//   copying and 44%/74% with copying + masking. It also reports the
//   aggregation win for T1/T3 (58 -> 87 Mflops/s/PN at K = 12). We measure
//   the same ratios: per-phase flop rates as a fraction of the calibrated
//   peak. The solver gathers the boxes of a chunk that share a translation
//   matrix into one slab in every mode; the mode picks the BLAS call
//   applied to it: gemv (one BLAS-2 vecmat per box) or gemm (one BLAS-3
//   product). Each row is the median of kWarmSolves solves that follow one
//   untimed warm-up solve, so plan building and workspace growth stay out
//   of it.

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

namespace {

constexpr int kWarmSolves = 5;

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{12000}));
  const int depth = static_cast<int>(cli.get("depth", std::int64_t{3}));
  bench::check_unused(cli);

  bench::print_header(
      "bench_table3_efficiency",
      "Table 3 — leaf-level arithmetic efficiencies; Section 3.3.3 "
      "aggregation of translations into BLAS-3");
  std::printf("N = %zu, depth %d; efficiency = phase flops / time / peak "
              "(peak %.2f Gflop/s); median of %d warm solves\n\n",
              n, depth, bench::peak_flops() / 1e9, kWarmSolves);

  const ParticleSet p = make_uniform(n, Box3{}, 31415);

  Table table({"K", "aggregation", "upward+downward (T1/T3)",
               "interactive (T2)", "total eff", "time (s)"});

  for (const bool k72 : {false, true}) {
    const anderson::Params params =
        k72 ? anderson::params_d14_k72() : anderson::params_d5_k12();
    for (const core::AggregationMode agg :
         {core::AggregationMode::kGemv, core::AggregationMode::kGemm}) {
      core::FmmConfig cfg;
      cfg.depth = depth;
      cfg.params = params;
      cfg.aggregation = agg;
      core::FmmSolver solver(cfg);
      (void)solver.solve(p);  // warm-up: builds the plan, grows the workspace
      std::vector<double> t13, t2, total, wall;
      for (int rep = 0; rep < kWarmSolves; ++rep) {
        WallTimer t;
        const core::FmmResult r = solver.solve(p);
        wall.push_back(t.seconds());
        const auto& phases = r.breakdown.phases();
        const auto phase_eff = [&](const char* a, const char* b) {
          std::uint64_t flops = 0;
          double secs = 0;
          for (const char* name : {a, b}) {
            if (name == nullptr || !phases.count(name)) continue;
            flops += phases.at(name).flops;
            secs += phases.at(name).seconds;
          }
          return bench::efficiency(flops, secs);
        };
        t13.push_back(phase_eff("upward", "downward"));
        t2.push_back(phase_eff("interactive", nullptr));
        total.push_back(bench::efficiency(r.breakdown.total_flops(),
                                          r.breakdown.total_seconds()));
      }
      table.row({Table::num(std::uint64_t(params.k())), core::to_string(agg),
                 Table::percent(bench::median(t13)),
                 Table::percent(bench::median(t2)),
                 Table::percent(bench::median(total)),
                 Table::num(bench::median(wall), 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape to verify: aggregated (gemm) beats gemv; the\n"
      "gap shrinks as K grows (K=72 matrices are already efficient at "
      "BLAS-2);\nT2 runs at higher efficiency than T1/T3 (larger "
      "aggregates).\n");
  return 0;
}
