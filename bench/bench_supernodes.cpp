// Section 2.3 supernode ablation: 875 -> 189 effective interactive-field
// translations per box, "a dramatic improvement in the overall performance,
// at the cost of slightly decreased accuracy".

#include <iostream>

#include "bench_common.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/errors.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{20000}));
  const int depth = static_cast<int>(cli.get("depth", std::int64_t{3}));
  bench::check_unused(cli);

  bench::print_header("bench_supernodes",
                      "Section 2.3 — supernodes: 875 vs 189 interactive "
                      "translations per box");
  const ParticleSet p = make_uniform(n, Box3{}, 5150);
  const baseline::DirectResult ref = baseline::direct_all(p, false);

  Table table({"config", "interactive Gflop", "interactive (s)", "total (s)",
               "rms rel err", "digits"});
  for (const int order : {5, 9}) {
    for (const bool super : {false, true}) {
      core::FmmConfig cfg;
      cfg.depth = depth;
      cfg.params = anderson::params_for_order(order);
      cfg.supernodes = super;
      core::FmmSolver solver(cfg);
      (void)solver.precompute();
      WallTimer t;
      const core::FmmResult r = solver.solve(p);
      const double secs = t.seconds();
      const ErrorNorms e = compare_fields(r.phi, ref.phi);
      const auto& inter = r.breakdown.phases().at("interactive");
      table.row({std::string("D=") + std::to_string(order) +
                     (super ? " supernodes" : " plain"),
                 Table::num(static_cast<double>(inter.flops) / 1e9, 3),
                 Table::num(inter.seconds, 3), Table::num(secs, 3),
                 Table::num(e.rms_rel, 3), Table::num(digits(e.rms_rel), 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\npaper shape to verify: supernodes cut the interactive-field work by\n"
      "~875/189 = 4.6x with well under one digit of accuracy loss.\n");
  return 0;
}
