// Section 2.3 reproduction: the optimal hierarchy depth balances the
// hierarchy traversal against the near-field direct evaluation.
//
// We sweep the depth around the cost model's optimum and verify the model
// picks (close to) the measured minimum, and that traversal and near-field
// times cross where the model says they should.

#include <iostream>

#include "bench_common.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{60000}));
  bench::check_unused(cli);

  bench::print_header("bench_depth",
                      "Section 2.3 — optimal hierarchy depth balances "
                      "traversal vs near-field work");

  const ParticleSet p = make_uniform(n, Box3{}, 9090);
  core::FmmConfig probe;
  probe.supernodes = true;
  const int auto_depth = core::FmmSolver(probe).depth_for(n);
  std::printf("N = %zu; occupancy rule picks depth %d\n\n", n, auto_depth);

  Table table({"depth", "boxes", "total (s)", "traversal (s)", "near (s)",
               "leaf occupancy"});
  double best_time = 1e300;
  int best_depth = -1;
  for (int depth = std::max(2, auto_depth - 1); depth <= auto_depth + 1;
       ++depth) {
    core::FmmConfig cfg;
    cfg.depth = depth;
    cfg.supernodes = true;
    core::FmmSolver solver(cfg);
    (void)solver.precompute();
    WallTimer t;
    const core::FmmResult r = solver.solve(p);
    const double secs = t.seconds();
    const auto& ph = r.breakdown.phases();
    const auto get = [&](const char* name) {
      return ph.count(name) ? ph.at(name).seconds : 0.0;
    };
    const double traversal =
        get("p2m") + get("upward") + get("interactive") + get("downward") +
        get("l2p");
    table.row({Table::num(std::uint64_t(depth)),
               Table::num(std::uint64_t(1) << (3 * depth)),
               Table::num(secs, 3), Table::num(traversal, 3),
               Table::num(get("near"), 3),
               Table::num(static_cast<double>(n) /
                              static_cast<double>(1ull << (3 * depth)),
                          3)});
    if (secs < best_time) {
      best_time = secs;
      best_depth = depth;
    }
  }
  table.print(std::cout);
  std::printf(
      "\nmeasured optimum: depth %d; occupancy rule chose depth %d\n"
      "paper shape to verify: near-field time falls ~8x per extra level\n"
      "while traversal rises ~8x, crossing near the occupancy optimum.\n",
      best_depth, auto_depth);
  return 0;
}
