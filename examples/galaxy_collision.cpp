// Galaxy collision: leapfrog time integration of two Plummer-model clusters
// with forces from the O(N) solver — the astrophysical workload class the
// paper's Table 1 implementations (Barnes-Hut on the Delta/CM-5) targeted.
//
//   ./galaxy_collision [--n 20000] [--steps 10] [--dt 0.002]
//                      [--softening 0.02] [--order 5]

#include <cmath>
#include <cstdio>

#include "hfmm/core/integrator.hpp"
#include "hfmm/util/cli.hpp"
#include "hfmm/util/rng.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(cli.get("n", std::int64_t{20000}));
  const std::uint64_t steps =
      static_cast<std::uint64_t>(cli.get("steps", std::int64_t{10}));
  const double dt = cli.get("dt", 0.002);
  const int order = static_cast<int>(cli.get("order", std::int64_t{5}));
  const double softening = cli.get("softening", 0.02);

  core::SimulationState state;
  state.particles = make_two_clusters(n, Box3{}, 8);
  // Approach velocity along x plus a little random shear.
  state.velocity.resize(n);
  Xoshiro256 rng(9);
  for (std::size_t i = 0; i < n; ++i) {
    const double toward = (state.particles.position(i).x > 0.5) ? -1.0 : 1.0;
    state.velocity[i] = {0.15 * toward + 0.02 * rng.normal(),
                         0.02 * rng.normal(), 0.02 * rng.normal()};
  }

  core::FmmConfig cfg;
  cfg.params = anderson::params_for_order(order);
  cfg.with_gradient = true;
  cfg.supernodes = true;
  // Plummer softening regularizes close encounters so the leapfrog stays
  // stable at this step size (applied in the near field; see near_field.hpp).
  cfg.kernel.softening = softening;
  core::FmmSolver solver(cfg);

  core::LeapfrogIntegrator integrator(solver, core::ForceLaw::kGravity, dt);
  integrator.initialize(state);

  std::printf("galaxy collision: N = %zu, %llu leapfrog steps, dt = %g, "
              "softening = %g\n\n",
              n, static_cast<unsigned long long>(steps), dt, softening);
  std::printf("%6s %12s %12s %12s %12s\n", "step", "kinetic", "potential",
              "total E", "|momentum|");

  const auto report = [&](const core::SimulationState& s) {
    const core::EnergyReport e = integrator.energy(s);
    std::printf("%6llu %12.5f %12.5f %12.5f %12.3e\n",
                static_cast<unsigned long long>(s.steps), e.kinetic,
                e.potential, e.total(), e.momentum.norm());
  };

  report(state);
  const double e0 = integrator.energy(state).total();
  WallTimer t;
  integrator.run(state, steps, report);
  const double e1 = integrator.energy(state).total();
  std::printf("\n%llu steps in %.2f s (%.3f s/step); relative energy drift "
              "%.3e\n",
              static_cast<unsigned long long>(steps), t.seconds(),
              t.seconds() / static_cast<double>(steps),
              std::abs(e1 - e0) / std::abs(e0));
  return 0;
}
