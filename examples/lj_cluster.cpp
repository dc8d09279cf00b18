// Lennard-Jones cluster relaxation with the short-range van der Waals
// kernel: a jittered cubic lattice of two atom types relaxes toward its
// energy minimum under damped leapfrog dynamics. Exercises the short-range
// KernelModel tier end to end: every step is a warm streamed solve that
// rebuilds the tree and runs the U-list near field, while the far-field
// phases stay empty.
//
//   ./lj_cluster [--side 4] [--steps 200] [--dt 2e-4] [--periodic]

#include <cstdio>
#include <vector>

#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/cli.hpp"
#include "hfmm/util/rng.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int side = static_cast<int>(cli.get("side", std::int64_t{4}));
  const std::uint64_t steps =
      static_cast<std::uint64_t>(cli.get("steps", std::int64_t{200}));
  const double dt = cli.get("dt", 2e-4);
  const bool periodic = cli.flag("periodic");
  const std::size_t n = static_cast<std::size_t>(side) * side * side;

  // Atoms on a jittered lattice, spacing == the A-A Rmin, so neighbors sit
  // near the pair minimum and the jitter gives the relaxation work to do.
  const double spacing = 0.22;
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.type = core::KernelType::kVanDerWaals;
  cfg.kernel.vdw_rmin = {0.22, 0.18};     // two atom types (A, B)
  cfg.kernel.vdw_epsilon = {1.0, 0.5};
  cfg.kernel.vdw_cuton = 0.18;
  cfg.kernel.vdw_cutoff = 0.24;           // <= box side / 4
  cfg.kernel.vdw_periodic = periodic;

  core::SimulationState state;
  state.particles.resize(n);
  state.velocity.assign(n, Vec3{});
  Xoshiro256 rng(7);
  const double origin = 0.5 - 0.5 * (side - 1) * spacing;
  std::size_t i = 0;
  for (int ix = 0; ix < side; ++ix)
    for (int iy = 0; iy < side; ++iy)
      for (int iz = 0; iz < side; ++iz, ++i) {
        const Vec3 p{origin + ix * spacing + rng.uniform(-0.02, 0.02),
                     origin + iy * spacing + rng.uniform(-0.02, 0.02),
                     origin + iz * spacing + rng.uniform(-0.02, 0.02)};
        // q = +1: with ForceLaw::kElectrostatic the acceleration is
        // -grad phi, i.e. minus the LJ energy gradient — the LJ force.
        state.particles.set(i, p, 1.0);
        state.particles.set_type(i, static_cast<std::int32_t>(i % 2));
      }

  core::FmmSolver solver(cfg);
  core::LeapfrogIntegrator integrator(solver, core::ForceLaw::kElectrostatic,
                                      dt);
  integrator.initialize(state);

  const auto potential = [&] {
    double u = 0.0;
    for (const double p : state.phi) u += 0.5 * p;  // U = 1/2 sum_i phi_i
    return u;
  };
  const auto kinetic = [&] {
    double t = 0.0;
    for (const Vec3& v : state.velocity) t += 0.5 * v.dot(v);
    return t;
  };

  std::printf("LJ cluster: %zu atoms (%dx%dx%d, 2 types), cutoff %.2f%s\n", n,
              side, side, side, cfg.kernel.vdw_cutoff,
              periodic ? ", periodic box" : "");
  std::printf("%-8s %-14s %-14s\n", "step", "potential", "kinetic");
  std::printf("%-8llu %-14.6f %-14.6f\n", 0ull, potential(), kinetic());

  const double u0 = potential();
  for (std::uint64_t s = 0; s < steps; ++s) {
    integrator.step(state);
    // Velocity damping drains the kinetic energy the relaxation releases,
    // so the cluster settles instead of oscillating.
    for (Vec3& v : state.velocity) v = 0.98 * v;
    if ((s + 1) % (steps / 10 == 0 ? 1 : steps / 10) == 0)
      std::printf("%-8llu %-14.6f %-14.6f\n",
                  static_cast<unsigned long long>(s + 1), potential(),
                  kinetic());
  }
  const double u1 = potential();
  std::printf("potential energy: %.6f -> %.6f (%s)\n", u0, u1,
              u1 < u0 ? "relaxed" : "NOT relaxed");

  const auto& fs = integrator.force_stats();
  std::printf("force evaluations: %llu (%llu warm, %llu workspace allocs)\n",
              static_cast<unsigned long long>(fs.evaluations),
              static_cast<unsigned long long>(fs.warm_evaluations),
              static_cast<unsigned long long>(fs.workspace_allocs));
  return u1 < u0 ? 0 : 1;
}
