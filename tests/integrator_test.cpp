// Tests for the leapfrog integrator: two-body orbits, energy conservation,
// momentum conservation, and time-reversibility of the symplectic scheme —
// plus long-run energy drift on the streamed warm-solve path and the
// warm-step contract on both clustered inputs, a Plummer sphere and a
// two-cluster merger (DESIGN.md Section 14).

#include <gtest/gtest.h>

#include <cmath>

#include "hfmm/core/integrator.hpp"

namespace hfmm::core {
namespace {

FmmSolver& gravity_solver() {
  static FmmConfig cfg = [] {
    FmmConfig c;
    c.with_gradient = true;
    c.kernel.softening = 0.0;
    return c;
  }();
  static FmmSolver solver(cfg);
  return solver;
}

// Two equal masses on a circular orbit about their barycentre.
SimulationState circular_binary(double separation, double mass) {
  SimulationState s;
  s.particles.resize(2);
  s.particles.set(0, {0.5 - 0.5 * separation, 0.5, 0.5}, mass);
  s.particles.set(1, {0.5 + 0.5 * separation, 0.5, 0.5}, mass);
  // v^2 = G m_other^2 / (M r) for equal masses: each orbits at radius r/2
  // with a = G m / r^2 = v^2 / (r/2) => v = sqrt(G m / (2 r)).
  const double v = std::sqrt(mass / (2.0 * separation));
  s.velocity = {{0, v, 0}, {0, -v, 0}};
  return s;
}

TEST(IntegratorTest, RejectsBadConfig) {
  FmmConfig cfg;  // with_gradient defaults to false
  FmmSolver solver(cfg);
  EXPECT_THROW(LeapfrogIntegrator(solver, ForceLaw::kGravity, 0.01),
               std::invalid_argument);
  EXPECT_THROW(LeapfrogIntegrator(gravity_solver(), ForceLaw::kGravity, 0.0),
               std::invalid_argument);
}

TEST(IntegratorTest, CircularBinaryKeepsSeparation) {
  SimulationState s = circular_binary(0.2, 0.1);
  // Orbital period T = 2 pi r_orbit / v; resolve it with ~200 steps.
  const double v = std::sqrt(0.1 / 0.4);
  const double period = 2.0 * std::numbers::pi * 0.1 / v;
  LeapfrogIntegrator integ(gravity_solver(), ForceLaw::kGravity,
                           period / 200.0);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 200);  // one full period
  const double sep =
      (s.particles.position(0) - s.particles.position(1)).norm();
  EXPECT_NEAR(sep, 0.2, 0.01);
  EXPECT_NEAR(integ.energy(s).total(), e0, 0.02 * std::abs(e0));  // FMM-accuracy bound
}

TEST(IntegratorTest, EnergyConservedForCluster) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(800, Box3{}, 11, /*mass=*/0.5);
  s.velocity.assign(800, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.002);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 5);
  const double e1 = integ.energy(s).total();
  EXPECT_NEAR(e1, e0, 5e-3 * std::abs(e0));
  EXPECT_EQ(s.steps, 5u);
  EXPECT_NEAR(s.time, 0.01, 1e-12);
}

TEST(IntegratorTest, MomentumConserved) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(500, Box3{}, 13, 0.5);
  s.velocity.assign(500, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.002);
  integ.initialize(s);
  integ.run(s, 4);
  EXPECT_LT(integ.energy(s).momentum.norm(), 1e-6);
}

TEST(IntegratorTest, TimeReversible) {
  // Run forward n steps, flip velocities, run n steps: leapfrog returns to
  // the initial positions to integration accuracy.
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.05;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(200, Box3{}, 17, 0.2);
  s.velocity.assign(200, Vec3{});
  const ParticleSet initial = s.particles;
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.005);
  integ.initialize(s);
  integ.run(s, 5);
  for (Vec3& v : s.velocity) v = -v;
  integ.initialize(s);
  integ.run(s, 5);
  double worst = 0.0;
  for (std::size_t i = 0; i < 200; ++i)
    worst = std::max(worst,
                     (s.particles.position(i) - initial.position(i)).norm());
  EXPECT_LT(worst, 1e-4);
}

TEST(IntegratorTest, ElectrostaticRepulsion) {
  // Two like charges released from rest must fly apart.
  FmmConfig cfg;
  cfg.with_gradient = true;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles.resize(2);
  s.particles.set(0, {0.4, 0.5, 0.5}, 1.0);
  s.particles.set(1, {0.6, 0.5, 0.5}, 1.0);
  s.velocity.assign(2, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kElectrostatic, 0.001);
  integ.initialize(s);
  integ.run(s, 10);
  const double sep =
      (s.particles.position(0) - s.particles.position(1)).norm();
  EXPECT_GT(sep, 0.2);
  // And opposite charges attract.
  SimulationState a;
  a.particles.resize(2);
  a.particles.set(0, {0.4, 0.5, 0.5}, 1.0);
  a.particles.set(1, {0.6, 0.5, 0.5}, -1.0);
  a.velocity.assign(2, Vec3{});
  integ.initialize(a);
  integ.run(a, 10);
  EXPECT_LT((a.particles.position(0) - a.particles.position(1)).norm(), 0.2);
}

// Long-run guard for the streamed kick-drift-accumulate path: 100 leapfrog
// steps of a softened Plummer sphere on plain warm solves (every solve
// rebuilds the sort and structures) must conserve energy to leapfrog
// accuracy and stream every evaluation.
TEST(IntegratorTest, HundredStepPlummerEnergyDrift) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.softening = 0.02;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_plummer(500, Box3{}, 23, /*mass=*/0.5);
  s.velocity.assign(500, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 0.001);
  integ.initialize(s);
  const double e0 = integ.energy(s).total();
  integ.run(s, 100);
  EXPECT_NEAR(integ.energy(s).total(), e0, 3e-2 * std::abs(e0));
  const ForceStats& fs = integ.force_stats();
  EXPECT_EQ(fs.evaluations, 101u);
  EXPECT_EQ(fs.streamed_evaluations, 101u);
  EXPECT_EQ(fs.saved_result_allocs, 202u);
  EXPECT_EQ(fs.warm_evaluations, 100u);
}

// The warm-step contract on the other clustered input: two cold clusters
// falling together (the timestep loop's merger scenario). After
// initialize() every step is a warm solve, although the particles move and
// every solve rebuilds the sort and structures, and every evaluation
// streams.
TEST(IntegratorTest, TwoClusterMergerStepsWarmAndStreamed) {
  FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.supernodes = true;
  cfg.kernel.softening = 1e-3;
  FmmSolver solver(cfg);
  SimulationState s;
  s.particles = make_two_clusters(2000, Box3{}, 1203);
  s.velocity.assign(2000, Vec3{});
  LeapfrogIntegrator integ(solver, ForceLaw::kGravity, 1e-3);
  integ.initialize(s);
  integ.run(s, 6);
  const ForceStats& fs = integ.force_stats();
  EXPECT_EQ(fs.evaluations, 7u);
  EXPECT_EQ(fs.streamed_evaluations, 7u);
  EXPECT_EQ(fs.warm_evaluations, 6u);
}

}  // namespace
}  // namespace hfmm::core
