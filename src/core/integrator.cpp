#include "hfmm/core/integrator.hpp"

#include <cmath>
#include <stdexcept>

namespace hfmm::core {

namespace {

// Leapfrog kick: vel[i] = fma(c, acc[i], vel[i]) per component, with c the
// signed half-step factor. std::fma is correctly rounded, so the bits do
// not depend on the compiler's -ffp-contract choice or on the ISA.
void kick(const Vec3* acc, double c, Vec3* vel, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    vel[i].x = std::fma(c, acc[i].x, vel[i].x);
    vel[i].y = std::fma(c, acc[i].y, vel[i].y);
    vel[i].z = std::fma(c, acc[i].z, vel[i].z);
  }
}

// Leapfrog drift: x/y/z[i] = fma(dt, vel[i], x/y/z[i]), the same explicit
// FMA onto the SoA coordinate arrays.
void drift(const Vec3* vel, double dt, double* x, double* y, double* z,
           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::fma(dt, vel[i].x, x[i]);
    y[i] = std::fma(dt, vel[i].y, y[i]);
    z[i] = std::fma(dt, vel[i].z, z[i]);
  }
}

}  // namespace

LeapfrogIntegrator::LeapfrogIntegrator(FmmSolver& solver, ForceLaw law,
                                       double dt)
    : solver_(solver), law_(law), dt_(dt) {
  if (!(dt > 0.0))
    throw std::invalid_argument("LeapfrogIntegrator: dt must be positive");
  if (!solver.config().with_gradient)
    throw std::invalid_argument(
        "LeapfrogIntegrator: solver must be configured with_gradient = true");
}

void LeapfrogIntegrator::evaluate_forces(SimulationState& state) {
  const std::size_t n = state.particles.size();
  SolveView view;
  FmmResult r = solver_.solve(state.particles, view);
  state.phi.resize(n);
  accel_.resize(n);
  if (view.valid()) {
    // Streamed path: one pass over the sorted-order view scatters phi and
    // the law-applied acceleration straight into original order — the solve
    // skipped its own result-vector assign + unsort entirely. The ForceLaw
    // branch is hoisted out of the per-particle loop.
    //   gravity:  phi = sum m_j / r, so a = +grad phi (see header)
    //   electrostatic: unit masses, F = -q grad phi
    switch (law_) {
      case ForceLaw::kGravity:
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t j = view.perm[i];
          state.phi[j] = view.phi[i];
          accel_[j] = view.grad[i];
        }
        break;
      case ForceLaw::kElectrostatic:
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t j = view.perm[i];
          state.phi[j] = view.phi[i];
          accel_[j] = -view.q[i] * view.grad[i];
        }
        break;
    }
    ++force_stats_.streamed_evaluations;
    force_stats_.saved_result_allocs += 2;  // result.phi + result.grad
  } else {
    // Data-parallel mode (or n == 0): the solve filled the result vectors
    // in original order as usual.
    state.phi = std::move(r.phi);
    switch (law_) {
      case ForceLaw::kGravity:
        for (std::size_t i = 0; i < n; ++i) accel_[i] = r.grad[i];
        break;
      case ForceLaw::kElectrostatic:
        for (std::size_t i = 0; i < n; ++i)
          accel_[i] = -state.particles.charge(i) * r.grad[i];
        break;
    }
  }
  ++force_stats_.evaluations;
  if (r.plan_reused) ++force_stats_.warm_evaluations;
  force_stats_.workspace_allocs += r.workspace_allocs;
  force_stats_.seconds += r.breakdown.total_seconds();
  last_breakdown_ = std::move(r.breakdown);
}

void LeapfrogIntegrator::initialize(SimulationState& state) {
  if (state.velocity.size() != state.particles.size())
    throw std::invalid_argument("LeapfrogIntegrator: velocity size mismatch");
  evaluate_forces(state);
}

void LeapfrogIntegrator::step(SimulationState& state) {
  ParticleSet& p = state.particles;
  const std::size_t n = p.size();
  if (accel_.size() != n || (n > 0 && state.phi.size() != n))
    throw std::logic_error("LeapfrogIntegrator: call initialize() first");
  // Kick (half), drift, re-evaluate, kick (half).
  kick(accel_.data(), 0.5 * dt_, state.velocity.data(), n);
  drift(state.velocity.data(), dt_, p.x().data(), p.y().data(), p.z().data(),
        n);
  evaluate_forces(state);
  kick(accel_.data(), 0.5 * dt_, state.velocity.data(), n);
  state.time += dt_;
  ++state.steps;
}

void LeapfrogIntegrator::run(
    SimulationState& state, std::uint64_t n,
    const std::function<void(const SimulationState&)>& on_step) {
  for (std::uint64_t s = 0; s < n; ++s) {
    step(state);
    if (on_step) on_step(state);
  }
}

EnergyReport LeapfrogIntegrator::energy(const SimulationState& state) const {
  EnergyReport e;
  const ParticleSet& p = state.particles;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double q = p.charge(i);
    const double m = law_ == ForceLaw::kGravity ? q : 1.0;
    e.kinetic += 0.5 * m * state.velocity[i].norm2();
    // Pair potential energy: gravity U = -1/2 sum m phi; electrostatics
    // U = +1/2 sum q phi.
    e.potential += (law_ == ForceLaw::kGravity ? -0.5 : 0.5) * q *
                   state.phi[i];
    e.momentum += m * state.velocity[i];
  }
  return e;
}

}  // namespace hfmm::core
