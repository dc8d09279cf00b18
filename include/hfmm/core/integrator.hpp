#pragma once
// Leapfrog (kick-drift-kick) time integration driven by the O(N) solver —
// the dynamics loop of the N-body simulations the paper's introduction
// motivates (celestial mechanics, plasma physics, molecular dynamics).
//
// Convention: charges are masses/charges q; the solver returns
// phi_i = sum q_j / r_ij and its gradient. The equation of motion is
//   a_i = sign * (q_i / m_i) * grad phi_i
// with unit masses (m_i = |q_i|) assumed here:
//   gravity  (all q > 0):  a = +grad phi  (attractive), sign = +1
//   plasma   (mixed q):    a = -(q_i/|q_i|) grad phi    (like repels like)

#include <functional>
#include <vector>

#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm::core {

enum class ForceLaw {
  kGravity,        ///< a = +grad phi; charges are masses (> 0)
  kElectrostatic,  ///< a = -sign(q) grad phi; unit masses
};

struct SimulationState {
  ParticleSet particles;
  std::vector<Vec3> velocity;
  std::vector<double> phi;  ///< potential from the last force evaluation
  double time = 0.0;
  std::uint64_t steps = 0;
};

struct EnergyReport {
  double kinetic = 0.0;
  double potential = 0.0;  ///< sign-correct: -1/2 sum q phi for gravity
  double total() const { return kinetic + potential; }
  Vec3 momentum;
};

/// Accumulated force-evaluation statistics over the integrator's lifetime.
/// After the first evaluation builds the solver's plan, every later step is
/// a warm solve (plan reused, ~zero workspace growth) — the per-step cost
/// the paper's timestep loops care about.
struct ForceStats {
  std::uint64_t evaluations = 0;       ///< solver_.solve() calls issued
  std::uint64_t warm_evaluations = 0;  ///< of those, plan-reusing (warm)
  std::uint64_t workspace_allocs = 0;  ///< summed heap-growth events
  /// Evaluations that consumed the solver's sorted-order SolveView instead
  /// of FmmResult vectors (every non-DP evaluation).
  std::uint64_t streamed_evaluations = 0;
  /// Per-step result-vector allocations avoided by streaming (phi + grad
  /// assigns skipped per streamed evaluation).
  std::uint64_t saved_result_allocs = 0;
  double seconds = 0.0;                ///< summed solve wall time
};

class LeapfrogIntegrator {
 public:
  /// The solver must be configured with with_gradient = true.
  LeapfrogIntegrator(FmmSolver& solver, ForceLaw law, double dt);

  /// Initializes internal forces; call once before step().
  void initialize(SimulationState& state);

  /// Advances one kick-drift-kick step (second order, symplectic).
  void step(SimulationState& state);

  /// Advances `n` steps, invoking `on_step(state)` after each (if set).
  void run(SimulationState& state, std::uint64_t n,
           const std::function<void(const SimulationState&)>& on_step = {});

  EnergyReport energy(const SimulationState& state) const;

  const ForceStats& force_stats() const { return force_stats_; }

  /// Phase breakdown of the most recent force evaluation (sort and active
  /// seconds, ...) — what the dynamics benches report per step. Empty
  /// before initialize().
  const PhaseBreakdown& last_breakdown() const { return last_breakdown_; }

 private:
  void evaluate_forces(SimulationState& state);

  FmmSolver& solver_;
  ForceLaw law_;
  double dt_;
  /// a_i in ORIGINAL particle order, precomputed per evaluation with the
  /// ForceLaw branch applied once (not once per particle per kick).
  std::vector<Vec3> accel_;
  ForceStats force_stats_;
  PhaseBreakdown last_breakdown_;
};

}  // namespace hfmm::core
