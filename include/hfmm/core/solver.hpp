#pragma once
// FmmSolver — the public entry point of the library.
//
// Runs the five-step generic hierarchical method of the paper (Section 2.2):
//   1. P2M: leaf outer approximations from particles,
//   2. upward pass (T1),
//   3. downward pass (T2 over interactive fields + T3 from parents),
//   4. L2P: far-field potential at the particles,
//   5. near field: direct evaluation over the d-separation neighborhood,
// with Anderson's sphere elements and the paper's data-parallel execution
// techniques. See FmmConfig for the execution/aggregation choices.
//
// Typical use:
//   FmmConfig cfg;                      // D = 5, K = 12 defaults
//   cfg.with_gradient = true;
//   FmmSolver solver(cfg);
//   FmmResult r = solver.solve(particles);
//   // r.phi[i], r.grad[i] in the ORIGINAL particle order.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hfmm/core/config.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/timer.hpp"

namespace hfmm::service {
class PlanCache;
}  // namespace hfmm::service

namespace hfmm::core {

struct FmmResult {
  std::vector<double> phi;   ///< potential per particle (original order)
  std::vector<Vec3> grad;    ///< field gradient (if config.with_gradient)
  PhaseBreakdown breakdown;  ///< per-phase time / flops / comm
  dp::CommStats comm;        ///< data-parallel mode communication counters
  int depth = 0;             ///< hierarchy depth used
  std::size_t k = 0;         ///< integration points per sphere
  /// The physics this solve evaluated (config.kernel.type). Short-range
  /// kernels keep the far-field phases in the breakdown/timeline as empty
  /// entries (zero boxes, zero pairs).
  KernelType kernel = KernelType::kLaplace3d;
  std::size_t leaf_boxes = 0;
  bool plan_reused = false;  ///< warm solve: no plan construction happened
  std::uint64_t workspace_allocs = 0;  ///< heap-growth events this solve
  /// Total active boxes over all levels: a box is active when its subtree
  /// holds a particle (DESIGN.md Section 13). Equals the total box count of
  /// levels 0..depth when every leaf is occupied.
  std::size_t active_boxes = 0;
  /// Per-level active-box fraction, level_occupancy[l] in (0, 1].
  std::vector<double> level_occupancy;
  /// Heap footprint (capacity) of the solve workspace after this solve.
  std::size_t workspace_bytes = 0;
  /// Per-stage execution timeline of the solve's phase graph (start/end
  /// seconds relative to the graph run, chunk split, worker count) — shows
  /// which stages overlapped in concurrent mode.
  std::vector<exec::StageTiming> timeline;
};

/// Borrowed, SORTED-order view of a solve's per-particle outputs — the
/// streamed accumulation path for timestep loops. `phi[i]` / `grad[i]`
/// belong to the particle with original index `perm[i]`; `q[i]` is its
/// charge. The spans alias the solver's workspace: they stay valid until
/// the next solve() on the same solver and must not be written. When a
/// solve fills a view, FmmResult::phi / ::grad are left EMPTY (no
/// original-order scatter, no per-step result allocation). Data-parallel
/// mode does not stream; the view comes back empty (valid() == false) and
/// the result vectors are filled as usual.
struct SolveView {
  std::span<const double> phi;
  std::span<const Vec3> grad;  ///< empty unless config.with_gradient
  std::span<const std::uint32_t> perm;  ///< sorted index -> original index
  std::span<const double> q;            ///< charges in sorted order
  bool valid() const { return !phi.empty(); }
};

/// Depth the solver will use for `n` particles under `config` — the
/// automatic-depth rule (Section 2.3 occupancy balance and the short-range
/// cutoff-coverage cap), or the explicit config.depth. Free function so the
/// C API can warm a plan for a size hint without instantiating a solver.
int depth_for(const FmmConfig& config, std::size_t n);

class FmmSolver {
 public:
  explicit FmmSolver(FmmConfig config);
  /// Service-client form: plans and translation data resolve through the
  /// shared `cache` instead of being built per solver, so N clients of the
  /// same workload pay for one plan build (DESIGN.md Section 17). A null
  /// cache behaves exactly like the single-argument constructor, which
  /// gives the solver a private cache.
  FmmSolver(FmmConfig config, std::shared_ptr<service::PlanCache> cache);
  ~FmmSolver();
  FmmSolver(const FmmSolver&) = delete;
  FmmSolver& operator=(const FmmSolver&) = delete;

  /// Computes the potential (and optionally gradient) induced at every
  /// particle by all the others. Throws std::invalid_argument, before any
  /// work, when there are more than 2^32 - 1 particles, a position or
  /// charge is not finite, or a coordinate lies outside [-2^500, 2^500]
  /// (about +-3.27e150).
  FmmResult solve(const ParticleSet& particles);

  /// Streamed variant: leaves the outputs in sorted order behind `view`
  /// instead of scattering them into FmmResult (see SolveView). Everything
  /// else about the solve — phases, counters, determinism — is identical.
  FmmResult solve(const ParticleSet& particles, SolveView& view);

  const FmmConfig& config() const { return config_; }

  /// Builds this solver's translation matrices if no solve has yet (a
  /// timing loop calls it to keep precompute out of its timings) and
  /// returns their resident bytes: one K x K matrix per translation the
  /// executor applies (DESIGN.md Section 11). 0 for short-range kernels,
  /// which have no translations.
  std::size_t precompute();

  /// Depth that will be used for `n` particles under this configuration.
  int depth_for(std::size_t n) const;

  /// True when a solve for `n` particles would reuse the cached plan (i.e.
  /// a previous solve already built the plan for depth_for(n)).
  bool plan_ready(std::size_t n) const;

  /// Internal state (precomputed matrices); defined in solver_internal.hpp.
  struct Impl;

 private:
  FmmResult solve_impl_(const ParticleSet& particles, SolveView* view);
  FmmResult solve_dp_(const ParticleSet& particles,
                      const tree::Hierarchy& hier, FmmResult result);
  FmmConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hfmm::core
