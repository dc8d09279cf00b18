#pragma once
// service::SolverService — the multi-tenant solve front end (DESIGN.md
// Section 17). Many independent clients share one process: the service
// owns the shared PlanCache, a pool of per-configuration client solvers
// (each with its warm SolveWorkspace), and a request scheduler that admits
// a batch of independent solves as interleaved DAG nodes on the one
// phase-graph executor.
//
// Determinism contract: every pooled client runs in sequential execution
// mode on its private one-thread pool (the calling scheduler worker
// executes it inline — ThreadPool is not nestable). Sequential and
// threaded solo solves are already bitwise-identical (the fixed-chunk
// guarantee, DESIGN.md Section 12), so a solve admitted through the
// service returns bit-for-bit the answer a solitary FmmSolver would.
// Data-parallel requests are rejected: the simulated machine fans out onto
// the global pool itself and cannot be nested under the batch scheduler.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hfmm/core/solver.hpp"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm::service {

/// One independent solve: a workload configuration plus its particles.
/// `config.mode` is forced to sequential on admission (see above);
/// everything else is honored verbatim.
struct SolveRequest {
  core::FmmConfig config;
  const ParticleSet* particles = nullptr;
};

/// A completed request: the solver's full result (per-phase PhaseStats in
/// result.breakdown) plus the service-side admission record.
struct SolveOutcome {
  core::FmmResult result;
  /// Seconds the request waited from batch start until its solve body was
  /// claimed by a scheduler worker.
  double queue_seconds = 0.0;
  /// True when the request was served by a pooled client (warm workspace)
  /// rather than a freshly constructed one.
  bool client_reused = false;
};

struct ServiceStats {
  std::uint64_t solves = 0;    ///< requests completed
  std::uint64_t batches = 0;   ///< solve_batch calls
  std::uint64_t clients_created = 0;
  std::uint64_t clients_reused = 0;
  PlanCacheStats plan_cache;
};

class SolverService {
 public:
  SolverService();
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Solves one request through the client pool (plan served by the shared
  /// cache; workspace warm when a pooled client with this configuration
  /// exists). Throws std::invalid_argument for data-parallel configs.
  SolveOutcome solve(const core::FmmConfig& config,
                     const ParticleSet& particles);

  /// Admits a batch of independent requests as one interleaved phase-graph
  /// run on the process-global pool: one serial DAG node per request, no
  /// cross edges, costliest request claimed first (ties by request index).
  /// A request costs its client's last solve seconds x N / N_last; a client
  /// that has not solved yet costs +infinity, so a cold batch runs in
  /// request order. Outcomes are returned in REQUEST order. Each request's
  /// result is bitwise-identical to a solo solve of the same (config,
  /// particles).
  std::vector<SolveOutcome> solve_batch(std::span<const SolveRequest> requests);

  /// The shared plan cache (for stats or for constructing cache-aware
  /// solvers outside the service).
  const std::shared_ptr<PlanCache>& plan_cache() const;

  ServiceStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hfmm::service
