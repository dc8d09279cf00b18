#pragma once
// service::PlanCache — a shared, thread-safe cache of the solver's
// immutable precomputed state (DESIGN.md Section 17). Two tiers, both built
// once per key and kept for the cache's lifetime:
//
//   * TranslationData — per quadrature/separation configuration and matrix
//     set (the supernode set, or the union-offset set that solves without
//     supernodes and data-parallel solves apply), depth-independent, shared
//     by every plan built from it: 1.17 MB at K = 12, 42.2 MB at K = 72.
//   * FmmPlan — per (translation config, kernel, depth), and for a
//     short-range kernel also per cutoff, domain box and periodic wrap
//     (its near list is cut to the cutoff). A plan holds only its near
//     list: the 62 offsets of the half list at d = 2, 744 B.
//
// Every FmmSolver resolves its plans through a PlanCache. Solvers
// constructed with a shared one — every client the SolverService pools —
// share plans instead of rebuilding per instance, so N clients of the same
// workload pay for one plan build; a solitary solver owns a private cache,
// which keeps one plan per depth it has solved at.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "hfmm/core/config.hpp"

namespace hfmm::core::internal {
struct FmmPlan;
struct TranslationData;
}  // namespace hfmm::core::internal

namespace hfmm::service {

struct PlanCacheStats {
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t trans_hits = 0;
  std::uint64_t trans_misses = 0;
};

class PlanCache {
 public:
  PlanCache();
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The translation machinery for `config`'s quadrature, separation and
  /// matrix set; built on first use. `hit` (optional) reports whether it
  /// was served from cache.
  std::shared_ptr<const core::internal::TranslationData> translations(
      const core::FmmConfig& config, bool* hit = nullptr);

  /// The solve plan for (`config`, `depth`); built (and its translation
  /// data resolved) on a miss. `hit` reports cache service. Returned plans
  /// are immutable.
  std::shared_ptr<const core::internal::FmmPlan> plan(
      const core::FmmConfig& config, int depth, bool* hit = nullptr);

  PlanCacheStats stats() const;
  std::size_t size() const;  ///< resident plan count

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hfmm::service
