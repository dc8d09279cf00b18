#pragma once
// service::PlanCache — a shared, thread-safe cache of the solver's
// immutable precomputed state (DESIGN.md Section 17):
//
//   * TranslationData — per quadrature/separation configuration and matrix
//     set (the supernode set, or the union-offset set that solves without
//     supernodes and data-parallel solves apply), depth-independent, shared
//     by every plan built from it. Never evicted (there are only a handful
//     of rules in practice).
//   * FmmPlan — per (translation config, kernel, depth), and for a
//     short-range kernel also per cutoff, domain box and periodic wrap
//     (its near lists are cut to the cutoff), refcounted and LRU-evicted.
//     Eviction while a solve is in flight is safe: clients hold shared_ptr
//     leases, so the plan outlives its cache entry.
//
// Every FmmSolver resolves its plans through a PlanCache. Solvers
// constructed with a shared one — every client the SolverService pools —
// share plans instead of rebuilding per instance, so N clients of the same
// workload pay for one plan build; a solitary solver owns a private
// one-plan cache. The capacity is the only bound: a plan's translation
// data, which it shares with every other plan of the same rule, is not
// counted against it.

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
  std::uint64_t plan_evictions = 0;  ///< capacity-driven
  std::uint64_t trans_hits = 0;
  std::uint64_t trans_misses = 0;
};

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 16;

  /// `capacity` bounds the number of resident plans (LRU); translation
  /// data is kept unbounded (one entry per quadrature configuration).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);
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
  /// are immutable and safe to use after eviction.
  std::shared_ptr<const core::internal::FmmPlan> plan(
      const core::FmmConfig& config, int depth, bool* hit = nullptr);

  PlanCacheStats stats() const;
  std::size_t size() const;      ///< resident plan count
  std::size_t capacity() const;  ///< plan LRU capacity

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hfmm::service
