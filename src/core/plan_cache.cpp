#include "hfmm/service/plan_cache.hpp"

#include <array>
#include <bit>
#include <cstdint>

#include "hfmm/service/shared_map.hpp"
#include "solver_internal.hpp"

namespace hfmm::service {

namespace {

using core::internal::FmmPlan;
using core::internal::MatrixSet;
using core::internal::TranslationData;

// Everything TranslationData::build reads from the config: the quadrature
// rule identity (K + truncation + sphere ratios), the separation, and the
// matrix set the executor applies (supernodes and mode decide it, see
// matrix_set_for). Doubles are keyed by bit pattern — configs are
// constructed from the same literals, not computed.
struct TransKey {
  std::size_t k = 0;
  int truncation = 0;
  std::uint64_t outer_bits = 0;
  std::uint64_t inner_bits = 0;
  int separation = 0;
  MatrixSet set = MatrixSet::kUnion;
  bool operator==(const TransKey&) const = default;
};

TransKey trans_key(const core::FmmConfig& config) {
  TransKey key;
  key.k = config.params.k();
  key.truncation = config.params.truncation;
  key.outer_bits = std::bit_cast<std::uint64_t>(config.params.outer_ratio);
  key.inner_bits = std::bit_cast<std::uint64_t>(config.params.inner_ratio);
  key.separation = config.separation;
  key.set = core::internal::matrix_set_for(config);
  return key;
}

struct TransKeyHash {
  std::size_t operator()(const TransKey& key) const {
    std::size_t h = key.k;
    h = hash_combine(h, static_cast<std::size_t>(key.truncation));
    h = hash_combine(h, static_cast<std::size_t>(key.outer_bits));
    h = hash_combine(h, static_cast<std::size_t>(key.inner_bits));
    h = hash_combine(h, static_cast<std::size_t>(key.separation));
    h = hash_combine(h, static_cast<std::size_t>(key.set));
    return h;
  }
};

// Plan identity: the translation config it builds on, plus the kernel
// family and the depth. A short-range plan cuts its near list to the
// cutoff at the leaf side its domain box fixes (near_offsets_for), so the
// cutoff, the box corners and the periodic wrap key it too; a far-field
// plan leaves them zero.
struct PlanKey {
  TransKey trans;
  int kernel = 0;
  int depth = 0;
  std::array<std::uint64_t, 7> range_bits{};  // cutoff, box lo, box hi
  bool periodic = false;
  bool operator==(const PlanKey&) const = default;
};

PlanKey plan_key(const core::FmmConfig& config, int depth) {
  PlanKey key;
  key.trans = trans_key(config);
  key.kernel = static_cast<int>(config.kernel.type);
  key.depth = depth;
  const core::KernelSpec& k = config.kernel;
  if (!k.far_field_capable()) {
    const Box3& b = k.vdw_box;
    const double range[7] = {k.vdw_cutoff, b.lo.x, b.lo.y, b.lo.z,
                             b.hi.x,       b.hi.y, b.hi.z};
    for (std::size_t i = 0; i < key.range_bits.size(); ++i)
      key.range_bits[i] = std::bit_cast<std::uint64_t>(range[i]);
    key.periodic = k.vdw_periodic;
  }
  return key;
}

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const {
    std::size_t h = TransKeyHash{}(key.trans);
    h = hash_combine(h, static_cast<std::size_t>(key.kernel));
    h = hash_combine(h, static_cast<std::size_t>(key.depth));
    for (const std::uint64_t bits : key.range_bits)
      h = hash_combine(h, static_cast<std::size_t>(bits));
    h = hash_combine(h, static_cast<std::size_t>(key.periodic));
    return h;
  }
};

}  // namespace

struct PlanCache::Impl {
  SharedMap<TransKey, const TranslationData, TransKeyHash> trans;
  SharedMap<PlanKey, const FmmPlan, PlanKeyHash> plans;
};

PlanCache::PlanCache() : impl_(std::make_unique<Impl>()) {}

PlanCache::~PlanCache() = default;

std::shared_ptr<const TranslationData> PlanCache::translations(
    const core::FmmConfig& config, bool* hit) {
  auto [value, was_hit] = impl_->trans.get_or_build(
      trans_key(config), [&] { return TranslationData::build(config); });
  if (hit != nullptr) *hit = was_hit;
  return value;
}

std::shared_ptr<const FmmPlan> PlanCache::plan(const core::FmmConfig& config,
                                               int depth, bool* hit) {
  // The translations resolve first, outside the plan map, so a plan build
  // is only its near list. Short-range kernels have no translation
  // machinery; their plans carry only the near-field interaction list.
  std::shared_ptr<const TranslationData> trans;
  if (config.kernel.far_field_capable()) trans = translations(config);
  auto [value, was_hit] =
      impl_->plans.get_or_build(plan_key(config, depth), [&] {
        return FmmPlan::build(std::move(trans), config, depth);
      });
  if (hit != nullptr) *hit = was_hit;
  return value;
}

PlanCacheStats PlanCache::stats() const {
  const SharedMapStats p = impl_->plans.stats();
  const SharedMapStats t = impl_->trans.stats();
  PlanCacheStats s;
  s.plan_hits = p.hits;
  s.plan_misses = p.misses;
  s.trans_hits = t.hits;
  s.trans_misses = t.misses;
  return s;
}

std::size_t PlanCache::size() const { return impl_->plans.size(); }

}  // namespace hfmm::service
