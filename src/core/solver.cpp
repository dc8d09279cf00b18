#include "hfmm/core/solver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/anderson/translations.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "solver_internal.hpp"

namespace hfmm::core {

using internal::FmmPlan;
using internal::MatrixSet;
using internal::SolveWorkspace;
using internal::TranslationData;
using internal::UnionOffset;

namespace internal {

std::vector<UnionOffset> build_union_offsets(int d) {
  std::vector<UnionOffset> out;
  for (const tree::Offset& o : tree::sibling_union_offsets(d)) {
    UnionOffset u;
    u.o = o;
    const std::int32_t comps[3] = {o.dx, o.dy, o.dz};
    u.all_parities = true;
    for (int axis = 0; axis < 3; ++axis) {
      std::uint8_t mask = 0;
      if (comps[axis] >= -2 * d && comps[axis] <= 2 * d + 1) mask |= 1;  // p=0
      if (comps[axis] >= -2 * d - 1 && comps[axis] <= 2 * d) mask |= 2;  // p=1
      u.valid_parity[axis] = mask;
      if (mask != 3) u.all_parities = false;
    }
    out.push_back(u);
  }
  return out;
}

void validate_particles(const ParticleSet& particles, const KernelSpec& kernel,
                        std::string_view context) {
  const auto reject = [&](std::size_t i, const std::string& what) {
    throw std::invalid_argument(std::string(context) + ": particle " +
                                std::to_string(i) + " has " + what);
  };
  const std::span<const double> fields[] = {particles.x(), particles.y(),
                                            particles.z(), particles.q()};
  constexpr const char* names[] = {"x coordinate", "y coordinate",
                                   "z coordinate", "charge"};
  for (std::size_t i = 0; i < particles.size(); ++i)
    for (int f = 0; f < 4; ++f)
      if (!std::isfinite(fields[f][i]))
        reject(i, std::string("a non-finite ") + names[f]);
  // Only short-range kernels read the type ids, as indices into their pair
  // tables; particles without a type channel are all type 0.
  if (kernel.far_field_capable() || !particles.has_types()) return;
  const std::span<const std::int32_t> type = particles.type();
  const auto ntypes = static_cast<std::int64_t>(kernel.vdw_types());
  for (std::size_t i = 0; i < type.size(); ++i)
    if (type[i] < 0 || type[i] >= ntypes)
      reject(i, "type id " + std::to_string(type[i]) + " outside [0, " +
                    std::to_string(ntypes) + ")");
}

std::shared_ptr<const TranslationData> TranslationData::build(
    const FmmConfig& config) {
  WallTimer t;
  const anderson::Params& params = config.params;
  const int d = config.separation;
  auto trans = std::make_shared<TranslationData>();
  trans->set = matrix_set_for(config);
  trans->union_offsets = build_union_offsets(d);

  // Assign every matrix of the set a slot in the store, then build each
  // straight into its slot. T2 slots are shared by offset-cube index.
  std::vector<anderson::TranslationGeometry> geometry;
  const auto add = [&](const anderson::TranslationGeometry& g) {
    geometry.push_back(g);
    return geometry.size() - 1;
  };
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> t2_slot(tree::offset_cube_size(d), kNone);
  const auto t2_slot_of = [&](const tree::Offset& o) {
    std::size_t& slot = t2_slot[tree::offset_cube_index(o, d)];
    if (slot == kNone) slot = add(anderson::t2_geometry(params, o));
    return slot;
  };
  std::array<std::size_t, 8> t1_slot{}, t3_slot{};
  for (int o = 0; o < 8; ++o) {
    t1_slot[o] = add(anderson::t1_geometry(params, o));
    t3_slot[o] = add(anderson::t3_geometry(params, o));
  }
  std::array<std::vector<std::size_t>, 8> supernode_slot;
  if (trans->set == MatrixSet::kUnion) {
    for (const UnionOffset& u : trans->union_offsets) t2_slot_of(u.o);
  } else {
    for (int o = 0; o < 8; ++o) {
      trans->supernode_lists[o] = tree::supernode_interactive(o, d);
      for (const tree::SupernodeEntry& e : trans->supernode_lists[o])
        supernode_slot[o].push_back(
            e.source_level_up == 1
                ? add(anderson::supernode_geometry(params, o, e.offset))
                : t2_slot_of(e.offset));
    }
  }

  const std::size_t kk = params.k() * params.k();
  trans->store.resize(geometry.size() * kk);
  for (std::size_t s = 0; s < geometry.size(); ++s)
    anderson::build_translation_into(params, geometry[s], /*transposed=*/true,
                                     {trans->store.data() + s * kk, kk});
  const auto at = [&](std::size_t slot) {
    return trans->store.data() + slot * kk;
  };
  for (int o = 0; o < 8; ++o) {
    trans->t1[o] = at(t1_slot[o]);
    trans->t3[o] = at(t3_slot[o]);
    for (const std::size_t slot : supernode_slot[o])
      trans->supernode[o].push_back(at(slot));
  }
  trans->t2.assign(t2_slot.size(), nullptr);
  for (std::size_t i = 0; i < t2_slot.size(); ++i)
    if (t2_slot[i] != kNone) trans->t2[i] = at(t2_slot[i]);
  trans->build_seconds = t.seconds();
  return trans;
}

std::shared_ptr<const FmmPlan> FmmPlan::build(
    std::shared_ptr<const TranslationData> trans, const FmmConfig& config,
    int depth) {
  WallTimer t;
  auto plan = std::make_shared<FmmPlan>();
  plan->trans = std::move(trans);
  plan->kernel = config.kernel.type;
  plan->depth = depth;
  plan->k = config.params.k();
  // Short-range plans (trans == nullptr) carry only the near-field lists;
  // the supernode gather plans exist to drive translations that never run,
  // and only the kSupernode set holds the matrices they reference.
  if (plan->trans && plan->trans->set == MatrixSet::kSupernode) {
    plan->supernode_plans.resize(depth + 1);
    for (int l = 2; l <= depth; ++l)
      plan->supernode_plans[l] =
          build_supernode_plan(*plan->trans, std::int32_t{1} << l);
  }
  plan->near_offsets = tree::near_field_offsets(config.separation);
  plan->near_half_offsets = tree::near_field_half_offsets(config.separation);
  plan->build_seconds = t.seconds();
  return plan;
}

}  // namespace internal

const TranslationData& FmmSolver::Impl::translation_data(
    const FmmConfig& config, bool* built) {
  if (built != nullptr) *built = false;
  if (!trans) {
    if (cache) {
      bool hit = false;
      trans = cache->translations(config, &hit);
      if (built != nullptr) *built = !hit;
    } else {
      trans = TranslationData::build(config);
      if (built != nullptr) *built = true;
    }
  }
  return *trans;
}

const FmmPlan& FmmSolver::Impl::plan_for(const FmmConfig& config, int depth,
                                         PhaseBreakdown& breakdown) {
  if (plan && plan->depth == depth && plan->kernel == config.kernel.type)
    return *plan;
  ScopedPhaseTimer timer(breakdown["plan"]);
  if (cache) {
    bool hit = false;
    plan = cache->plan(config, depth, &hit);
    // A cache hit is a reuse, not a build: warm-path accounting
    // (plan_reused, zero plan allocs) holds from this client's very first
    // solve when another client already built the plan.
    if (hit)
      breakdown["plan"].plan_reuse += 1;
    else
      breakdown["plan"].allocs += 1;
  } else {
    plan = FmmPlan::build(trans, config, depth);
    breakdown["plan"].allocs += 1;
  }
  return *plan;
}

FmmSolver::FmmSolver(FmmConfig config)
    : FmmSolver(std::move(config), nullptr) {}

FmmSolver::FmmSolver(FmmConfig config,
                     std::shared_ptr<service::PlanCache> cache)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  impl_->cache = std::move(cache);
  config_.validate();
  if (config_.mode == ExecutionMode::kDistributed) {
    // Owner-computes execution (DESIGN.md Section 18) requires the
    // non-symmetric near field so every target's contributions accumulate
    // on the owning rank in the fixed offset order (the bitwise-identity
    // requirement; the symmetric half list would write both sides of a
    // pair, which crosses rank boundaries).
    config_.near_symmetry = false;
  }
  if (!config_.kernel.far_field_capable()) {
    impl_->vdw.build(config_.kernel);
    impl_->near.type = config_.kernel.type;
    impl_->near.soft2 = 0.0;
    impl_->near.vdw = impl_->vdw.params;
  } else {
    impl_->near = NearKernel{config_.kernel.softening};
  }
  // Pool selection happens once here, not per solve: sequential mode owns a
  // one-thread pool; the parallel modes share the process-global pool.
  if (config_.mode == ExecutionMode::kSequential) {
    impl_->seq_pool = std::make_unique<ThreadPool>(1);
    impl_->pool = impl_->seq_pool.get();
  } else {
    impl_->pool = &ThreadPool::global();
  }
}

FmmSolver::~FmmSolver() = default;

std::size_t FmmSolver::precompute() {
  if (!config_.kernel.far_field_capable()) return 0;
  return impl_->translation_data(config_).resident_bytes();
}

int depth_for(const FmmConfig& config_, std::size_t n) {
  if (config_.depth >= 0) return config_.depth;
  double occupancy = config_.particles_per_leaf;
  if (occupancy <= 0.0) {
    // Balance near-field (~occupancy^2) against traversal (~K^2 per box,
    // 4.6x less with supernodes); calibrated with bench_depth.
    occupancy = 0.75 * static_cast<double>(config_.params.k());
    if (config_.supernodes) occupancy *= 0.45;
    occupancy = std::clamp(occupancy, 8.0, 128.0);
  }
  int h = std::max(2, tree::optimal_depth(n, occupancy));
  if (!config_.kernel.far_field_capable()) {
    // Cutoff-coverage cap: the U-list reaches d leaf boxes, so with leaf
    // side s every pair within r < cutoff is covered when s >= cutoff / 2
    // (a per-axis box offset over such a pair is at most 2), i.e.
    // h <= floor(log2(2 * side / cutoff)). validate() guarantees
    // cutoff <= side / 4, so the cap is always >= 3. Periodic solves
    // additionally need >= 8 boxes per side so the +-2 wrapped offsets stay
    // distinct modulo the box count.
    const double side = config_.kernel.vdw_box.max_side();
    const int cap = static_cast<int>(
        std::floor(std::log2(2.0 * side / config_.kernel.vdw_cutoff)));
    h = std::min(h, cap);
    h = std::max(h, config_.kernel.vdw_periodic ? 3 : 2);
  }
  return h;
}

int FmmSolver::depth_for(std::size_t n) const {
  return core::depth_for(config_, n);
}

bool FmmSolver::plan_ready(std::size_t n) const {
  return impl_->plan != nullptr && impl_->plan->depth == depth_for(n);
}

namespace internal {

void apply_rows(const double* tt, std::size_t k, const double* src,
                double* dst, std::size_t nb, AggregationMode mode,
                std::size_t batch_slab, std::uint64_t& flops) {
  switch (mode) {
    case AggregationMode::kGemv:
      for (std::size_t b = 0; b < nb; ++b)
        blas::vecmat(src + b * k, tt, k, dst + b * k, k, k, true);
      break;
    case AggregationMode::kGemm:
      blas::gemm(src, k, tt, k, dst, k, nb, k, k, true);
      break;
    case AggregationMode::kGemmBatch: {
      const std::size_t slab = std::max<std::size_t>(1, batch_slab);
      const std::size_t full = nb / slab;
      if (full > 0)
        blas::gemm_batch(src, k, slab * k, tt, k, 0, dst, k, slab * k, slab,
                         k, k, full, true);
      const std::size_t rem = nb - full * slab;
      if (rem > 0)
        blas::gemm(src + full * slab * k, k, tt, k, dst + full * slab * k, k,
                   rem, k, k, true);
      break;
    }
  }
  flops += blas::gemm_flops(nb, k, k);
}

namespace {

// Floor/ceil division by 2 that stays correct for negative numerators (C++
// integer division truncates toward zero, which would admit out-of-bounds
// sources near the low domain boundary).
constexpr std::int32_t floor_div2(std::int32_t a) {
  return (a >= 0) ? a / 2 : -((-a + 1) / 2);
}
constexpr std::int32_t ceil_div2(std::int32_t a) { return floor_div2(a + 1); }

}  // namespace

SupernodeLevelPlan build_supernode_plan(const TranslationData& trans,
                                        std::int32_t n_child) {
  SupernodeLevelPlan plan;
  const std::int32_t np = n_child / 2;
  for (int octant = 0; octant < 8; ++octant) {
    const std::int32_t ov[3] = {octant & 1, (octant >> 1) & 1,
                                (octant >> 2) & 1};
    const auto& entries = trans.supernode_lists[octant];
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const tree::SupernodeEntry& entry = entries[e];
      SupernodePlanEntry pe;
      pe.offset = entry.offset;
      pe.parent_source = entry.source_level_up == 1;
      const std::int32_t off[3] = {entry.offset.dx, entry.offset.dy,
                                   entry.offset.dz};
      bool empty = false;
      for (int axis = 0; axis < 3; ++axis) {
        if (pe.parent_source) {
          // Source p + off must lie in [0, np).
          pe.lo[axis] = std::max(0, -off[axis]);
          pe.hi[axis] = std::min(np, np - off[axis]);
        } else {
          // Source 2p + ov + off must lie in [0, n_child).
          pe.lo[axis] = std::max(0, ceil_div2(-(ov[axis] + off[axis])));
          pe.hi[axis] = std::min(
              np, floor_div2(n_child - 1 - ov[axis] - off[axis]) + 1);
        }
        if (pe.lo[axis] >= pe.hi[axis]) empty = true;
      }
      if (empty) continue;
      pe.matrix = trans.supernode[octant][e];
      plan.per_octant[octant].push_back(pe);
    }
  }
  return plan;
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Shared-memory (seq / threads) execution: chunked stage bodies driven by
// the hfmm::exec phase graph. Each body covers [lo, hi) of its stage's
// range, uses the stage chunk index as its scratch-slot key, and reports
// flops/bytes into the per-worker PhaseStats the scheduler hands it.
// ---------------------------------------------------------------------------

namespace {

struct SharedContext {
  const FmmConfig& config;
  const FmmPlan& plan;
  const tree::Hierarchy& hier;
  SolveWorkspace& ws;

  const TranslationData& trans() const { return *plan.trans; }
};

void p2m_chunk(SharedContext& ctx, std::size_t lo, std::size_t hi,
               PhaseStats& stats) {
  const int h = ctx.hier.depth();
  const std::size_t k = ctx.config.params.k();
  const double a = ctx.config.params.outer_ratio * ctx.hier.side_at(h);
  const dp::BoxedParticles& boxed = ctx.ws.boxed;
  const ParticleSet& p = boxed.sorted;
  std::uint64_t local_flops = 0;
  for (std::size_t f = lo; f < hi; ++f) {
    const std::uint32_t rank = boxed.flat_to_rank[f];
    const std::uint32_t b = boxed.box_begin[rank];
    const std::uint32_t e = boxed.box_begin[rank + 1];
    if (b == e) continue;
    const tree::BoxCoord c = ctx.hier.coord_of(h, f);
    anderson::p2m(ctx.config.params, a, ctx.hier.center(h, c),
                  p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                  p.z().subspan(b, e - b), p.q().subspan(b, e - b),
                  {ctx.ws.far[h].data() + f * k, k});
    local_flops += anderson::p2m_flops(k, e - b);
  }
  stats.flops += local_flops;
}

// One level of the upward T1 pass over parent (z, y) rows [lo, hi); each
// row gathers its 8 strided child rows into chunk scratch.
void upward_chunk(SharedContext& ctx, int l, std::size_t chunk,
                  std::size_t lo, std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const std::int32_t np = ctx.hier.boxes_per_side(l);
  const std::int32_t nc = 2 * np;
  const double* child = ctx.ws.far[l + 1].data();
  double* parent = ctx.ws.far[l].data();
  internal::ChunkSlot& slot = ctx.ws.arena.slot(chunk);
  internal::grow(slot.a, static_cast<std::size_t>(np) * k, ctx.ws.allocs);
  double* scratch = slot.a.data();
  std::uint64_t local_flops = 0;
  for (std::size_t zy = lo; zy < hi; ++zy) {
    const std::int32_t pz = static_cast<std::int32_t>(zy / np);
    const std::int32_t py = static_cast<std::int32_t>(zy % np);
    double* prow = parent + (static_cast<std::size_t>(pz) * np + py) * np * k;
    for (int o = 0; o < 8; ++o) {
      const std::int32_t cz = 2 * pz + ((o >> 2) & 1);
      const std::int32_t cy = 2 * py + ((o >> 1) & 1);
      const std::int32_t cx0 = o & 1;
      // Gather the strided child row (stride 2 boxes) into scratch.
      const double* crow =
          child + (static_cast<std::size_t>(cz) * nc + cy) * nc * k;
      for (std::int32_t px = 0; px < np; ++px)
        std::memcpy(scratch + px * k,
                    crow + (static_cast<std::size_t>(2 * px + cx0)) * k,
                    k * sizeof(double));
      internal::apply_rows(ctx.trans().t1[o], k, scratch, prow, np,
                           ctx.config.aggregation, 8, local_flops);
    }
  }
  stats.flops += local_flops;
}

// Fills padded z slabs [lo, hi) of the level-l source grid: zero the slab,
// then copy the interior far-field rows (padding radius 2d+1 masks the
// domain boundary automatically). Disjoint writes per slab.
void pad_chunk(SharedContext& ctx, int l, std::size_t lo, std::size_t hi,
               PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const std::int32_t r = 2 * ctx.config.separation + 1;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const std::int32_t np = n + 2 * r;
  std::vector<double>& pad = ctx.ws.pad;
  const double* far = ctx.ws.far[l].data();
  std::uint64_t local_copy = 0;
  for (std::size_t z = lo; z < hi; ++z) {
    double* slab = pad.data() + z * static_cast<std::size_t>(np) * np * k;
    std::fill(slab, slab + static_cast<std::size_t>(np) * np * k, 0.0);
    const std::int32_t iz = static_cast<std::int32_t>(z) - r;
    if (iz < 0 || iz >= n) continue;
    for (std::int32_t y = 0; y < n; ++y)
      std::memcpy(slab + (static_cast<std::size_t>(y + r) * np + r) * k,
                  far + (static_cast<std::size_t>(iz) * n + y) * n * k,
                  static_cast<std::size_t>(n) * k * sizeof(double));
    local_copy += static_cast<std::size_t>(n) * n * k * sizeof(double);
  }
  stats.bytes_moved += local_copy;
}

// T2 over target z slabs [lo, hi) of level l, reading the zero-padded
// source grid filled by pad_chunk.
void interactive_chunk(SharedContext& ctx, int l, std::size_t chunk,
                       std::size_t lo, std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const int d = ctx.config.separation;
  const std::int32_t r = 2 * d + 1;
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const std::int32_t np = n + 2 * r;
  const std::vector<double>& pad = ctx.ws.pad;
  double* local = ctx.ws.local[l].data();

  internal::ChunkSlot& slot = ctx.ws.arena.slot(chunk);
  internal::grow(slot.a, static_cast<std::size_t>(n) * n * k, ctx.ws.allocs);
  internal::grow(slot.b, static_cast<std::size_t>(n) * k, ctx.ws.allocs);
  internal::grow(slot.c, static_cast<std::size_t>(n) * k, ctx.ws.allocs);
  double* src_slab = slot.a.data();
  double* dst_strip = slot.b.data();
  double* out_strip = slot.c.data();
  std::uint64_t local_flops = 0, local_copy = 0;
  {
    for (std::size_t z = lo; z < hi; ++z) {
      for (const UnionOffset& u : ctx.trans().union_offsets) {
        const double* m = ctx.trans().t2[tree::offset_cube_index(u.o, d)];
        const std::size_t sz = z + r + u.o.dz;
        if (u.all_parities) {
          switch (ctx.config.aggregation) {
            case AggregationMode::kGemm: {
              // Copy the n x n source slab into contiguous scratch (the
              // paper's copy cost, ~2/K of the multiply), then one GEMM of
              // shape (n^2) x K x K.
              for (std::int32_t y = 0; y < n; ++y)
                std::memcpy(
                    src_slab + static_cast<std::size_t>(y) * n * k,
                    pad.data() + ((sz * np + (y + r + u.o.dy)) * np + r +
                                  u.o.dx) *
                                     k,
                    static_cast<std::size_t>(n) * k * sizeof(double));
              local_copy += static_cast<std::size_t>(n) * n * k * 8;
              internal::apply_rows(
                  m, k, src_slab,
                  local + static_cast<std::size_t>(z) * n * n * k,
                  static_cast<std::size_t>(n) * n, AggregationMode::kGemm, 0,
                  local_flops);
              break;
            }
            case AggregationMode::kGemmBatch: {
              // Each y row is one instance: strided A directly in the padded
              // grid, no copies (the CMSSL multiple-instance trick).
              blas::gemm_batch(
                  pad.data() + ((sz * np + (r + u.o.dy)) * np + r + u.o.dx) * k,
                  k, static_cast<std::size_t>(np) * k, m, k, 0,
                  local + static_cast<std::size_t>(z) * n * n * k, k,
                  static_cast<std::size_t>(n) * k, n, k, k, n, true);
              local_flops += blas::gemm_flops(static_cast<std::size_t>(n) * n,
                                              k, k);
              break;
            }
            case AggregationMode::kGemv: {
              for (std::int32_t y = 0; y < n; ++y)
                for (std::int32_t x = 0; x < n; ++x)
                  blas::vecmat(pad.data() + ((sz * np + (y + r + u.o.dy)) *
                                                 np +
                                             (x + r + u.o.dx)) *
                                                k,
                               m, k,
                               local + ((static_cast<std::size_t>(z) * n + y) *
                                            n +
                                        x) *
                                           k,
                               k, k, true);
              local_flops += blas::gemm_flops(static_cast<std::size_t>(n) * n,
                                              k, k);
              break;
            }
          }
        } else {
          // Parity-restricted shell (a +-(2d+1) component): only boxes of
          // the admissible parity are targets; apply per strided strip.
          const std::int32_t pz_ok = u.valid_parity[2];
          if (!(pz_ok & (1 << (z & 1)))) continue;
          for (std::int32_t y = 0; y < n; ++y) {
            if (!(u.valid_parity[1] & (1 << (y & 1)))) continue;
            const std::int32_t x0 =
                (u.valid_parity[0] == 3) ? 0 : ((u.valid_parity[0] == 1) ? 0 : 1);
            const std::int32_t xstep = (u.valid_parity[0] == 3) ? 1 : 2;
            std::size_t cnt = 0;
            for (std::int32_t x = x0; x < n; x += xstep) {
              std::memcpy(dst_strip + cnt * k,
                          pad.data() + ((sz * np + (y + r + u.o.dy)) * np +
                                        (x + r + u.o.dx)) *
                                           k,
                          k * sizeof(double));
              ++cnt;
            }
            local_copy += cnt * k * 8;
            // Multiply into a scratch strip, then scatter-accumulate.
            std::fill(out_strip, out_strip + cnt * k, 0.0);
            blas::gemm(dst_strip, k, m, k, out_strip, k, cnt, k, k, false);
            local_flops += blas::gemm_flops(cnt, k, k);
            std::size_t w = 0;
            for (std::int32_t x = x0; x < n; x += xstep) {
              double* dst = local + ((static_cast<std::size_t>(z) * n + y) *
                                         n +
                                     x) *
                                        k;
              for (std::size_t i = 0; i < k; ++i) dst[i] += out_strip[w * k + i];
              ++w;
            }
          }
        }
      }
    }
  }
  stats.flops += local_flops;
  stats.bytes_moved += local_copy;
}

// Supernode variant of the interactive field (paper Section 2.3): complete
// sibling octets are replaced by one parent-level translation. Instead of
// branching per box, the precomputed gather plan (one rectangle of parent
// coordinates per octant x entry, see solver_internal.hpp) drives the
// application, so the phase aggregates into the same BLAS-3 forms as the
// non-supernode path: kGemm gathers each rectangle slice into a contiguous
// slab and applies the supernode matrix as one GEMM; kGemmBatch expresses
// the stride-2 child geometry directly as a multiple-instance GEMM (leading
// dimension 2K, one instance per parent row) with zero copies; kGemv is the
// per-box BLAS-2 reference.
void supernode_chunk(SharedContext& ctx, int l, std::size_t chunk,
                     std::size_t ulo, std::size_t uhi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const std::int32_t n = ctx.hier.boxes_per_side(l);
  const std::int32_t np = ctx.hier.boxes_per_side(l - 1);
  const internal::SupernodeLevelPlan& plan = ctx.plan.supernode_plans[l];
  const double* far = ctx.ws.far[l].data();
  const double* far_parent = ctx.ws.far[l - 1].data();
  double* local = ctx.ws.local[l].data();
  const AggregationMode mode = ctx.config.aggregation;

  // Work units are (octant, parent z slice): targets of distinct units are
  // disjoint (octants differ in child parity, slices in child z), so chunks
  // write race-free.
  internal::ChunkSlot& slot = ctx.ws.arena.slot(chunk);
  std::uint64_t local_flops = 0, local_moved = 0;
  {
    {
        for (std::size_t u = ulo; u < uhi; ++u) {
          const int octant = static_cast<int>(u / np);
          const std::int32_t pz = static_cast<std::int32_t>(u % np);
          const std::int32_t ox = octant & 1, oy = (octant >> 1) & 1,
                             oz = (octant >> 2) & 1;
          const std::int32_t cz = 2 * pz + oz;
          for (const internal::SupernodePlanEntry& pe :
               plan.per_octant[octant]) {
            if (pz < pe.lo[2] || pz >= pe.hi[2]) continue;
            const std::int32_t xlo = pe.lo[0], xlen = pe.hi[0] - pe.lo[0];
            const std::int32_t ylo = pe.lo[1], ylen = pe.hi[1] - pe.lo[1];
            const double* m = pe.matrix;
            // Source base pointer for parent row py and its x stride.
            const auto src_row = [&](std::int32_t py) -> const double* {
              if (pe.parent_source) {
                return far_parent +
                       ((static_cast<std::size_t>(pz + pe.offset.dz) * np +
                         (py + pe.offset.dy)) *
                            np +
                        (xlo + pe.offset.dx)) *
                           k;
              }
              return far + ((static_cast<std::size_t>(2 * pz + oz +
                                                      pe.offset.dz) *
                                 n +
                             (2 * py + oy + pe.offset.dy)) *
                                n +
                            (2 * xlo + ox + pe.offset.dx)) *
                               k;
            };
            const std::size_t src_xstride = pe.parent_source ? k : 2 * k;
            const auto dst_row = [&](std::int32_t py) -> double* {
              return local + ((static_cast<std::size_t>(cz) * n +
                               (2 * py + oy)) *
                                  n +
                              (2 * xlo + ox)) *
                                 k;
            };
            switch (mode) {
              case AggregationMode::kGemv: {
                for (std::int32_t py = ylo; py < ylo + ylen; ++py) {
                  const double* src = src_row(py);
                  double* dst = dst_row(py);
                  for (std::int32_t i = 0; i < xlen; ++i)
                    blas::vecmat(src + i * src_xstride, m, k, dst + i * 2 * k,
                                 k, k, true);
                }
                break;
              }
              case AggregationMode::kGemm: {
                // Gather the whole rectangle slice into a contiguous slab,
                // one GEMM, scatter-accumulate back (Section 3.4 copy cost).
                const std::size_t rows =
                    static_cast<std::size_t>(xlen) * ylen;
                internal::grow(slot.a, rows * k, ctx.ws.allocs);
                internal::grow(slot.b, rows * k, ctx.ws.allocs);
                double* slab = slot.a.data();
                double* out = slot.b.data();
                double* w = slab;
                for (std::int32_t py = ylo; py < ylo + ylen; ++py) {
                  const double* src = src_row(py);
                  if (src_xstride == k) {
                    std::memcpy(w, src, static_cast<std::size_t>(xlen) * k *
                                            sizeof(double));
                    w += static_cast<std::size_t>(xlen) * k;
                  } else {
                    for (std::int32_t i = 0; i < xlen; ++i, w += k)
                      std::memcpy(w, src + i * src_xstride,
                                  k * sizeof(double));
                  }
                }
                std::fill(out, out + rows * k, 0.0);
                blas::gemm(slab, k, m, k, out, k, rows, k, k, false);
                const double* r = out;
                for (std::int32_t py = ylo; py < ylo + ylen; ++py) {
                  double* dst = dst_row(py);
                  for (std::int32_t i = 0; i < xlen; ++i, r += k) {
                    double* d = dst + i * 2 * k;
                    for (std::size_t j = 0; j < k; ++j) d[j] += r[j];
                  }
                }
                local_moved += 2 * rows * k * sizeof(double);
                break;
              }
              case AggregationMode::kGemmBatch: {
                // Strided multiple-instance GEMM straight off the level
                // grids: instance = parent row, lda expresses the stride-2
                // child spacing — no copies at all (the CMSSL trick).
                const std::size_t stride_a =
                    pe.parent_source ? static_cast<std::size_t>(np) * k
                                     : 2 * static_cast<std::size_t>(n) * k;
                blas::gemm_batch(src_row(ylo), src_xstride, stride_a,
                                 m, k, 0, dst_row(ylo), 2 * k,
                                 2 * static_cast<std::size_t>(n) * k, xlen,
                                 k, k, ylen, true);
                break;
              }
            }
            local_flops += blas::gemm_flops(
                static_cast<std::size_t>(xlen) * ylen, k, k);
          }
        }
    }
  }
  stats.flops += local_flops;
  stats.bytes_moved += local_moved;
}

// One level of the downward T3 pass over parent (z, y) rows [lo, hi):
// parent local field shifted into the children, accumulated before the
// level's T2 stage (graph edges enforce the order).
void downward_chunk(SharedContext& ctx, int l, std::size_t chunk,
                    std::size_t lo, std::size_t hi, PhaseStats& stats) {
  const std::size_t k = ctx.config.params.k();
  const std::int32_t np = ctx.hier.boxes_per_side(l - 1);
  const std::int32_t nc = 2 * np;
  const double* parent = ctx.ws.local[l - 1].data();
  double* child = ctx.ws.local[l].data();
  internal::ChunkSlot& slot = ctx.ws.arena.slot(chunk);
  internal::grow(slot.a, static_cast<std::size_t>(np) * k, ctx.ws.allocs);
  double* scratch = slot.a.data();
  std::uint64_t local_flops = 0;
  for (std::size_t zy = lo; zy < hi; ++zy) {
    const std::int32_t pz = static_cast<std::int32_t>(zy / np);
    const std::int32_t py = static_cast<std::int32_t>(zy % np);
    const double* prow =
        parent + (static_cast<std::size_t>(pz) * np + py) * np * k;
    for (int o = 0; o < 8; ++o) {
      const std::int32_t cz = 2 * pz + ((o >> 2) & 1);
      const std::int32_t cy = 2 * py + ((o >> 1) & 1);
      const std::int32_t cx0 = o & 1;
      std::fill(scratch, scratch + static_cast<std::size_t>(np) * k, 0.0);
      internal::apply_rows(ctx.trans().t3[o], k, prow, scratch, np,
                           ctx.config.aggregation, 8, local_flops);
      double* crow =
          child + (static_cast<std::size_t>(cz) * nc + cy) * nc * k;
      for (std::int32_t px = 0; px < np; ++px) {
        double* dst = crow + static_cast<std::size_t>(2 * px + cx0) * k;
        const double* s = scratch + px * k;
        for (std::size_t i = 0; i < k; ++i) dst[i] += s[i];
      }
    }
  }
  stats.flops += local_flops;
}

void l2p_chunk(SharedContext& ctx, std::size_t lo, std::size_t hi,
               PhaseStats& stats) {
  const int h = ctx.hier.depth();
  const std::size_t k = ctx.config.params.k();
  const double a = ctx.config.params.inner_ratio * ctx.hier.side_at(h);
  const dp::BoxedParticles& boxed = ctx.ws.boxed;
  const ParticleSet& p = boxed.sorted;
  const std::span<double> phi{ctx.ws.phi_sorted};
  const std::span<Vec3> grad{ctx.ws.grad_sorted};
  std::uint64_t local_flops = 0;
  for (std::size_t f = lo; f < hi; ++f) {
    const std::uint32_t rank = boxed.flat_to_rank[f];
    const std::uint32_t b = boxed.box_begin[rank];
    const std::uint32_t e = boxed.box_begin[rank + 1];
    if (b == e) continue;
    const tree::BoxCoord c = ctx.hier.coord_of(h, f);
    const std::span<const double> g{ctx.ws.local[h].data() + f * k, k};
    if (grad.empty()) {
      anderson::l2p(ctx.config.params, a, ctx.hier.center(h, c), g,
                    p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                    p.z().subspan(b, e - b), phi.subspan(b, e - b));
    } else {
      anderson::l2p_gradient(ctx.config.params, a, ctx.hier.center(h, c), g,
                             p.x().subspan(b, e - b), p.y().subspan(b, e - b),
                             p.z().subspan(b, e - b), phi.subspan(b, e - b),
                             grad.subspan(b, e - b));
    }
    local_flops += anderson::l2p_flops(k, e - b, ctx.config.params.truncation);
  }
  stats.flops += local_flops;
}

}  // namespace

FmmResult FmmSolver::solve(const ParticleSet& particles) {
  return solve_impl_(particles, nullptr);
}

FmmResult FmmSolver::solve(const ParticleSet& particles, SolveView& view) {
  view = SolveView{};
  return solve_impl_(particles, &view);
}

FmmResult FmmSolver::solve_impl_(const ParticleSet& particles,
                                 SolveView* view) {
  internal::validate_particles(particles, config_.kernel, "FmmSolver::solve");
  const std::size_t n = particles.size();
  const bool far_capable = config_.kernel.far_field_capable();
  FmmResult result;
  result.k = config_.params.k();
  result.kernel = config_.kernel.type;
  // Cold-path construction, charged to the solve that triggers it: the
  // translation set ("precompute", config-wide) and the per-depth plan
  // ("plan"). Warm solves reuse both and report zero here. Short-range
  // kernels have no translation machinery at all; the phase stays visible
  // with zeros.
  if (far_capable) {
    bool built = false;
    impl_->translation_data(config_, &built);
    if (built) {
      result.breakdown["precompute"].seconds = impl_->trans->build_seconds;
      result.breakdown["precompute"].allocs += 1;
    } else {
      result.breakdown["precompute"];  // phase visible with zeros
    }
  } else {
    result.breakdown["precompute"];  // phase visible with zeros
  }
  if (n == 0) return result;

  const int h = depth_for(n);
  result.depth = h;
  result.leaf_boxes = std::size_t{1} << (3 * h);
  const FmmPlan& plan = impl_->plan_for(config_, h, result.breakdown);
  result.breakdown["plan"];  // phase visible with zeros on warm solves
  result.plan_reused = result.breakdown["plan"].allocs == 0;

  SolveWorkspace& ws = impl_->ws;

  // The hierarchy's root cube is the only per-solve geometry (particles
  // move); it is an O(1) object and all plan structure is expressed in
  // box-side units, so the plan stays valid across solves. Short-range
  // solves pin it to the kernel's domain box instead: geometry (leaf side
  // vs. cutoff, and the periodic wrap's box grid) is then fixed by the
  // kernel. Particles are expected to stay inside vdw_box (the LJ
  // integrator loop wraps or reflects them there).
  const tree::Hierarchy hier(
      tree::cube_containing(far_capable ? particles.bounds()
                                        : config_.kernel.vdw_box),
      h);

  ws.begin_solve();
  ThreadPool& pool = *impl_->pool;

  if (config_.mode == ExecutionMode::kDataParallel)
    return solve_dp_(particles, hier, std::move(result));

  // Layout with a single VU: the coordinate sort degenerates to grouping by
  // flat box index.
  const dp::MachineConfig one_vu{1, 1, 1};
  const dp::BlockLayout layout(hier.boxes_per_side(h), one_vu);

  // Executor dispatch (DESIGN.md Section 13): the dense/sparse decision
  // needs leaf occupancy, which needs the coordinate sort's output, so the
  // sort runs here (charged to "sort") and the graph's sort stage is a
  // no-op.
  {
    ScopedPhaseTimer timer(result.breakdown["sort"]);
    dp::coordinate_sort(particles, hier, layout, ws.boxed, &ws.sort_scratch);
  }
  // Short-range kernels read the per-particle type array in SORTED order;
  // inputs without a type channel get the all-zeros single-type array. The
  // pointer is re-bound after every sort because the sorted buffers can
  // reallocate when the workspace grows.
  if (!far_capable) {
    ws.boxed.sorted.ensure_types();
    impl_->near.types = ws.boxed.sorted.type().data();
  }
  // The non-empty leaf flats in sort-rank order (the active sets' input).
  {
    const std::size_t cap_before = ws.occupied.capacity();
    ws.occupied.clear();
    const std::size_t ranks = ws.boxed.box_begin.size() - 1;
    for (std::size_t r = 0; r < ranks; ++r)
      if (ws.boxed.box_begin[r + 1] > ws.boxed.box_begin[r])
        ws.occupied.push_back(ws.boxed.rank_to_flat[r]);
    if (ws.occupied.capacity() != cap_before)
      ws.allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.mode == ExecutionMode::kDistributed)
    return solve_dist_(particles, hier, std::move(result), view);
  const double occ = static_cast<double>(ws.occupied.size()) /
                     static_cast<double>(hier.boxes_at(h));
  if (occ < internal::kSparseBelowOccupancy)
    return solve_sparse_(particles, hier, std::move(result), view);

  const std::size_t k = config_.params.k();
  const std::size_t W = pool.size();
  const std::size_t leaf_boxes = hier.boxes_at(h);
  // Near-field chunk policy: a fixed count independent of W (see
  // kNearChunks), so sequential and threaded solves agree bitwise.
  const std::size_t nf_chunks = internal::near_chunk_count(leaf_boxes);

  SharedContext ctx{config_, plan, hier, ws};
  using exec::NodeId;
  exec::PhaseGraph g;

  // The sort already ran (dispatch needed its output); the stage stays in
  // the graph as a no-op so the timeline keeps the full pipeline shape.
  const NodeId sort = g.add_serial("sort", "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (!far_capable) return;  // no level stores for short-range solves
        ws.prepare_levels(h, k);
        ws.arena.ensure(W, ws.allocs);
        if (!config_.supernodes) {
          // Pre-grow the padded source grid to its largest (leaf) level so
          // the per-level pad stages only write, never resize.
          const std::size_t np = hier.boxes_per_side(h) +
                                 2 * (2 * config_.separation + 1);
          internal::grow(ws.pad, np * np * np * k, ws.allocs);
        }
      });
  const NodeId prep_out =
      g.add_serial("prepare:outputs", "workspace", [&](PhaseStats&) {
        ws.prepare_outputs(n, config_.with_gradient);
        if (ws.near_scratch.chunks.size() < nf_chunks)
          ws.near_scratch.chunks.resize(nf_chunks);
        if (view == nullptr) {
          result.phi.assign(n, 0.0);
          if (config_.with_gradient) result.grad.assign(n, Vec3{});
        }
      });

  // Tail of the far-field chain; accumulate waits on it. For short-range
  // kernels the chain collapses to empty serial nodes — one per far phase,
  // in the canonical order — so the breakdown and timeline keep a stable
  // phase set (zero boxes, zero pairs, ~zero time) across kernels.
  NodeId far_tail = 0;
  if (!far_capable) {
    NodeId prev = prep_levels;
    for (const char* ph :
         {"p2m", "upward", "interactive", "downward", "l2p"}) {
      const NodeId id = g.add_serial(ph, ph, [](PhaseStats&) {});
      g.depend(id, prev);
      prev = id;
    }
    g.depend(prev, sort);
    g.depend(prev, prep_out);
    far_tail = prev;
  } else {
  const NodeId p2m = g.add(
      "p2m", "p2m", leaf_boxes, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        p2m_chunk(ctx, lo, hi, st);
      });
  g.depend(p2m, sort);
  g.depend(p2m, prep_levels);

  // Upward chain: up[l] completes far[l] (far[h] comes from P2M).
  std::vector<NodeId> up(h, p2m);
  NodeId chain = p2m;
  for (int l = h - 1; l >= 1; --l) {
    const std::size_t np = hier.boxes_per_side(l);
    const NodeId id = g.add(
        "upward:L" + std::to_string(l), "upward", np * np, 0,
        [&, l](std::size_t c, std::size_t lo, std::size_t hi, PhaseStats& st) {
          upward_chunk(ctx, l, c, lo, hi, st);
        });
    g.depend(id, chain);
    up[l] = id;
    chain = id;
  }
  const auto far_ready = [&](int l) { return l == h ? p2m : up[l]; };
  const NodeId upward_done = chain;

  // Downward/interactive: per level, T3 (l > 2) then T2, both writing
  // local[l] — the T3 -> T2 edge fixes the floating-point accumulation
  // order. The non-supernode T2 splits into pad (fill the shared padded
  // grid) and apply; pad(l) must wait for apply(l-1) to release the grid.
  // Every translation stage takes scratch from ws.arena, so the first T2
  // stage also waits for the whole upward chain: without supernodes its
  // sources are ready at up[2], and it would otherwise overlap up[1].
  NodeId prev_apply = 0;
  bool have_prev_apply = false;
  for (int l = 2; l <= h; ++l) {
    const std::string ls = std::to_string(l);
    NodeId t3 = 0;
    const bool has_t3 = l > 2;
    if (has_t3) {
      const std::size_t np = hier.boxes_per_side(l - 1);
      t3 = g.add(
          "downward:L" + ls, "downward", np * np, 0,
          [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { downward_chunk(ctx, l, c, lo, hi, st); });
      g.depend(t3, chain);  // local[l-1] complete
    }
    if (config_.supernodes) {
      const std::size_t np = hier.boxes_per_side(l - 1);
      const NodeId id = g.add(
          "interactive:L" + ls, "interactive", 8 * np, 0,
          [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { supernode_chunk(ctx, l, c, lo, hi, st); });
      g.depend(id, far_ready(l - 1));  // sources: far[l] and far[l-1]
      if (has_t3) g.depend(id, t3);
      chain = id;
    } else {
      const std::size_t nl = hier.boxes_per_side(l);
      const std::size_t npad = nl + 2 * (2 * config_.separation + 1);
      const NodeId pad = g.add(
          "pad:L" + ls, "interactive", npad, 0,
          [&, l](std::size_t, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { pad_chunk(ctx, l, lo, hi, st); });
      g.depend(pad, far_ready(l));
      if (have_prev_apply) g.depend(pad, prev_apply);
      const NodeId apply = g.add(
          "interactive:L" + ls, "interactive", nl, 0,
          [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { interactive_chunk(ctx, l, c, lo, hi, st); });
      g.depend(apply, pad);
      if (l == 2) g.depend(apply, upward_done);
      if (has_t3) g.depend(apply, t3);
      prev_apply = apply;
      have_prev_apply = true;
      chain = apply;
    }
  }

  const NodeId l2p = g.add(
      "l2p", "l2p", leaf_boxes, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
        l2p_chunk(ctx, lo, hi, st);
      });
  g.depend(l2p, chain);
  g.depend(l2p, prep_out);
  far_tail = l2p;
  }

  // The near field is independent of the whole far-field chain: it runs at
  // lower priority so idle workers pick it up, and meets the far field only
  // at the accumulate stage.
  const std::span<const tree::Offset> offsets =
      plan.near_list(config_.near_symmetry);
  const NodeId near = g.add(
      "near", "near", leaf_boxes, nf_chunks,
      [&, offsets](std::size_t c, std::size_t lo, std::size_t hi,
                   PhaseStats& st) {
        const NearFieldResult nf = near_field_chunk(
            hier, ws.boxed, offsets, config_.near_symmetry,
            config_.with_gradient, ws.near_scratch.chunks[c], lo, hi,
            impl_->near);
        st.flops += nf.flops;
        st.pairs += nf.pair_interactions;
      },
      /*priority=*/1);
  g.depend(near, sort);
  g.depend(near, prep_out);

  // Accumulate: add the near-field chunks (in chunk-index == box-range
  // order, for reproducibility) onto the far-field result and — unless a
  // SolveView streams the sorted buffers out directly — un-sort to the
  // original particle order.
  const NodeId acc = g.add(
      "accumulate", "accumulate", n, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        near_field_accumulate(ws.near_scratch, nf_chunks,
                              config_.with_gradient, ws.phi_sorted,
                              ws.grad_sorted, lo, hi);
        if (view != nullptr) return;
        for (std::size_t i = lo; i < hi; ++i) {
          result.phi[ws.boxed.perm[i]] = ws.phi_sorted[i];
          if (config_.with_gradient)
            result.grad[ws.boxed.perm[i]] = ws.grad_sorted[i];
        }
      });
  g.depend(acc, far_tail);
  g.depend(acc, near);

  g.run(pool,
        config_.mode == ExecutionMode::kThreads ? exec::RunMode::kConcurrent
                                                : exec::RunMode::kInline,
        result.breakdown, &result.timeline);

  // Per-phase box counts: the dense executor visits every box of a phase's
  // levels, so active == total here (the sparse executor reports smaller
  // active counts against the same totals).
  {
    const auto record = [&](const char* phase, int lo_l, int hi_l) {
      PhaseStats& st = result.breakdown[phase];
      for (int l = lo_l; l <= hi_l; ++l) {
        st.boxes_active += hier.boxes_at(l);
        st.boxes_total += hier.boxes_at(l);
      }
    };
    record("near", h, h);
    if (far_capable) {
      record("p2m", h, h);
      record("l2p", h, h);
      record("upward", 1, h - 1);
      record("interactive", 2, h);
      if (h > 2) record("downward", 3, h);
    }
  }
  // Measured leaf occupancy for the result record ("active" phase): the
  // dense executor does not need the active sets to run, but deriving them
  // afterwards gives benches the same per-level occupancy the sparse path
  // reports.
  {
    ScopedPhaseTimer timer(result.breakdown["active"]);
    const std::size_t cap_before = ws.active.capacity_bytes();
    tree::build_active_levels(hier, ws.occupied, ws.active);
    if (ws.active.capacity_bytes() != cap_before)
      ws.allocs.fetch_add(1, std::memory_order_relaxed);
    result.level_occupancy.resize(h + 1);
    for (int l = 0; l <= h; ++l)
      result.level_occupancy[l] = ws.active.occupancy(l);
    result.breakdown["active"].boxes_active += ws.active.total_active();
    result.breakdown["active"].boxes_total += ws.active.total_dense();
  }
  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.active_boxes = 0;
  for (int l = 0; l <= h; ++l) result.active_boxes += hier.boxes_at(l);
  result.workspace_bytes = ws.workspace_bytes();
  internal::publish_view(ws, config_, n, view);
  return result;
}

}  // namespace hfmm::core
