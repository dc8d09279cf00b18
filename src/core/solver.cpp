#include "hfmm/core/solver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/anderson/translations.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/quadrature/sphere_rule.hpp"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "solver_internal.hpp"
#include "sparse_chunks.hpp"

namespace hfmm::core {

using internal::ActiveContext;
using internal::FmmPlan;
using internal::MatrixSet;
using internal::SolveWorkspace;
using internal::TranslationData;
using internal::UnionOffset;
using internal::downward_chunk;
using internal::interactive_chunk;
using internal::l2p_chunk;
using internal::p2m_chunk;
using internal::particles_in;
using internal::upward_chunk;

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
  // The sort's perm / box_begin and the near field's run bounds index
  // particles as uint32; a larger N would wrap them silently.
  if (particles.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument(
        std::string(context) + ": " + std::to_string(particles.size()) +
        " particles exceed the limit of 2^32 - 1");
  const auto reject = [&](std::size_t i, const std::string& what) {
    throw std::invalid_argument(std::string(context) + ": particle " +
                                std::to_string(i) + " has " + what);
  };
  const std::span<const double> fields[] = {particles.x(), particles.y(),
                                            particles.z(), particles.q()};
  constexpr const char* names[] = {"x coordinate", "y coordinate",
                                   "z coordinate", "charge"};
  // Squared distances and box extents of coordinates within +-2^500 stay
  // far from overflow; a coordinate near 1e155 turns every potential NaN.
  constexpr double kMaxCoordinate = 0x1p500;
  for (std::size_t i = 0; i < particles.size(); ++i)
    for (int f = 0; f < 4; ++f) {
      if (!std::isfinite(fields[f][i]))
        reject(i, std::string("a non-finite ") + names[f]);
      if (f < 3 && std::abs(fields[f][i]) > kMaxCoordinate)
        reject(i, std::string("its ") + names[f] + " outside [-2^500, 2^500]");
    }
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
  const std::size_t k = params.k();
  auto trans = std::make_shared<TranslationData>();
  trans->set = matrix_set_for(config);
  trans->union_offsets = build_union_offsets(d);

  // Assign every matrix of the set a slot. T2 slots are shared by
  // offset-cube index.
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
  std::vector<std::size_t> t2_use_slot;  // in the T2 stage's walk order
  std::vector<OrbitUse> t2_uses;
  if (trans->set == MatrixSet::kUnion) {
    for (std::size_t u = 0; u < trans->union_offsets.size(); ++u) {
      t2_use_slot.push_back(t2_slot_of(trans->union_offsets[u].o));
      t2_uses.push_back({0, static_cast<std::uint32_t>(u), nullptr});
    }
  } else {
    for (int o = 0; o < 8; ++o) {
      trans->supernode_lists[o] = tree::supernode_interactive(o, d);
      const std::vector<tree::SupernodeEntry>& list = trans->supernode_lists[o];
      for (std::size_t e = 0; e < list.size(); ++e) {
        t2_use_slot.push_back(
            list[e].source_level_up == 1
                ? add(anderson::supernode_geometry(params, o, list[e].offset))
                : t2_slot_of(list[e].offset));
        t2_uses.push_back({static_cast<std::uint32_t>(o),
                           static_cast<std::uint32_t>(e), nullptr});
      }
    }
  }

  // Group the slots into orbits: a slot joins the first earlier
  // representative of its family and radii whose displacement some rule
  // symmetry R maps onto its own (R only permutes and negates coordinates,
  // so the keys compare exactly), and otherwise represents a new orbit.
  const std::vector<quadrature::RuleSymmetry> sym =
      quadrature::symmetries(params.rule);
  for (const quadrature::RuleSymmetry& r : sym)
    trans->perms.insert(trans->perms.end(), r.perm.begin(), r.perm.end());
  using Key = std::tuple<bool, double, double, double, double, double>;
  const auto key = [](const anderson::TranslationGeometry& g, const Vec3& v) {
    return Key{g.src_is_outer, g.a_src, g.a_dst, v.x, v.y, v.z};
  };
  std::map<Key, std::size_t> rep_of;     // representative key -> stored index
  std::vector<std::size_t> rep_slots;    // stored index -> slot
  std::vector<std::size_t> stored_of(geometry.size());
  std::vector<std::size_t> map_of(geometry.size());
  for (std::size_t s = 0; s < geometry.size(); ++s) {
    const anderson::TranslationGeometry& g = geometry[s];
    std::size_t m = 0;
    auto it = rep_of.end();
    for (; m < sym.size(); ++m) {
      // The displacement u with R_m u == v.
      Vec3 u;
      for (int a = 0; a < 3; ++a)
        u[sym[m].axis[a]] = sym[m].sign[a] * g.dst_minus_src[a];
      it = rep_of.find(key(g, u));
      if (it != rep_of.end()) break;
    }
    if (it == rep_of.end()) {
      it = rep_of.emplace(key(g, g.dst_minus_src), rep_slots.size()).first;
      rep_slots.push_back(s);
      m = 0;
    }
    stored_of[s] = it->second;
    map_of[s] = m;
  }

  const std::size_t kk = k * k;
  trans->store_doubles = rep_slots.size() * kk;
  trans->store = std::make_unique_for_overwrite<double[]>(trans->store_doubles);
  for (std::size_t i = 0; i < rep_slots.size(); ++i)
    anderson::build_translation_into(params, geometry[rep_slots[i]],
                                     /*transposed=*/true,
                                     {trans->store.get() + i * kk, kk});
  const auto ref = [&](std::size_t slot) {
    return MatrixRef{trans->store.get() + stored_of[slot] * kk,
                     trans->perms.data() + map_of[slot] * k};
  };

  // Per stage, the orbits in order of their first use, each with its uses
  // in walk order.
  const auto group = [&](std::vector<Orbit>& orbits,
                         std::span<const std::size_t> slots,
                         std::span<const OrbitUse> uses) {
    std::vector<std::size_t> index(rep_slots.size(), kNone);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      std::size_t& at = index[stored_of[slots[i]]];
      if (at == kNone) {
        at = orbits.size();
        orbits.push_back({ref(slots[i]).matrix, {}});
      }
      OrbitUse use = uses[i];
      use.perm = ref(slots[i]).perm;
      orbits[at].uses.push_back(use);
    }
  };
  std::array<OrbitUse, 8> octant_uses{};
  for (int o = 0; o < 8; ++o) {
    octant_uses[o].octant = static_cast<std::uint32_t>(o);
    trans->t1[o] = ref(t1_slot[o]);
    trans->t3[o] = ref(t3_slot[o]);
  }
  group(trans->t1_orbits, t1_slot, octant_uses);
  group(trans->t3_orbits, t3_slot, octant_uses);
  group(trans->t2_orbits, t2_use_slot, t2_uses);
  trans->t2.assign(t2_slot.size(), MatrixRef{});
  for (std::size_t i = 0; i < t2_slot.size(); ++i)
    if (t2_slot[i] != kNone) trans->t2[i] = ref(t2_slot[i]);
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
  plan->near_offsets = near_offsets_for(config, depth);
  plan->build_seconds = t.seconds();
  return plan;
}

std::vector<tree::Offset> near_offsets_for(const FmmConfig& config,
                                           int depth) {
  std::vector<tree::Offset> offsets =
      tree::near_field_half_offsets(config.separation);
  const KernelSpec& kernel = config.kernel;
  if (kernel.far_field_capable()) return offsets;
  // A short-range kernel adds an exact +0.0 beyond its cutoff, and two leaf
  // boxes at offset o are at least side * sqrt(sum_i max(|o_i| - 1, 0)^2)
  // apart, so an offset whose boxes lie farther apart than the cutoff adds
  // nothing. Two slacks keep every pair the kernel counts: the rounding of
  // the box assignment (2^-40 of the root's coordinates, and 1e-9 of the
  // cutoff); and, in a periodic box, the root's pad: the grid spans a
  // little more than the period, so a pair across the seam sits closer
  // than its offset says by up to that excess per axis.
  const tree::Hierarchy hier(tree::cube_containing(kernel.vdw_box), depth);
  const Box3& root = hier.root();
  double slack = std::ldexp(
      std::max({std::abs(root.lo.x), std::abs(root.lo.y), std::abs(root.lo.z),
                std::abs(root.hi.x), std::abs(root.hi.y), std::abs(root.hi.z)}),
      -40);
  if (kernel.vdw_periodic)
    slack += hier.side_at(0) - kernel.vdw_box.max_side();
  const double side = hier.side_at(depth);
  const double reach = kernel.vdw_cutoff * (1.0 + 1e-9);
  std::erase_if(offsets, [&](const tree::Offset& o) {
    double gap2 = 0.0;
    for (const std::int32_t d : {o.dx, o.dy, o.dz}) {
      const double gap = std::max(side * (std::abs(d) - 1) - slack, 0.0);
      gap2 += gap * gap;
    }
    return gap2 > reach * reach;
  });
  return offsets;
}

}  // namespace internal

const TranslationData& FmmSolver::Impl::translation_data(
    const FmmConfig& config, bool* built) {
  if (built != nullptr) *built = false;
  if (!trans) {
    bool hit = false;
    trans = cache->translations(config, &hit);
    if (built != nullptr) *built = !hit;
  }
  return *trans;
}

const FmmPlan& FmmSolver::Impl::plan_for(const FmmConfig& config, int depth,
                                         PhaseBreakdown& breakdown) {
  if (plan && plan->depth == depth && plan->kernel == config.kernel.type)
    return *plan;
  ScopedPhaseTimer timer(breakdown["plan"]);
  bool hit = false;
  plan = cache->plan(config, depth, &hit);
  // A cache hit is a reuse, not a build: warm-path accounting
  // (plan_reused, zero plan allocs) holds from this client's very first
  // solve when another client already built the plan, and when a solver
  // returns to a depth it solved at before.
  if (hit)
    breakdown["plan"].plan_reuse += 1;
  else
    breakdown["plan"].allocs += 1;
  return *plan;
}

FmmSolver::FmmSolver(FmmConfig config)
    : FmmSolver(std::move(config), nullptr) {}

FmmSolver::FmmSolver(FmmConfig config,
                     std::shared_ptr<service::PlanCache> cache)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  config_.validate();
  impl_->cache =
      cache ? std::move(cache) : std::make_shared<service::PlanCache>();
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
    if (config_.particles_per_leaf <= 0.0) {
      // Without a far field a deeper tree costs no translations: go down to
      // the deepest level whose leaf side is still >= the cutoff, where the
      // near list is cut to the 27 boxes around the leaf
      // (near_offsets_for), but no deeper than one particle per leaf on
      // average.
      const double root_side =
          tree::cube_containing(config_.kernel.vdw_box).extent().x;
      while (h < tree::kMaxDepth &&
             std::ldexp(root_side, -(h + 1)) >= config_.kernel.vdw_cutoff &&
             (std::size_t{1} << (3 * (h + 1))) <= n)
        ++h;
    }
    // Cutoff-coverage cap (KernelSpec::max_depth): the leaf side stays
    // >= cutoff / 2. validate() guarantees cutoff <= side / 4, so the cap
    // is always >= 3. Periodic solves additionally need >= 8 boxes per
    // side so the +-2 wrapped offsets stay distinct modulo the box count.
    h = std::min(h, config_.kernel.max_depth());
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
                std::uint64_t& flops) {
  switch (mode) {
    case AggregationMode::kGemv:
      for (std::size_t b = 0; b < nb; ++b)
        blas::vecmat(src + b * k, tt, k, dst + b * k, k, k, true);
      break;
    case AggregationMode::kGemm:
      blas::gemm(src, k, tt, k, dst, k, nb, k, k, true);
      break;
  }
  flops += blas::gemm_flops(nb, k, k);
}

}  // namespace internal

namespace {

// Derives the active level sets (ws.active) and the per-active-leaf cost
// model (ws.leaf_cost / ws.near_cost) from the sort output in
// ws.boxed/ws.occupied — the "active" phase — and reports the sets in
// result.active_boxes, result.level_occupancy and the phase's box counts.
// Particle counts weight the leaf stages; near-field pair counts
// (near_field_costs() under `kern`, so periodic vdW wraps) weight the
// near-field chunks. Both reuse workspace buffers: a warm solve grows
// nothing here.
void update_active_costs(const FmmPlan& plan, const tree::Hierarchy& hier,
                         const NearKernel& kern, SolveWorkspace& ws,
                         FmmResult& result) {
  const int h = hier.depth();
  PhaseStats& st = result.breakdown["active"];
  ScopedPhaseTimer timer(st);
  const std::size_t cap_before = ws.active.capacity_bytes();
  tree::build_active_levels(hier, ws.occupied, ws.active);
  if (ws.active.capacity_bytes() != cap_before)
    ws.allocs.fetch_add(1, std::memory_order_relaxed);
  const tree::ActiveLevels& act = ws.active;
  result.active_boxes = act.total_active();
  result.level_occupancy.resize(h + 1);
  for (int l = 0; l <= h; ++l) result.level_occupancy[l] = act.occupancy(l);
  st.boxes_active += act.total_active();
  st.boxes_total += act.total_dense();

  const tree::LevelActiveSet& leaves = act.levels[h];
  const std::size_t nl = leaves.count();
  internal::grow(ws.leaf_cost, nl, ws.allocs);
  internal::grow(ws.near_cost, nl, ws.allocs);
  // Per active leaf: leaf = its particle count, near = its near-field pair
  // count.
  for (std::size_t ai = 0; ai < nl; ++ai)
    ws.leaf_cost[ai] = particles_in(ws.boxed, leaves.boxes[ai]);
  near_field_costs(hier, ws.boxed, plan.near_offsets, leaves.boxes, kern,
                   ws.near_cost);
}

// Fills a SolveView from the workspace's sorted buffers; no-op when the
// caller did not request streaming (the DP executor never streams).
void publish_view(const SolveWorkspace& ws, const FmmConfig& config,
                  std::size_t n, SolveView* view) {
  if (view == nullptr || n == 0) return;
  view->phi = std::span<const double>{ws.phi_sorted.data(), n};
  if (config.with_gradient)
    view->grad = std::span<const Vec3>{ws.grad_sorted.data(), n};
  view->perm = std::span<const std::uint32_t>{ws.boxed.perm.data(), n};
  view->q = std::span<const double>{ws.boxed.sorted.q().data(), n};
}

}  // namespace

void internal::record_phase_boxes(const tree::Hierarchy& hier,
                                  const tree::ActiveLevels* act,
                                  bool far_capable, PhaseBreakdown& breakdown) {
  const int h = hier.depth();
  const auto record = [&](const char* phase, int lo_l, int hi_l) {
    PhaseStats& st = breakdown[phase];
    for (int l = lo_l; l <= hi_l; ++l) {
      st.boxes_active += act ? act->levels[l].count() : hier.boxes_at(l);
      st.boxes_total += hier.boxes_at(l);
    }
  };
  record("near", h, h);
  if (!far_capable) return;
  record("p2m", h, h);
  record("l2p", h, h);
  record("upward", 1, h - 1);
  record("interactive", 2, h);
  if (h > 2) record("downward", 3, h);
}

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

  // The active sets and the cost-weighted chunk splits need the coordinate
  // sort's output before the graph is built, so the sort runs here (charged
  // to "sort") and the graph's sort stage is a no-op.
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
    dp::occupied_leaves(ws.boxed, ws.occupied);
    if (ws.occupied.capacity() != cap_before)
      ws.allocs.fetch_add(1, std::memory_order_relaxed);
  }

  // The active level sets and the per-leaf cost model ("active" phase).
  update_active_costs(plan, hier, impl_->near, ws, result);
  const tree::ActiveLevels& act = ws.active;

  const std::size_t k = config_.params.k();
  // Near-field chunk policy: a fixed count independent of the worker count
  // (see kNearChunks), split by pair-count cost, so sequential and threaded
  // solves agree bitwise and no worker inherits a whole cluster core.
  const std::size_t nf_chunks = near_chunk_count(act.levels[h].count());

  ActiveContext ctx{config_, plan, hier, ws, act};
  using exec::NodeId;
  exec::PhaseGraph g;

  // The sort already ran (the active sets need its output); the stage stays
  // in the graph as a no-op so the timeline keeps the full pipeline shape.
  const NodeId sort = g.add_serial("sort", "sort", [](PhaseStats&) {});
  const NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (!far_capable) return;  // no level stores for short-range solves
        ws.prepare_levels(act, k);
        ws.arena.ensure(pool.size(), ws.allocs);
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
    const NodeId p2m = g.add_weighted(
        "p2m", "p2m", ws.leaf_cost, 0,
        [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats& st) {
          p2m_chunk(ctx, lo, hi, st);
        });
    g.depend(p2m, sort);
    g.depend(p2m, prep_levels);

    // Upward chain over active parents; up[l] completes far[l] (far[h]
    // comes from P2M).
    std::vector<NodeId> up(h, p2m);
    NodeId chain = p2m;
    for (int l = h - 1; l >= 1; --l) {
      const NodeId id = g.add(
          "upward:L" + std::to_string(l), "upward", act.levels[l].count(), 0,
          [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { upward_chunk(ctx, l, c, lo, hi, st); });
      g.depend(id, chain);
      up[l] = id;
      chain = id;
    }
    const auto far_ready = [&](int l) { return l == h ? p2m : up[l]; };
    const NodeId upward_done = chain;

    // Downward/interactive: per level, T3 (l > 2) then T2, both writing
    // local[l] — the T3 -> T2 edge fixes the accumulation order. Every
    // translation stage takes scratch from ws.arena, so the first T2 stage
    // also waits for the whole upward chain: without supernodes its sources
    // are ready at up[2], and it would otherwise overlap upward:L1.
    for (int l = 2; l <= h; ++l) {
      const std::string ls = std::to_string(l);
      const std::size_t nl_act = act.levels[l].count();
      NodeId t3 = 0;
      const bool has_t3 = l > 2;
      if (has_t3) {
        t3 = g.add("downward:L" + ls, "downward", nl_act, 0,
                   [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                          PhaseStats& st) {
                     downward_chunk(ctx, l, c, lo, hi, st);
                   });
        g.depend(t3, chain);  // local[l-1] complete
      }
      const NodeId id = g.add(
          "interactive:L" + ls, "interactive", nl_act, 0,
          [&, l](std::size_t c, std::size_t lo, std::size_t hi,
                 PhaseStats& st) { interactive_chunk(ctx, l, c, lo, hi, st); });
      // Sources: far[l], plus far[l-1] for supernode parent-level entries.
      g.depend(id, config_.supernodes ? far_ready(l - 1) : far_ready(l));
      if (l == 2 && !config_.supernodes) g.depend(id, upward_done);
      if (has_t3) g.depend(id, t3);
      chain = id;
    }

    const NodeId l2p = g.add_weighted(
        "l2p", "l2p", ws.leaf_cost, 0,
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
  const std::span<const tree::Offset> offsets{plan.near_offsets};
  const std::span<const std::uint32_t> leaf_list{act.levels[h].boxes};
  const NodeId near = g.add_weighted(
      "near", "near", ws.near_cost, nf_chunks,
      [&, offsets, leaf_list](std::size_t c, std::size_t lo, std::size_t hi,
                              PhaseStats& st) {
        const NearFieldResult nf = near_field_chunk(
            hier, ws.boxed, offsets, /*symmetric=*/true,
            config_.with_gradient, ws.near_scratch.chunks[c],
            leaf_list.subspan(lo, hi - lo), impl_->near);
        st.flops += nf.flops;
        st.pairs += nf.pair_interactions;
      },
      /*priority=*/1);
  g.depend(near, sort);
  g.depend(near, prep_out);

  // Accumulate: add the near-field chunks (in chunk-index order, for
  // reproducibility) onto the far-field result and — unless a SolveView
  // streams the sorted buffers out directly — un-sort to the original
  // particle order.
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

  internal::record_phase_boxes(hier, &act, far_capable, result.breakdown);
  result.breakdown["workspace"].allocs +=
      ws.allocs.load(std::memory_order_relaxed);
  result.workspace_allocs = result.breakdown["workspace"].allocs;
  result.workspace_bytes = ws.workspace_bytes();
  publish_view(ws, config_, n, view);
  return result;
}

}  // namespace hfmm::core
