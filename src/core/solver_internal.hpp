#pragma once
// Internal machinery shared by the shared-memory executor (solver.cpp) and
// the data-parallel executor (solver_dp.cpp). Not installed.
//
// The solve path is layered into (DESIGN.md Section 11):
//   * TranslationData — translation matrices in application-ready form,
//     position- and depth-independent, built once per config;
//   * FmmPlan — the immutable per-(config, depth) solve plan: the
//     translation data and the near-field interaction list. Shared by
//     reference across the execution modes and across solve() calls;
//   * SolveWorkspace — every mutable buffer a solve touches (sorted
//     particles, active sets, far/local level stores, per-chunk scratch
//     arenas, near-field scratch), reused across solve() calls so a warm
//     solve performs no plan construction and ~zero heap growth.

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm::core::internal {

// Throws std::invalid_argument, prefixed by `context`, when the set holds
// more than 2^32 - 1 particles (the sort and near field index particles as
// uint32), or naming the first particle whose position or charge is not
// finite (NaN or +-inf), whose coordinate lies outside [-2^500, 2^500]
// (about +-3.27e150), or, for short-range kernels, whose type id lies
// outside the kernel's type table. Such an input would otherwise wrap the
// particle indices, turn every potential of a solve into NaN, or index the
// pair tables out of bounds. FmmSolver::solve checks its input with it;
// the service checks every request of a batch before any solve runs.
void validate_particles(const ParticleSet& particles, const KernelSpec& kernel,
                        std::string_view context);

// One union interactive-field offset plus its per-axis parity admissibility
// (paper Section 3.3.2: sibling ranges [-2d-p, 2d+1-p] per axis).
struct UnionOffset {
  tree::Offset o;
  std::array<std::uint8_t, 3> valid_parity;  // bit p: parity p admissible
  bool all_parities = false;
};

std::vector<UnionOffset> build_union_offsets(int separation);

// The near-field offsets a solve at `depth` walks: the Newton-3rd-law half
// list of the d-separation neighbourhood, cut for a short-range kernel to
// the offsets whose two leaf boxes can hold a pair closer than the cutoff.
// FmmPlan::build reads it.
std::vector<tree::Offset> near_offsets_for(const FmmConfig& config,
                                           int depth);

// Applies dst[nb x K] += src[nb x K] * tt, where tt is a K x K matrix T^T
// and src/dst rows are contiguous box-major potential vectors. The
// aggregation mode only picks the BLAS call: one vecmat per row (the BLAS-2
// reference) or one gemm. The only code that branches on AggregationMode.
void apply_rows(const double* tt, std::size_t k, const double* src,
                double* dst, std::size_t nb, AggregationMode mode,
                std::uint64_t& flops);

// ---------------------------------------------------------------------------
// TranslationData: the position-independent translation machinery — built
// once per config, shared (by shared_ptr) by every FmmPlan depth.
// ---------------------------------------------------------------------------

// Which translation matrices a TranslationData builds: only those its
// executor applies (DESIGN.md Section 11).
enum class MatrixSet : std::uint8_t {
  // T1/T3 plus the T2 of all 1206 union interactive offsets (d = 2): every
  // executor without supernodes, and the data-parallel executor always —
  // its interactive stage walks the per-octant offset lists.
  kUnion,
  // T1/T3 plus the matrices the eight supernode lists reference: 784
  // parent-level matrices and 218 distinct same-level T2 offsets (d = 2).
  kSupernode,
};

inline MatrixSet matrix_set_for(const FmmConfig& config) {
  return config.supernodes && config.mode != ExecutionMode::kDataParallel
             ? MatrixSet::kSupernode
             : MatrixSet::kUnion;
}

struct TranslationData {
  MatrixSet set = MatrixSet::kUnion;
  // Every matrix of the set, once, in the gemm orientation T^T (row i
  // weights source point i): K * K doubles each, back to back; apply_rows
  // reads it as gemm's B. Allocated without zeroing: the build writes every
  // slot.
  std::unique_ptr<double[]> store;
  std::size_t store_doubles = 0;
  std::array<const double*, 8> t1{}, t3{};
  // T2 by offset-cube index; null for offsets outside the set.
  std::vector<const double*> t2;
  std::vector<UnionOffset> union_offsets;
  // kSupernode only: per octant, tree::supernode_interactive and, aligned
  // with it, each entry's matrix (its T2 for same-level entries).
  std::array<std::vector<tree::SupernodeEntry>, 8> supernode_lists;
  std::array<std::vector<const double*>, 8> supernode;
  double build_seconds = 0.0;

  TranslationData() = default;
  // The matrix pointers above point into `store`; a copy would alias it.
  TranslationData(const TranslationData&) = delete;
  TranslationData& operator=(const TranslationData&) = delete;

  // Resident matrix bytes: exactly matrices x K^2 x 8.
  std::size_t resident_bytes() const { return store_doubles * sizeof(double); }

  static std::shared_ptr<const TranslationData> build(const FmmConfig& config);
};

// ---------------------------------------------------------------------------
// FmmPlan: the immutable per-(config, depth) solve plan. Everything in here
// is position-independent structure (paper Sections 2.3, 3.3.4): the
// translation data and the near-field interaction list. The hierarchy's
// root cube is the only geometry derived per solve (particles move), and it
// is an O(1) object — translation matrices are expressed in box-side units,
// so they are scale-invariant.
// ---------------------------------------------------------------------------

struct FmmPlan {
  // Null for short-range kernels: their plans carry only the near-field
  // interaction list.
  std::shared_ptr<const TranslationData> trans;
  // Plans are keyed by kernel (as well as depth) so a future plan cache can
  // be multi-tenant across workloads; plan_for rebuilds on a mismatch.
  KernelType kernel = KernelType::kLaplace3d;
  int depth = 0;
  std::size_t k = 0;
  // The near-field interaction list (the half list), from
  // near_offsets_for.
  std::vector<tree::Offset> near_offsets;
  double build_seconds = 0.0;

  static std::shared_ptr<const FmmPlan> build(
      std::shared_ptr<const TranslationData> trans, const FmmConfig& config,
      int depth);
};

// Per-solver van der Waals state: the ntypes^2 pair tables (combining rules
// applied once at solver construction) plus the derived switching constants,
// packaged as the VdwParams the near field hands to pkern.
struct VdwTables {
  std::vector<double> rmin2, eps;
  pkern::VdwParams params{};

  void build(const KernelSpec& spec) {
    const std::size_t nt = spec.vdw_types();
    rmin2.resize(nt * nt);
    eps.resize(nt * nt);
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        const double rm = 0.5 * (spec.vdw_rmin[i] + spec.vdw_rmin[j]);
        rmin2[i * nt + j] = rm * rm;
        eps[i * nt + j] = std::sqrt(spec.vdw_epsilon[i] * spec.vdw_epsilon[j]);
      }
    }
    params.rmin2 = rmin2.data();
    params.eps = eps.data();
    params.ntypes = nt;
    params.cuton2 = spec.vdw_cuton * spec.vdw_cuton;
    params.cutoff2 = spec.vdw_cutoff * spec.vdw_cutoff;
    params.cm3o = params.cutoff2 - 3.0 * params.cuton2;
    const double denom = params.cutoff2 - params.cuton2;
    params.inv_denom = 1.0 / (denom * denom * denom);
    params.inv_denom6 = 6.0 * params.inv_denom;
    if (spec.vdw_periodic) {
      params.period = spec.vdw_box.max_side();
      params.inv_period = 1.0 / params.period;
    } else {
      params.period = 0.0;
      params.inv_period = 0.0;
    }
  }
};

// ---------------------------------------------------------------------------
// SolveWorkspace: every mutable buffer of a solve, reused across calls.
// ---------------------------------------------------------------------------

// Grows `v` to `n` elements, counting a heap-growth event when the current
// capacity does not cover the request (the warm-solve allocation counter).
template <typename T>
void grow(std::vector<T>& v, std::size_t n,
          std::atomic<std::uint64_t>& allocs) {
  if (v.capacity() < n) allocs.fetch_add(1, std::memory_order_relaxed);
  v.resize(n);
}

// Per-chunk scratch of the translation stages (sparse_chunks.hpp): slots
// are keyed by the stage's chunk index (stable across runs, handed to the
// body by the exec scheduler), and the vectors persist across stages and
// solve() calls, so a warm solve grows none of them. Stages that share the
// arena must not run concurrently (graph edges serialize the far-field
// chain); distinct chunks of one stage touch distinct slots.
struct ChunkSlot {
  std::vector<double> slab, out;       // gathered source rows, their products
  std::vector<std::uint32_t> dst;      // destination row of each slab row
  std::vector<tree::BoxCoord> coord;   // coordinates of the chunk's boxes
  std::vector<std::uint32_t> order;    // chunk positions grouped by octant
};

class ChunkArena {
 public:
  // Call once, serially, before any stage uses the arena.
  void ensure(std::size_t chunks, std::atomic<std::uint64_t>& allocs) {
    if (slots_.size() < chunks) {
      allocs.fetch_add(1, std::memory_order_relaxed);
      slots_.resize(chunks);
    }
  }
  ChunkSlot& slot(std::size_t chunk) { return slots_[chunk]; }
  std::size_t capacity_bytes() const {
    std::size_t b = 0;
    for (const ChunkSlot& s : slots_)
      b += (s.slab.capacity() + s.out.capacity()) * sizeof(double) +
           (s.dst.capacity() + s.order.capacity()) * sizeof(std::uint32_t) +
           s.coord.capacity() * sizeof(tree::BoxCoord);
    return b;
  }

 private:
  std::vector<ChunkSlot> slots_;
};

struct SolveWorkspace {
  // Level stores: far/local potential vectors of each level's active boxes,
  // [level][active_index * K + i] (prepare_levels). Grown, never shrunk.
  std::vector<std::vector<double>> far, local;
  // Sorted particle buffers (coordinate-sort output, reused in place).
  dp::BoxedParticles boxed;
  dp::SortScratch sort_scratch;
  // Per-particle results in sorted order.
  std::vector<double> phi_sorted;
  std::vector<Vec3> grad_sorted;
  // Near-field per-chunk accumulation buffers.
  NearFieldScratch near_scratch;
  // Per-chunk scratch for the translation phases.
  ChunkArena arena;
  // Occupied leaf flats (sort output) and the derived active-box level
  // sets. Rebuilt per solve (particles move), buffers reused — a warm solve
  // grows nothing here.
  std::vector<std::uint32_t> occupied;
  tree::ActiveLevels active;
  // Cost-model weights for cost-balanced chunk splits (leaf = particle
  // counts, near = near-field pair counts per active leaf).
  std::vector<std::uint64_t> leaf_cost, near_cost;
  // Heap-growth events since begin_solve() (reported as workspace allocs).
  std::atomic<std::uint64_t> allocs{0};

  void begin_solve() { allocs.store(0, std::memory_order_relaxed); }

  // Level stores hold only the active boxes, [level][active_index * K + i]:
  // |active_l| * K values per level instead of 8^l * K. Grown to the active
  // counts and zeroed.
  void prepare_levels(const tree::ActiveLevels& act, std::size_t k) {
    const std::size_t depth = static_cast<std::size_t>(act.depth);
    if (far.size() < depth + 1) {
      allocs.fetch_add(1, std::memory_order_relaxed);
      far.resize(depth + 1);
      local.resize(depth + 1);
    }
    for (std::size_t l = 0; l <= depth; ++l) {
      const std::size_t boxes = act.levels[l].count();
      grow(far[l], boxes * k, allocs);
      grow(local[l], boxes * k, allocs);
      std::fill(far[l].begin(), far[l].begin() + boxes * k, 0.0);
      std::fill(local[l].begin(), local[l].begin() + boxes * k, 0.0);
    }
  }

  // Heap footprint (capacities) of the buffers a solve touches; reported as
  // FmmResult::workspace_bytes.
  std::size_t workspace_bytes() const {
    auto cap = [](const auto& v) {
      return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    std::size_t total = 0;
    for (const auto& v : far) total += cap(v);
    for (const auto& v : local) total += cap(v);
    total += cap(phi_sorted) + cap(grad_sorted);
    total += cap(occupied) + cap(leaf_cost) + cap(near_cost);
    total += active.capacity_bytes() + arena.capacity_bytes();
    total += cap(near_scratch.leaves) + cap(near_scratch.cost);
    for (const auto& ch : near_scratch.chunks) {
      total += cap(ch.phi) + cap(ch.grad) + cap(ch.pair_phi) + cap(ch.pair_gx) +
               cap(ch.pair_gy) + cap(ch.pair_gz) + cap(ch.runs);
    }
    total += boxed.sorted.size() * 4 * sizeof(double);
    total += cap(boxed.box_begin) + cap(boxed.perm) + cap(boxed.box_of) +
             cap(boxed.rank_to_flat) + cap(boxed.flat_to_rank);
    return total;
  }

  void prepare_outputs(std::size_t n, bool with_gradient) {
    grow(phi_sorted, n, allocs);
    std::fill(phi_sorted.begin(), phi_sorted.end(), 0.0);
    if (with_gradient) {
      grow(grad_sorted, n, allocs);
      std::fill(grad_sorted.begin(), grad_sorted.end(), Vec3{});
    } else {
      grad_sorted.clear();
    }
  }
};

// Per-phase occupancy: the boxes each phase visited against the 8^l boxes
// of its levels (the leaf phases iterate leaves; upward iterates parents
// 1..h-1; interactive 2..h; downward 3..h). A null `act` counts every box
// visited, as the data-parallel executor's dense loops do.
void record_phase_boxes(const tree::Hierarchy& hier,
                        const tree::ActiveLevels* act, bool far_capable,
                        PhaseBreakdown& breakdown);

}  // namespace hfmm::core::internal

namespace hfmm::core {

struct FmmSolver::Impl {
  // Where plans come from: the shared cache when this solver is a service
  // client, else a private cache. `trans` and `plan` memoize the
  // last answers, so warm solves never take the cache's lock.
  std::shared_ptr<service::PlanCache> cache;
  std::shared_ptr<const internal::TranslationData> trans;
  std::shared_ptr<const internal::FmmPlan> plan;
  internal::SolveWorkspace ws;
  // Sequential mode runs on a private one-thread pool owned by the solver
  // (selected once at construction, not per solve); the other modes use the
  // process-global pool.
  std::unique_ptr<ThreadPool> seq_pool;
  ThreadPool* pool = nullptr;
  // Short-range kernel state, built once in the FmmSolver ctor. `near`
  // points into `vdw`'s tables for van der Waals; for Laplace it just
  // carries softening^2. Every executor hands `near` to the near-field
  // chunk bodies (the solver re-binds near.types to the sorted type array
  // each solve, since the workspace buffer can reallocate on growth).
  internal::VdwTables vdw;
  NearKernel near;

  // Builds (or reuses) the translation data; charged to "precompute".
  // `built` (optional) reports whether a fresh build happened — false on
  // reuse of the memo AND on a cache hit.
  const internal::TranslationData& translation_data(const FmmConfig& config,
                                                    bool* built = nullptr);
  // Builds (or reuses) the plan for `depth`; build time lands in
  // `result.breakdown["plan"]` of the solve that triggered it. A cache hit
  // charges plan_reuse instead of allocs.
  const internal::FmmPlan& plan_for(const FmmConfig& config, int depth,
                                    PhaseBreakdown& breakdown);
};

}  // namespace hfmm::core
