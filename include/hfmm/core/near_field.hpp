#pragma once
// Near-field direct evaluation (paper Section 3.4, Figure 10).
//
// Each leaf box interacts with the (2d+1)^3 - 1 neighbors of its
// d-separation near field plus its own particles. The symmetric variant
// exploits Newton's third law at box granularity: a half-list H with
// H u -H = all neighbors lets every box PAIR be evaluated once, writing
// both directions — 62 instead of 124 box-box interactions for d = 2.
// Its pkern calls cover x-rows of boxes rather than single boxes: the
// coordinate sort stores x-neighbours contiguously, so a target box meets
// the 62 boxes of H in ~13 calls (DESIGN.md Section 10).
//
// The pairwise arithmetic runs on the dispatched pkern backend (see
// hfmm/pkern/kernels.hpp); baseline::direct_ranges remains the scalar
// reference the tests compare against.
//
// One schedule serves every caller, the shared-memory executor's:
//   * the work is the non-empty leaf boxes (dp::occupied_leaves), priced by
//     near_field_costs() at the particle pairs each one evaluates;
//   * a cost-weighted exec stage of near_chunk_count() chunks runs
//     near_field_chunk() over contiguous slices of that list, each chunk into
//     its own scratch buffers;
//   * near_field_accumulate() adds the chunks in index order.
// The chunk count is a constant, not the worker count, so results agree
// bitwise on any pool size. near_field() runs the two stages by itself; the
// shared-memory executor puts them into its phase graph, where the near
// field runs concurrently with the far-field stages and meets them at the
// accumulate stage. Interaction lists come precomputed from the caller (the
// solver's FmmPlan), so repeated solves rebuild nothing.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/core/kernel_model.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm::core {

struct NearFieldResult {
  std::uint64_t flops = 0;
  std::uint64_t pair_interactions = 0;  ///< particle pairs evaluated
  std::uint64_t box_interactions = 0;   ///< box-box interactions evaluated
};

/// Physics of the near-field pair loop, resolved by the solver from its
/// KernelSpec. Implicitly convertible from a softening length, so Laplace
/// call sites pass `kernel.softening` directly. For van der Waals the solver
/// fills the precomputed pair tables / switching constants and the
/// per-particle type array (SORTED order, aligned with boxed.sorted); a
/// period > 0 in `vdw` additionally wraps box neighbours and pair
/// displacements to the minimum image of the periodic cube.
struct NearKernel {
  KernelType type = KernelType::kLaplace3d;
  double soft2 = 0.0;                  ///< Laplace: softening^2
  const std::int32_t* types = nullptr; ///< vdW: sorted per-particle types
  pkern::VdwParams vdw{};              ///< vdW: tables + derived constants
  NearKernel() = default;
  NearKernel(double softening) : soft2(softening * softening) {}  // implicit

  /// Periodic vdW: neighbour offsets wrap around the grid instead of falling
  /// off it (the pair kernel wraps the displacements to match).
  bool periodic() const {
    return type == KernelType::kVanDerWaals && vdw.period > 0.0;
  }
};

/// Near-stage chunk count, bounded by the leaf count. It is a constant, not
/// a function of the worker count, so a sequential solve and a threaded one
/// group the near-field sums the same way and agree bitwise on any host. 16
/// is 4 chunks a worker on a 4-core host, fine enough for idle workers to
/// drain the near field while the far-field chain runs; span-sized chunk
/// buffers keep 16 chunks cheap in sequential mode. A pool wider than 16
/// runs the near stage on 16 workers.
constexpr std::size_t kNearChunks = 16;

inline std::size_t near_chunk_count(std::size_t leaves) {
  return std::max<std::size_t>(1, std::min(leaves, kNearChunks));
}

/// Reusable workspace for near_field(). Each chunk's accumulation buffers
/// cover only the particle span its calls write — its targets plus, for
/// the symmetric list, the partners ahead of them, which reach two planes
/// of boxes past its last target. Owning them at the caller means an
/// integrator stepping the same system pays the allocation once, not every
/// step. Buffers grow on demand and are reset (not shrunk) per call.
struct NearFieldScratch {
  /// One planned pkern call: targets [tb, te) against sources [sb, se) —
  /// a target box against itself (sb == tb) or against a source run.
  struct Run {
    std::uint32_t tb = 0, te = 0, sb = 0, se = 0;
  };
  struct Chunk {
    std::vector<double> phi;        ///< potential over the span: [i - lo]
    std::vector<Vec3> grad;         ///< gradient over the span: [i - lo]
    std::vector<double> pair_phi;   ///< symmetric pair buffer (targets+sources)
    std::vector<double> pair_gx, pair_gy, pair_gz;  ///< SoA pair gradients
    std::vector<Run> runs;          ///< the chunk's calls, in evaluation order
    std::size_t lo = 0, hi = 0;     ///< particle span [lo, hi) the chunk wrote
  };
  std::vector<Chunk> chunks;
  std::vector<std::uint32_t> leaves;  ///< near_field(): the non-empty leaves
  std::vector<std::uint64_t> cost;    ///< near_field(): their pair counts
};

/// Prices each leaf box of `boxes` (flat indices) by the particle pairs
/// near_field_chunk() counts for it alone: t(t - 1) for its own t particles
/// plus t s for each neighbour holding s. `cost` receives one entry per box.
/// The cost model of the weighted near-field split.
void near_field_costs(const tree::Hierarchy& hier,
                      const dp::BoxedParticles& boxed,
                      std::span<const tree::Offset> offsets,
                      std::span<const std::uint32_t> boxes,
                      const NearKernel& kern, std::span<std::uint64_t> cost);

/// Evaluates the leaf boxes whose flat indices are listed in `boxes` (a
/// slice of the non-empty leaves; empty boxes add nothing) into `ch`'s
/// chunk-local buffers (resized to the chunk's span and zeroed here).
/// `offsets` is the precomputed interaction list —
/// tree::near_field_half_offsets(d) when `symmetric`, else
/// tree::near_field_offsets(d). Each target box walks its neighbours with
/// tree::for_each_neighbour and, for the symmetric list, merges the
/// neighbours of one x-row whose sorted particle ranges abut into one source
/// run, so a row costs one pkern call instead of one per box. Writes
/// nothing outside `ch`; safe to run concurrently with other chunks and
/// with the far-field stages. The counts are per box pair, as if every box
/// were its own call; the flop count is analytic (pairs x per-pair kernel
/// cost).
NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern = NearKernel{});

/// Adds chunks [0, used) of `scr` into phi/grad over the particle range
/// [lo, hi), each over its overlap with the chunk's span, in chunk-index
/// order. The chunks are contiguous slices of the leaf list, so the
/// floating-point accumulation order is fixed regardless of which thread
/// ran which chunk.
void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi);

/// Accumulates near-field potential (and gradient if `grad` nonempty) into
/// phi/grad, both indexed in SORTED particle order (boxed.sorted), with the
/// executor's schedule on `pool`: the non-empty leaves in sort-rank order,
/// split by pair cost into near_chunk_count() chunks. The result bits do
/// not depend on the pool size. `scratch` (when non-null) is reused across
/// calls; pass null for one-shot use. `kern` selects the pairwise physics —
/// a bare softening length still converts to the Laplace kernel (far-field
/// contributions are unsoftened, which is the standard treecode convention
/// when the softening length is well below the leaf box side).
NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch = nullptr,
                           const NearKernel& kern = NearKernel{});

}  // namespace hfmm::core
