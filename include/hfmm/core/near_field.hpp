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
// Two entry levels:
//   * near_field() — the orchestrator: chunks the leaf boxes over the pool,
//     runs near_field_chunk() per chunk, reduces with
//     near_field_accumulate(). Interaction lists come precomputed from the
//     caller (the solver's FmmPlan), so repeated solves rebuild nothing.
//   * near_field_chunk() / near_field_accumulate() — the chunk-level worker
//     and reduction the hfmm::exec phase graph drives directly, so the near
//     field can run concurrently with the far-field stages and meet them at
//     the accumulate stage. Chunks write only their own scratch buffers and
//     the reduction adds chunks in index order (== ascending box ranges),
//     which keeps threaded solves bitwise-reproducible.

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
};

/// Reusable workspace for near_field(). Each chunk's accumulation buffers
/// cover only the particle span its calls write — its targets plus, for
/// the symmetric list, the partners ahead of them — so the total is the sum
/// of the chunk spans: about 3N for a uniform grid cut into one-plane
/// slabs, since each slab's partners reach two planes ahead. Owning them at
/// the caller means an integrator stepping the same system pays the
/// allocation once, not every step. Buffers grow on demand and are reset
/// (not shrunk) per call.
struct NearFieldScratch {
  /// One planned pkern call: targets [tb, te) against sources [sb, se) —
  /// a target box against itself (sb == tb) or against a source run.
  struct Run {
    std::uint32_t tb = 0, te = 0, sb = 0, se = 0;
  };
  /// One x-row of an interaction list: offsets (dx_lo..dx_hi, dy, dz).
  struct Row {
    std::int32_t dx_lo = 0, dx_hi = 0, dy = 0, dz = 0;
  };
  struct Chunk {
    std::vector<double> phi;        ///< potential over the span: [i - lo]
    std::vector<Vec3> grad;         ///< gradient over the span: [i - lo]
    std::vector<double> pair_phi;   ///< symmetric pair buffer (targets+sources)
    std::vector<double> pair_gx, pair_gy, pair_gz;  ///< SoA pair gradients
    std::vector<Run> runs;          ///< the chunk's calls, in evaluation order
    std::vector<Row> rows;          ///< the interaction list grouped by x-row
    std::size_t lo = 0, hi = 0;     ///< particle span [lo, hi) the chunk wrote
  };
  std::vector<Chunk> chunks;
};

/// Evaluates leaf boxes [box_lo, box_hi) into `ch`'s chunk-local buffers
/// (resized to the chunk's span and zeroed here). `offsets` is the
/// precomputed interaction list — tree::near_field_half_offsets(d) when
/// `symmetric`, else tree::near_field_offsets(d). Each target box walks the
/// list as x-rows (one dx interval per (dy, dz)) and merges a row's boxes
/// whose sorted particle ranges abut into one source run, so a row costs one
/// pkern call instead of one per box. Writes nothing outside `ch`; safe to
/// run concurrently with other chunks and with the far-field stages. The
/// counts are per box pair, as if every box were its own call; the flop
/// count is analytic (pairs x per-pair kernel cost).
NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::size_t box_lo, std::size_t box_hi,
                                 const NearKernel& kern = NearKernel{});

/// Active-box variant: evaluates the leaf boxes whose flat indices are
/// listed in `boxes` (a slice of an active set, ascending). Pair
/// coverage matches the box-range form exactly — boxes absent from an
/// active set are empty, and box pairs with an empty side are skipped by
/// both forms — so the two produce identical interactions.
NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern = NearKernel{});

/// Adds chunks [0, used) of `scr` into phi/grad over the particle range
/// [lo, hi), each over its overlap with the chunk's span, in chunk-index
/// order. Chunk index == ascending box range when the chunks came from a
/// static split, so the floating-point accumulation order is fixed
/// regardless of which thread ran which chunk.
void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi);

/// Accumulates near-field potential (and gradient if `grad` nonempty) into
/// phi/grad, both indexed in SORTED particle order (boxed.sorted).
/// `scratch` (when non-null) is reused across calls; pass null for one-shot
/// use. `kern` selects the pairwise physics — a bare softening length still
/// converts to the Laplace kernel (far-field contributions are unsoftened,
/// which is the standard treecode convention when the softening length is
/// well below the leaf box side).
NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch = nullptr,
                           const NearKernel& kern = NearKernel{});

}  // namespace hfmm::core
