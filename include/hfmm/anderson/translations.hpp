#pragma once
// Translation operators as K x K matrices (paper Sections 2.4 and 3.3.3,
// Figure 2).
//
// Every translation in Anderson's method evaluates a source-sphere
// approximation at the K integration points of a destination sphere, so it
// is a matrix-vector product g_dst (+)= T g_src where
//   T[j][i] = w_i * kernel(s_i, (c_dst + a_dst s_j) - c_src).
// T depends only on the displacement in units of the box side and on the
// radius ratios — NOT on the level — so one set of matrices serves the whole
// hierarchy:
//   T1: 8 matrices (child outer -> parent outer), one per octant;
//   T3: 8 matrices (parent inner -> child inner);
//   T2: (4d+3)^3 = 1331 matrices (source outer -> target inner) indexed by
//       the offset cube, built for ALL offsets for ease of indexing exactly
//       as the paper does (Section 3.3.2); near-field entries are unused;
//   supernode T2: per octant, matrices for parent-level sources standing in
//       for complete sibling octets (paper Section 2.3).

#include <cstddef>
#include <span>
#include <vector>

#include "hfmm/anderson/params.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/vec3.hpp"

namespace hfmm::anderson {

/// A dense K x K translation matrix, row-major: row j weights the source
/// values that produce destination point j.
struct TranslationMatrix {
  std::size_t k = 0;
  std::vector<double> m;  ///< k * k entries

  const double* data() const { return m.data(); }
  double* data() { return m.data(); }
};

/// Approximate flop count of constructing one K x K translation matrix
/// (per entry: a Legendre recurrence of truncation+1 terms plus geometry).
/// Used by the precompute-trade-off benches to model construction cost on
/// the simulated machine.
inline std::uint64_t translation_matrix_flops(const Params& params) {
  const std::uint64_t k = params.k();
  return k * k * (static_cast<std::uint64_t>(params.truncation + 1) * 9 + 14);
}

/// Builds T[j][i] = w_i * outer_kernel(s_i, dst_pt_j - src_center) where
/// dst_pt_j = dst_center + a_dst * s_j. Positions in arbitrary (consistent)
/// units. Used for T1 and T2.
TranslationMatrix build_outer_to_points(const Params& params, double a_src,
                                        double a_dst,
                                        const Vec3& dst_center_minus_src);

/// Where one translation's spheres sit, in units of the TARGET box side (=
/// child side for T1/T3): the source approximation's kind and radius, the
/// destination radius, and the destination centre minus the source centre.
/// One function per family below holds that family's geometry; the
/// TranslationSet and the solver's own matrix store both build from them.
struct TranslationGeometry {
  bool src_is_outer = true;
  double a_src = 0.0;
  double a_dst = 0.0;
  Vec3 dst_minus_src;
};

/// T1: child (octant o) outer -> parent outer.
TranslationGeometry t1_geometry(const Params& params, int octant);
/// T3: parent inner -> child (octant o) inner.
TranslationGeometry t3_geometry(const Params& params, int octant);
/// T2: same-level source outer at `offset` -> target inner.
TranslationGeometry t2_geometry(const Params& params,
                                const tree::Offset& offset);
/// Supernode T2: source outer at `parent_offset` (parent-level box units,
/// relative to the target's parent) -> target child (octant o) inner.
TranslationGeometry supernode_geometry(const Params& params, int octant,
                                       const tree::Offset& parent_offset);

/// Writes the K x K matrix of `geometry` into `out` (size K*K): the paper's
/// T when `transposed` is false, T^T (row i weights source point i, the B
/// operand of the box-major product G[nb x K] * T^T) when true. Every entry
/// is computed the same way in both orientations, so they agree bitwise.
void build_translation_into(const Params& params,
                            const TranslationGeometry& geometry,
                            bool transposed, std::span<double> out);

/// The full set of precomputed matrices for one parameter choice and
/// near-field separation d. All geometry is expressed in units of the
/// TARGET box side (= child side for T1/T3).
class TranslationSet {
 public:
  /// `with_supernodes` controls whether the per-octant supernode matrices
  /// are materialized (they add 8 x 98 x K^2 doubles; skip when the solver
  /// runs without the supernode optimization).
  TranslationSet(const Params& params, int separation,
                 bool with_supernodes = true);

  const Params& params() const { return params_; }
  int separation() const { return separation_; }
  std::size_t k() const { return params_.k(); }

  /// T1: child (octant o) outer -> parent outer. Child side = 1, parent = 2.
  const TranslationMatrix& t1(int octant) const { return t1_[octant]; }
  /// T3: parent inner -> child (octant o) inner.
  const TranslationMatrix& t3(int octant) const { return t3_[octant]; }
  /// T2: source outer at `offset` (target-level box units) -> target inner.
  const TranslationMatrix& t2(const tree::Offset& offset) const {
    return t2_[tree::offset_cube_index(offset, separation_)];
  }
  std::size_t t2_count() const { return t2_.size(); }

  /// Total resident bytes of all matrices (the paper's memory discussion:
  /// 1331 K^2 doubles is 1.53 MB at K = 12, 53.9 MB at K = 72).
  std::size_t resident_bytes() const;

  /// Builders used by the precompute benches (Figures 8 and 9): construct
  /// matrix `i` of the respective family into `out` (size k*k).
  void build_t1_into(int octant, std::span<double> out) const;
  void build_t2_into(std::size_t cube_index, std::span<double> out) const;

 private:
  Params params_;
  int separation_;
  std::vector<TranslationMatrix> t1_;
  std::vector<TranslationMatrix> t3_;
  std::vector<TranslationMatrix> t2_;
  std::vector<std::vector<TranslationMatrix>> supernode_;
};

}  // namespace hfmm::anderson
