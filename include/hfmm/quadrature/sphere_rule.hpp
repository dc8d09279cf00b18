#pragma once
// Integration rules on the unit sphere.
//
// Anderson's method (paper Section 2.4, Table 2) chooses an integration order
// D, then the rule with fewest points K that is exact for spherical
// polynomials of degree <= D. His Table 2 pairs (D=5, K=12) ... (D=14, K=72),
// the last via McLaren's 72-point rule. We provide:
//
//   * the exact 12-point icosahedral rule (degree 5) — matches the paper,
//   * Gauss-Legendre x equispaced-azimuth product rules of any degree,
//   * a 72-point product rule (6 x 12, degree 11) keeping the paper's K=72
//     compute shape (documented substitution for McLaren's degree-14 rule),
//   * Fibonacci-spiral point sets with least-squares (minimum-norm) weights
//     fit to a requested degree.
//
// Weights are normalized to SUM TO ONE, i.e. sum_i w_i f(s_i) approximates
// the *mean* of f over the sphere. With this convention the n = 0 term of the
// Poisson kernel reproduces a monopole exactly.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hfmm/util/vec3.hpp"

namespace hfmm::quadrature {

struct SphereRule {
  std::vector<Vec3> points;     ///< unit vectors s_i
  std::vector<double> weights;  ///< sum to 1
  int degree = 0;               ///< exact for spherical polys of degree <= this
  std::string name;

  std::size_t size() const { return points.size(); }

  /// Max over spherical harmonics of degree l in [1, lmax] of
  /// |sum_i w_i Y_lm(s_i)| — zero (to rounding) for l <= degree.
  double worst_moment(int lmax) const;
};

/// 12 icosahedron vertices, equal weights; exact through degree 5.
SphereRule icosahedron_rule();

/// Product rule: n_theta Gauss-Legendre colatitudes x n_phi equispaced
/// azimuths. Exact through degree min(2*n_theta - 1, n_phi - 1).
SphereRule product_rule(int n_theta, int n_phi);

/// Smallest product rule exact through degree D:
/// n_theta = ceil((D+1)/2), n_phi = D+1.
SphereRule product_rule_for_degree(int degree);

/// K Fibonacci-spiral points with minimum-norm weights fit so that all
/// harmonics of degree <= fit_degree integrate exactly (when feasible, i.e.
/// (fit_degree+1)^2 <= K); `degree` records the verified exactness.
SphereRule fibonacci_rule(int k, int fit_degree);

/// The rule used for integration order D, following the paper's Table 2
/// pairing where we can and the documented substitutions where we cannot:
///   D <= 5          -> icosahedron (K = 12), exactly as the paper;
///   otherwise       -> smallest product rule of degree D.
SphereRule rule_for_order(int order);

/// A signed axis permutation R, (R v)_a = sign[a] * v[axis[a]], that maps a
/// rule onto itself: R s_i = s_perm[i] and w_perm[i] = w_i. A translation
/// matrix depends on its points only through dot products and norms, so the
/// matrix of a displacement R v is the one of v with its points relabelled
/// by perm (DESIGN.md Section 11).
struct RuleSymmetry {
  std::array<int, 3> axis{0, 1, 2};
  std::array<double, 3> sign{1.0, 1.0, 1.0};
  std::vector<std::uint32_t> perm;

  Vec3 apply(const Vec3& v) const {
    return {sign[0] * v[axis[0]], sign[1] * v[axis[1]], sign[2] * v[axis[2]]};
  }
};

/// Every one of the 48 signed axis permutations that maps `rule` onto itself
/// (points within 1e-12, weights within 1e-12 of the largest), the identity
/// first: 24 for the icosahedron, 8 for the K = 72 product rule.
std::vector<RuleSymmetry> symmetries(const SphereRule& rule);

/// The paper's headline configurations: K = 12 (D = 5) and K = 72. The K = 72
/// rule is the 6 x 12 product rule (degree 11) standing in for McLaren's
/// degree-14 rule; see DESIGN.md substitution table.
SphereRule rule_k12();
SphereRule rule_k72();

}  // namespace hfmm::quadrature
