#pragma once
// The Poisson-formula kernels of Anderson's method (paper eqs. (1)-(3)).
//
// Outer (far-field) approximation, for x OUTSIDE the source sphere:
//   Psi(x) ~= sum_i [ sum_{n=0}^{M} (2n+1) (a/r)^{n+1} P_n(s_i . x_hat) ]
//             g(a s_i) w_i                                      (paper eq. 2)
//
// Inner (local-field) approximation, for x INSIDE the sphere:
//   Psi(x) ~= sum_i [ sum_{n=0}^{M} (2n+1) (r/a)^{n}   P_n(s_i . x_hat) ]
//             g(a s_i) w_i                                      (paper eq. 3)
//
// (The interior Poisson kernel carries exponent n — interior harmonics grow
// as r^n — so a constant boundary field reproduces the constant exactly;
// the n+1 in the truncated source is an OCR artifact of the preprint.)
//
// Weights are normalized to sum to 1 (see sphere_rule.hpp), making the n = 0
// outer term reproduce a monopole q/r exactly.

#include <span>

#include "hfmm/quadrature/sphere_rule.hpp"
#include "hfmm/util/vec3.hpp"

namespace hfmm::anderson {

/// Truncated outer Poisson kernel: sum_{n<=M} (2n+1) (a/r)^{n+1} P_n(u) with
/// r = |x_rel|, u = s . x_rel / r. `x_rel` is relative to the sphere centre.
double outer_kernel(int truncation, double a, const Vec3& s, const Vec3& x_rel);

/// Below this |x_rel| the inner kernel takes its value at the centre, 1: only
/// the n = 0 term survives there.
inline constexpr double kInnerOriginRadius = 1e-300;

/// Truncated inner Poisson kernel: sum_{n<=M} (2n+1) (r/a)^n P_n(u).
double inner_kernel(int truncation, double a, const Vec3& s, const Vec3& x_rel);

/// Gradient (w.r.t. x) of inner_kernel — used for forces in L2P.
Vec3 inner_kernel_gradient(int truncation, double a, const Vec3& s,
                           const Vec3& x_rel);

/// Evaluates an outer approximation (values g at the rule's points on a
/// sphere of radius `a` centred at `center`) at point `x` outside.
double evaluate_outer(const quadrature::SphereRule& rule, int truncation,
                      double a, const Vec3& center, std::span<const double> g,
                      const Vec3& x);

/// Evaluates an inner approximation at `x` inside the sphere.
double evaluate_inner(const quadrature::SphereRule& rule, int truncation,
                      double a, const Vec3& center, std::span<const double> g,
                      const Vec3& x);

/// Gradient of an inner approximation at `x` (for L2P forces).
Vec3 evaluate_inner_gradient(const quadrature::SphereRule& rule,
                             int truncation, double a, const Vec3& center,
                             std::span<const double> g, const Vec3& x);

}  // namespace hfmm::anderson
