#pragma once
// The 2-D Poisson-formula computational elements.
//
// Potential convention: phi(x) = sum_j q_j log(1/|x - x_j|). A cluster with
// total charge Q inside a circle of radius a has, outside the circle,
//   u(r,theta) = Q log(a/r)
//              + (1/2pi) Int g(phi) [1 + 2 sum_{n=1}^{M} (a/r)^n
//                                        cos n(theta - phi)] dphi
// where g are the boundary values of the potential on the circle (their
// mean already contains Q log(1/a), so the far field reduces to Q log(1/r)).
// Interior fields use the same series with (r/a)^n and no log term.
//
// An OUTER element is therefore (g_0..g_{K-1}, Q): the K sampled boundary
// values PLUS the explicit monopole — the price of the logarithm in 2-D.
// An INNER element is just (g_0..g_{K-1}). Translations are linear in the
// augmented (K+1)-vector [g, Q], so the whole 3-D matrix machinery carries
// over with (K+1) x (K+1) matrices.

#include <cstddef>
#include <span>

#include "hfmm/d2/circle_rule.hpp"

namespace hfmm::d2 {

struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Point2 operator-(const Point2& a, const Point2& b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Point2 operator+(const Point2& a, const Point2& b) {
    return {a.x + b.x, a.y + b.y};
  }
  double norm() const;
};

/// Truncated exterior kernel (without the log term):
/// 1 + 2 sum_{n<=M} (a/r)^n cos n(theta_x - theta_s).
double outer_series_kernel(int truncation, double a, double s_theta,
                           const Point2& x_rel);

/// Truncated interior kernel: 1 + 2 sum_{n<=M} (r/a)^n cos n(...).
double inner_series_kernel(int truncation, double a, double s_theta,
                           const Point2& x_rel);

/// Gradient of the interior kernel w.r.t. x (for forces in 2-D L2P).
Point2 inner_series_kernel_gradient(int truncation, double a, double s_theta,
                                    const Point2& x_rel);

/// Evaluates an outer element (g on circle (center, a), monopole Q) at x
/// outside: the log term plus the discretized series.
double evaluate_outer(const CircleRule& rule, int truncation, double a,
                      const Point2& center, std::span<const double> g,
                      double monopole, const Point2& x);

/// Evaluates an inner element at x inside the circle.
double evaluate_inner(const CircleRule& rule, int truncation, double a,
                      const Point2& center, std::span<const double> g,
                      const Point2& x);

/// Gradient of an inner element at x.
Point2 evaluate_inner_gradient(const CircleRule& rule, int truncation,
                               double a, const Point2& center,
                               std::span<const double> g, const Point2& x);

/// Near-field P2P over SoA particle arrays: phi[i-tb] += sum_j -q_j/2
/// log(r2) for targets [tb, te) and sources [sb, se). When gxy != nullptr,
/// gxy[2(i-tb)] / [2(i-tb)+1] accumulate the gradient (-q_j d / r2) as
/// interleaved (x, y) pairs, the Point2 layout. Identical ranges skip the
/// self pair. std::log dominates the pair cost, so there is no SIMD variant.
void p2p(const double* x, const double* y, const double* q, std::size_t tb,
         std::size_t te, std::size_t sb, std::size_t se, double* phi,
         double* gxy);

/// P2M onto k circle points: g[i] += sum_j -pq[j]/2 log(|sp_i - p_j|^2)
/// over a leaf's n particles.
void p2m(const double* spx, const double* spy, std::size_t k,
         const double* px, const double* py, const double* pq, std::size_t n,
         double* g);

}  // namespace hfmm::d2
