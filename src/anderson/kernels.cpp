#include "hfmm/anderson/kernels.hpp"

#include <cmath>
#include <vector>

#include "hfmm/quadrature/legendre.hpp"

namespace hfmm::anderson {

namespace {
constexpr int kMaxTruncation = 64;

struct LegendreScratch {
  double p[kMaxTruncation + 1];
  double dp[kMaxTruncation + 1];
};

}  // namespace

double outer_kernel(int truncation, double a, const Vec3& s,
                    const Vec3& x_rel) {
  const double r = x_rel.norm();
  const double u = s.dot(x_rel) / r;
  LegendreScratch ls;
  quadrature::legendre_all(truncation, u, {ls.p, ls.p + truncation + 1});
  const double t = a / r;
  double tp = t;  // (a/r)^{n+1}, starting at n = 0
  double sum = 0.0;
  for (int n = 0; n <= truncation; ++n) {
    sum += (2 * n + 1) * tp * ls.p[n];
    tp *= t;
  }
  return sum;
}

double inner_kernel(int truncation, double a, const Vec3& s,
                    const Vec3& x_rel) {
  const double r = x_rel.norm();
  if (r < kInnerOriginRadius) return 1.0;
  const double u = s.dot(x_rel) / r;
  LegendreScratch ls;
  quadrature::legendre_all(truncation, u, {ls.p, ls.p + truncation + 1});
  const double t = r / a;
  double tp = 1.0;  // (r/a)^n, starting at n = 0
  double sum = 0.0;
  for (int n = 0; n <= truncation; ++n) {
    sum += (2 * n + 1) * tp * ls.p[n];
    tp *= t;
  }
  return sum;
}

Vec3 inner_kernel_gradient(int truncation, double a, const Vec3& s,
                           const Vec3& x_rel) {
  const double r = x_rel.norm();
  if (r < 1e-14 * a) {
    // Only the n = 1 term has a nonzero gradient at the origin:
    // (2n+1) (r/a) P_1(u) = 3 (s . x) / a, gradient 3 s / a.
    if (truncation < 1) return {0, 0, 0};
    return (3.0 / a) * s;
  }
  const Vec3 xhat = x_rel / r;
  const double u = s.dot(xhat);
  LegendreScratch ls;
  quadrature::legendre_all_derivs(truncation, u, {ls.p, ls.p + truncation + 1},
                                  {ls.dp, ls.dp + truncation + 1});
  // d/dx [ (r/a)^n P_n(u) ] = (r^{n-1}/a^n) [ n P_n(u) xhat
  //                                           + P'_n(u) (s - u xhat) ].
  const Vec3 tangential = s - u * xhat;
  Vec3 grad{0, 0, 0};
  double rn1_an = 1.0 / a;  // r^{n-1} / a^n at n = 1
  for (int n = 1; n <= truncation; ++n) {
    const double c = (2 * n + 1) * rn1_an;
    grad += c * (n * ls.p[n] * xhat + ls.dp[n] * tangential);
    rn1_an *= r / a;
  }
  return grad;
}

double evaluate_outer(const quadrature::SphereRule& rule, int truncation,
                      double a, const Vec3& center, std::span<const double> g,
                      const Vec3& x) {
  const Vec3 x_rel = x - center;
  double sum = 0.0;
  for (std::size_t i = 0; i < rule.size(); ++i)
    sum += outer_kernel(truncation, a, rule.points[i], x_rel) * g[i] *
           rule.weights[i];
  return sum;
}

double evaluate_inner(const quadrature::SphereRule& rule, int truncation,
                      double a, const Vec3& center, std::span<const double> g,
                      const Vec3& x) {
  const Vec3 x_rel = x - center;
  double sum = 0.0;
  for (std::size_t i = 0; i < rule.size(); ++i)
    sum += inner_kernel(truncation, a, rule.points[i], x_rel) * g[i] *
           rule.weights[i];
  return sum;
}

Vec3 evaluate_inner_gradient(const quadrature::SphereRule& rule,
                             int truncation, double a, const Vec3& center,
                             std::span<const double> g, const Vec3& x) {
  const Vec3 x_rel = x - center;
  Vec3 sum{0, 0, 0};
  for (std::size_t i = 0; i < rule.size(); ++i)
    sum += (g[i] * rule.weights[i]) *
           inner_kernel_gradient(truncation, a, rule.points[i], x_rel);
  return sum;
}

}  // namespace hfmm::anderson
