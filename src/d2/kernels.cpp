#include "hfmm/d2/kernels.hpp"

#include <cmath>

namespace hfmm::d2 {

double Point2::norm() const { return std::hypot(x, y); }

namespace {

// Sums 1 + 2 sum_{n=1}^{M} t^n cos(n * delta) via the complex geometric
// recurrence: Re[(t e^{i delta})^n].
double cosine_series(int truncation, double t, double cos_d, double sin_d) {
  double re = 1.0, im = 0.0;  // (t e^{i d})^0
  const double zr = t * cos_d, zi = t * sin_d;
  double sum = 1.0;
  for (int n = 1; n <= truncation; ++n) {
    const double nre = re * zr - im * zi;
    im = re * zi + im * zr;
    re = nre;
    sum += 2.0 * re;
  }
  return sum;
}

}  // namespace

double outer_series_kernel(int truncation, double a, double s_theta,
                           const Point2& x_rel) {
  const double r = x_rel.norm();
  const double theta = std::atan2(x_rel.y, x_rel.x);
  const double d = theta - s_theta;
  return cosine_series(truncation, a / r, std::cos(d), std::sin(d));
}

double inner_series_kernel(int truncation, double a, double s_theta,
                           const Point2& x_rel) {
  const double r = x_rel.norm();
  if (r == 0.0) return 1.0;  // only the n = 0 term survives at the centre
  const double theta = std::atan2(x_rel.y, x_rel.x);
  const double d = theta - s_theta;
  return cosine_series(truncation, r / a, std::cos(d), std::sin(d));
}

Point2 inner_series_kernel_gradient(int truncation, double a, double s_theta,
                                    const Point2& x_rel) {
  const double r = x_rel.norm();
  if (r < 1e-14 * a) {
    // Only n = 1 has a gradient at the origin: 2 (r/a) cos(theta - s) has
    // gradient (2/a)(cos s, sin s).
    if (truncation < 1) return {0, 0};
    return {2.0 * std::cos(s_theta) / a, 2.0 * std::sin(s_theta) / a};
  }
  // d/dx [ (r/a)^n cos(n(theta - s)) ]
  //   = n r^{n-1}/a^n [ cos(n(theta-s)) r_hat - sin(n(theta-s)) theta_hat ]
  //   ... wait, d(theta)/dx = theta_hat / r, so the angular part brings
  //   -n sin(n d) / r; combining: n (r^{n-1}/a^n) [cos r_hat - sin t_hat].
  const double theta = std::atan2(x_rel.y, x_rel.x);
  const double d = theta - s_theta;
  const double cx = x_rel.x / r, cy = x_rel.y / r;   // r_hat
  const double tx = -cy, ty = cx;                    // theta_hat
  double gr = 0.0, gt = 0.0;
  double rn1_an = 1.0 / a;  // r^{n-1}/a^n at n = 1
  double cnd = std::cos(d), snd = std::sin(d);
  double re = cnd, im = snd;  // e^{i n d} at n = 1
  for (int n = 1; n <= truncation; ++n) {
    gr += 2.0 * n * rn1_an * re;
    gt += -2.0 * n * rn1_an * im;
    rn1_an *= r / a;
    const double nre = re * cnd - im * snd;
    im = re * snd + im * cnd;
    re = nre;
  }
  return {gr * cx + gt * tx, gr * cy + gt * ty};
}

double evaluate_outer(const CircleRule& rule, int truncation, double a,
                      const Point2& center, std::span<const double> g,
                      double monopole, const Point2& x) {
  const Point2 x_rel = x - center;
  const double r = x_rel.norm();
  double sum = monopole * std::log(a / r);
  for (std::size_t i = 0; i < rule.size(); ++i)
    sum += rule.weight * g[i] *
           outer_series_kernel(truncation, a, rule.points[i].theta, x_rel);
  return sum;
}

double evaluate_inner(const CircleRule& rule, int truncation, double a,
                      const Point2& center, std::span<const double> g,
                      const Point2& x) {
  const Point2 x_rel = x - center;
  double sum = 0.0;
  for (std::size_t i = 0; i < rule.size(); ++i)
    sum += rule.weight * g[i] *
           inner_series_kernel(truncation, a, rule.points[i].theta, x_rel);
  return sum;
}

Point2 evaluate_inner_gradient(const CircleRule& rule, int truncation,
                               double a, const Point2& center,
                               std::span<const double> g, const Point2& x) {
  const Point2 x_rel = x - center;
  Point2 sum{0, 0};
  for (std::size_t i = 0; i < rule.size(); ++i) {
    const Point2 gk = inner_series_kernel_gradient(
        truncation, a, rule.points[i].theta, x_rel);
    sum.x += rule.weight * g[i] * gk.x;
    sum.y += rule.weight * g[i] * gk.y;
  }
  return sum;
}

void p2p(const double* x, const double* y, const double* q, std::size_t tb,
         std::size_t te, std::size_t sb, std::size_t se, double* phi,
         double* gxy) {
  for (std::size_t i = tb; i < te; ++i) {
    const double tx = x[i], ty = y[i];
    double acc = 0.0, gx = 0.0, gy = 0.0;
    for (std::size_t j = sb; j < se; ++j) {
      if (j == i) continue;  // only possible when ranges are identical
      const double dx = tx - x[j], dy = ty - y[j];
      const double r2 = dx * dx + dy * dy;
      acc += -0.5 * q[j] * std::log(r2);
      if (gxy != nullptr) {
        const double c = -q[j] / r2;
        gx += c * dx;
        gy += c * dy;
      }
    }
    phi[i - tb] += acc;
    if (gxy != nullptr) {
      gxy[2 * (i - tb)] += gx;
      gxy[2 * (i - tb) + 1] += gy;
    }
  }
}

void p2m(const double* spx, const double* spy, std::size_t k,
         const double* px, const double* py, const double* pq, std::size_t n,
         double* g) {
  for (std::size_t i = 0; i < k; ++i) {
    const double tx = spx[i], ty = spy[i];
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = tx - px[j], dy = ty - py[j];
      acc += -0.5 * pq[j] * std::log(dx * dx + dy * dy);
    }
    g[i] += acc;
  }
}

}  // namespace hfmm::d2
