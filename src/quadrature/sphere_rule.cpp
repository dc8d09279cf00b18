#include "hfmm/quadrature/sphere_rule.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "hfmm/blas/linalg.hpp"
#include "hfmm/quadrature/legendre.hpp"

namespace hfmm::quadrature {

double SphereRule::worst_moment(int lmax) const {
  std::vector<double> moments(sh_count(lmax), 0.0);
  std::vector<double> y(sh_count(lmax));
  for (std::size_t i = 0; i < points.size(); ++i) {
    real_sph_harmonics(lmax, points[i], y);
    for (std::size_t k = 0; k < moments.size(); ++k)
      moments[k] += weights[i] * y[k];
  }
  double worst = 0.0;
  for (std::size_t k = 1; k < moments.size(); ++k)  // skip Y_00
    worst = std::max(worst, std::abs(moments[k]));
  return worst;
}

SphereRule icosahedron_rule() {
  SphereRule rule;
  rule.name = "icosahedron-12";
  rule.degree = 5;
  const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
  const double norm = std::sqrt(1.0 + phi * phi);
  const double a = 1.0 / norm, b = phi / norm;
  // Vertices: cyclic permutations of (0, +-a, +-b).
  for (const double sa : {a, -a}) {
    for (const double sb : {b, -b}) {
      rule.points.push_back({0.0, sa, sb});
      rule.points.push_back({sa, sb, 0.0});
      rule.points.push_back({sb, 0.0, sa});
    }
  }
  rule.weights.assign(12, 1.0 / 12.0);
  return rule;
}

SphereRule product_rule(int n_theta, int n_phi) {
  if (n_theta < 1 || n_phi < 1)
    throw std::invalid_argument("product_rule: counts must be positive");
  SphereRule rule;
  rule.name = "product-" + std::to_string(n_theta) + "x" + std::to_string(n_phi);
  rule.degree = std::min(2 * n_theta - 1, n_phi - 1);
  const GaussLegendre gl = gauss_legendre(n_theta);
  rule.points.reserve(static_cast<std::size_t>(n_theta) * n_phi);
  rule.weights.reserve(rule.points.capacity());
  for (int j = 0; j < n_theta; ++j) {
    const double ct = gl.nodes[j];
    const double st = std::sqrt(std::max(0.0, 1.0 - ct * ct));
    // Mean over the sphere: (gl weight / 2) x (1 / n_phi) per azimuth.
    const double w = 0.5 * gl.weights[j] / n_phi;
    for (int i = 0; i < n_phi; ++i) {
      // Stagger alternate rings by half a step so points do not align into
      // meridian planes (marginally better conditioning of translations).
      const double offset = (j % 2 == 0) ? 0.0 : 0.5;
      const double phi =
          2.0 * std::numbers::pi * (static_cast<double>(i) + offset) / n_phi;
      rule.points.push_back({st * std::cos(phi), st * std::sin(phi), ct});
      rule.weights.push_back(w);
    }
  }
  return rule;
}

SphereRule product_rule_for_degree(int degree) {
  if (degree < 0)
    throw std::invalid_argument("product_rule_for_degree: degree must be >= 0");
  const int n_theta = (degree + 2) / 2;  // ceil((degree+1)/2)
  const int n_phi = degree + 1;
  SphereRule rule = product_rule(std::max(1, n_theta), std::max(1, n_phi));
  rule.degree = degree;  // by construction
  return rule;
}

SphereRule fibonacci_rule(int k, int fit_degree) {
  if (k < 1) throw std::invalid_argument("fibonacci_rule: k must be >= 1");
  SphereRule rule;
  rule.name = "fibonacci-" + std::to_string(k) + "-lsq" +
              std::to_string(fit_degree);
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  for (int i = 0; i < k; ++i) {
    const double z = 1.0 - (2.0 * i + 1.0) / k;
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    const double phi = golden * i;
    rule.points.push_back({r * std::cos(phi), r * std::sin(phi), z});
  }

  // Minimum-norm weights matching the moments of all harmonics of degree
  // <= fit_degree: M w = t with M[lm][i] = Y_lm(s_i), t = e_00.
  const std::size_t rows = sh_count(fit_degree);
  const std::size_t cols = static_cast<std::size_t>(k);
  std::vector<double> m(rows * cols);
  std::vector<double> y(rows);
  for (std::size_t i = 0; i < cols; ++i) {
    real_sph_harmonics(fit_degree, rule.points[i], y);
    for (std::size_t r = 0; r < rows; ++r) m[r * cols + i] = y[r];
  }
  std::vector<double> t(rows, 0.0);
  t[0] = 1.0;
  rule.weights.resize(cols);
  if (!blas::min_norm_solve(m, rows, cols, t.data(), rule.weights.data(),
                            1e-12))
    throw std::runtime_error("fibonacci_rule: weight fit failed");

  // Record the verified exactness, not the requested one.
  rule.degree = 0;
  for (int l = 1; l <= fit_degree; ++l) {
    if (rule.worst_moment(l) > 1e-9) break;
    rule.degree = l;
  }
  return rule;
}

SphereRule rule_for_order(int order) {
  if (order < 0) throw std::invalid_argument("rule_for_order: order >= 0");
  if (order <= 5) return icosahedron_rule();
  return product_rule_for_degree(order);
}

std::vector<RuleSymmetry> symmetries(const SphereRule& rule) {
  constexpr double kTol = 1e-12;
  const std::size_t k = rule.size();
  double wmax = 0.0;
  for (const double w : rule.weights) wmax = std::max(wmax, std::abs(w));
  std::vector<RuleSymmetry> out;
  std::array<int, 3> axis{0, 1, 2};
  do {  // axis orders in lexicographic order: the identity comes first
    for (int signs = 0; signs < 8; ++signs) {
      RuleSymmetry r;
      r.axis = axis;
      for (int a = 0; a < 3; ++a) r.sign[a] = (signs >> a) & 1 ? -1.0 : 1.0;
      std::vector<bool> hit(k, false);
      for (std::size_t i = 0; i < k; ++i) {
        const Vec3 image = r.apply(rule.points[i]);
        for (std::size_t j = 0; j < k; ++j) {
          const Vec3 d = image - rule.points[j];
          if (!hit[j] &&
              std::max({std::abs(d.x), std::abs(d.y), std::abs(d.z)}) <= kTol &&
              std::abs(rule.weights[i] - rule.weights[j]) <= kTol * wmax) {
            hit[j] = true;
            r.perm.push_back(static_cast<std::uint32_t>(j));
            break;
          }
        }
        if (r.perm.size() != i + 1) break;
      }
      if (r.perm.size() == k) out.push_back(std::move(r));
    }
  } while (std::next_permutation(axis.begin(), axis.end()));
  return out;
}

SphereRule rule_k12() { return icosahedron_rule(); }

SphereRule rule_k72() {
  SphereRule rule = product_rule(6, 12);
  rule.name = "product-6x12 (K=72, degree-14 McLaren substitute, degree 11)";
  return rule;
}

}  // namespace hfmm::quadrature
