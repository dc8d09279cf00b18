// Tests for Legendre polynomials, Gauss-Legendre rules, real spherical
// harmonics, and the sphere integration rules (exactness degrees).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "hfmm/quadrature/legendre.hpp"
#include "hfmm/quadrature/sphere_rule.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::quadrature {
namespace {

TEST(LegendreTest, KnownValues) {
  std::vector<double> p(6);
  legendre_all(5, 0.5, p);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_NEAR(p[2], 0.5 * (3 * 0.25 - 1), 1e-15);                // -0.125
  EXPECT_NEAR(p[3], 0.5 * (5 * 0.125 - 3 * 0.5), 1e-15);         // -0.4375
}

TEST(LegendreTest, EndpointValues) {
  std::vector<double> p(11);
  legendre_all(10, 1.0, p);
  for (int n = 0; n <= 10; ++n) EXPECT_NEAR(p[n], 1.0, 1e-14);
  legendre_all(10, -1.0, p);
  for (int n = 0; n <= 10; ++n)
    EXPECT_NEAR(p[n], (n % 2 == 0) ? 1.0 : -1.0, 1e-14);
}

TEST(LegendreTest, DerivativesMatchFiniteDifference) {
  Xoshiro256 rng(3);
  std::vector<double> p(9), dp(9), ph(9), pl(9);
  for (int trial = 0; trial < 20; ++trial) {
    const double x = rng.uniform(-0.95, 0.95);
    const double eps = 1e-6;
    legendre_all_derivs(8, x, p, dp);
    legendre_all(8, x + eps, ph);
    legendre_all(8, x - eps, pl);
    for (int n = 0; n <= 8; ++n)
      EXPECT_NEAR(dp[n], (ph[n] - pl[n]) / (2 * eps), 1e-6) << "n=" << n;
  }
}

TEST(LegendreTest, SingleValueMatchesAll) {
  EXPECT_NEAR(legendre(4, 0.3), [] {
    std::vector<double> p(5);
    legendre_all(4, 0.3, p);
    return p[4];
  }(), 1e-15);
}

class GaussLegendreExactness : public ::testing::TestWithParam<int> {};

TEST_P(GaussLegendreExactness, IntegratesPolynomialsExactly) {
  const int n = GetParam();
  const GaussLegendre gl = gauss_legendre(n);
  ASSERT_EQ(gl.nodes.size(), static_cast<std::size_t>(n));
  // integral of x^k over [-1,1] = 2/(k+1) for even k, 0 for odd k;
  // exact for degree <= 2n-1.
  for (int deg = 0; deg <= 2 * n - 1; ++deg) {
    double sum = 0;
    for (int j = 0; j < n; ++j)
      sum += gl.weights[j] * std::pow(gl.nodes[j], deg);
    const double exact = (deg % 2 == 0) ? 2.0 / (deg + 1) : 0.0;
    EXPECT_NEAR(sum, exact, 1e-12) << "degree " << deg;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GaussLegendreExactness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10, 16));

TEST(GaussLegendreTest, WeightsSumToTwo) {
  for (int n : {1, 3, 7, 12}) {
    const GaussLegendre gl = gauss_legendre(n);
    double sum = 0;
    for (double w : gl.weights) sum += w;
    EXPECT_NEAR(sum, 2.0, 1e-13);
  }
}

TEST(SphericalHarmonicsTest, Y00IsOne) {
  std::vector<double> y(sh_count(2));
  real_sph_harmonics(2, Vec3{0, 0, 1}, y);
  EXPECT_NEAR(y[0], 1.0, 1e-14);
}

TEST(SphericalHarmonicsTest, OrthonormalUnderHighDegreeRule) {
  // With the 4-pi normalization, mean(Y_a * Y_b) = delta_ab. Use a product
  // rule of degree 16 to integrate products of degree <= 8 harmonics.
  const SphereRule rule = product_rule_for_degree(16);
  const int lmax = 4;
  const std::size_t nsh = sh_count(lmax);
  std::vector<double> gram(nsh * nsh, 0.0), y(nsh);
  for (std::size_t i = 0; i < rule.size(); ++i) {
    real_sph_harmonics(lmax, rule.points[i], y);
    for (std::size_t a = 0; a < nsh; ++a)
      for (std::size_t b = 0; b < nsh; ++b)
        gram[a * nsh + b] += rule.weights[i] * y[a] * y[b];
  }
  for (std::size_t a = 0; a < nsh; ++a)
    for (std::size_t b = 0; b < nsh; ++b)
      EXPECT_NEAR(gram[a * nsh + b], a == b ? 1.0 : 0.0, 1e-10)
          << "(a,b)=(" << a << "," << b << ")";
}

TEST(SphericalHarmonicsTest, AdditionTheorem) {
  // sum_m Y_lm(u) Y_lm(v) = (2l+1) P_l(u . v) in the 4-pi normalization.
  Xoshiro256 rng(9);
  const auto rand_unit = [&] {
    const double z = rng.uniform(-1, 1);
    const double phi = rng.uniform(0, 2 * std::numbers::pi);
    const double s = std::sqrt(1 - z * z);
    return Vec3{s * std::cos(phi), s * std::sin(phi), z};
  };
  const int lmax = 6;
  std::vector<double> yu(sh_count(lmax)), yv(sh_count(lmax));
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 u = rand_unit(), v = rand_unit();
    real_sph_harmonics(lmax, u, yu);
    real_sph_harmonics(lmax, v, yv);
    for (int l = 0; l <= lmax; ++l) {
      double sum = 0;
      for (int m = -l; m <= l; ++m)
        sum += yu[l * (l + 1) + m] * yv[l * (l + 1) + m];
      EXPECT_NEAR(sum, (2 * l + 1) * legendre(l, u.dot(v)), 1e-10)
          << "l=" << l;
    }
  }
}

struct RuleCase {
  const char* name;
  SphereRule (*make)();
  int expect_degree;
  std::size_t expect_k;
};

// Print a case by its name: gtest's default byte dump would put the address
// of `name` (and padding bytes) into the listed test names, so they would
// change from one build to the next.
void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

class SphereRuleExactness : public ::testing::TestWithParam<RuleCase> {};

TEST_P(SphereRuleExactness, PropertiesAndMoments) {
  const RuleCase& c = GetParam();
  const SphereRule rule = c.make();
  EXPECT_EQ(rule.size(), c.expect_k);
  EXPECT_GE(rule.degree, c.expect_degree);
  double wsum = 0;
  for (double w : rule.weights) wsum += w;
  EXPECT_NEAR(wsum, 1.0, 1e-12);
  for (const Vec3& p : rule.points) EXPECT_NEAR(p.norm(), 1.0, 1e-12);
  // Exact through the declared degree...
  EXPECT_LT(rule.worst_moment(c.expect_degree), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, SphereRuleExactness,
    ::testing::Values(
        RuleCase{"icosahedron", &icosahedron_rule, 5, 12},
        RuleCase{"k72", &rule_k72, 11, 72},
        RuleCase{"d7", [] { return product_rule_for_degree(7); }, 7, 32},
        RuleCase{"d9", [] { return product_rule_for_degree(9); }, 9, 50},
        RuleCase{"d14", [] { return product_rule_for_degree(14); }, 14, 120}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(SphereRuleTest, IcosahedronNotExactAtDegreeSix) {
  const SphereRule rule = icosahedron_rule();
  EXPECT_GT(rule.worst_moment(6), 1e-6);
}

TEST(SphereRuleTest, FibonacciLsqWeightsAreExactWhenFeasible) {
  // 64 points can satisfy the (5+1)^2 = 36 constraints of degree 5.
  const SphereRule rule = fibonacci_rule(64, 5);
  EXPECT_GE(rule.degree, 5);
  EXPECT_LT(rule.worst_moment(5), 1e-9);
}

TEST(SphereRuleTest, RuleForOrderPicksPaperPairing) {
  EXPECT_EQ(rule_for_order(5).size(), 12u);   // Table 2: D = 5 -> K = 12
  EXPECT_EQ(rule_for_order(3).size(), 12u);
  const SphereRule r9 = rule_for_order(9);
  EXPECT_GE(r9.degree, 9);
}

TEST(SphereRuleTest, MeanOfConstantIsConstant) {
  for (const SphereRule& rule :
       {icosahedron_rule(), rule_k72(), product_rule(4, 9)}) {
    double sum = 0;
    for (std::size_t i = 0; i < rule.size(); ++i) sum += rule.weights[i] * 7.5;
    EXPECT_NEAR(sum, 7.5, 1e-12) << rule.name;
  }
}

// The translation store keeps one matrix per orbit of these maps (DESIGN.md
// Section 11). Each map sends every point onto a point of equal weight,
// as a bijection; the groups differ by rule: the icosahedron's 24 are the
// sign flips and cyclic axis permutations, the K = 72 product rule's 8 are
// x and y flips with the x <-> y swap, and the 5 x 10 rule's 8 are the
// three sign flips.
TEST(SphereRuleTest, AxisSymmetriesMapPointsOntoPoints) {
  const auto swaps_xy = [](const RuleSymmetry& r) {
    return r.axis == std::array<int, 3>{1, 0, 2};
  };
  const auto flips_z = [](const RuleSymmetry& r) { return r.sign[2] < 0; };
  struct Case {
    SphereRule rule;
    std::size_t maps;
    bool any_swap_xy, any_flip_z;
  };
  for (const Case& c : {Case{icosahedron_rule(), 24, false, true},
                        Case{rule_k72(), 8, true, false},
                        Case{product_rule_for_degree(9), 8, false, true}}) {
    const std::vector<RuleSymmetry> sym = symmetries(c.rule);
    ASSERT_EQ(sym.size(), c.maps) << c.rule.name;
    for (std::size_t i = 0; i < c.rule.size(); ++i)
      EXPECT_EQ(sym[0].perm[i], i) << "the identity comes first";
    bool any_swap = false, any_flip = false;
    for (const RuleSymmetry& r : sym) {
      any_swap |= swaps_xy(r);
      any_flip |= flips_z(r);
      std::vector<bool> hit(c.rule.size(), false);
      for (std::size_t i = 0; i < c.rule.size(); ++i) {
        const std::uint32_t j = r.perm[i];
        ASSERT_LT(j, c.rule.size());
        EXPECT_FALSE(hit[j]);
        hit[j] = true;
        const Vec3 d = r.apply(c.rule.points[i]) - c.rule.points[j];
        EXPECT_LT(d.norm(), 1e-12);
        EXPECT_NEAR(c.rule.weights[i], c.rule.weights[j], 1e-15);
      }
    }
    EXPECT_EQ(any_swap, c.any_swap_xy) << c.rule.name;
    EXPECT_EQ(any_flip, c.any_flip_z) << c.rule.name;
  }
  // The Fibonacci spiral has no symmetry but the identity.
  EXPECT_EQ(symmetries(fibonacci_rule(40, 5)).size(), 1u);
}

TEST(SphereRuleTest, InvalidArgumentsThrow) {
  EXPECT_THROW(product_rule(0, 5), std::invalid_argument);
  EXPECT_THROW(fibonacci_rule(0, 3), std::invalid_argument);
  EXPECT_THROW(rule_for_order(-1), std::invalid_argument);
  EXPECT_THROW(gauss_legendre(0), std::invalid_argument);
}

}  // namespace
}  // namespace hfmm::quadrature
