// Tests for Anderson's computational elements: the Poisson-formula kernels,
// outer/inner sphere approximations, gradients, the three translation
// operators as matrices, and the leaf operations P2M/L2P.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/anderson/translations.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::anderson {
namespace {

Params test_params() {
  Params p = params_for_order(5);
  return p;
}

// Potential at x due to unit charges at given positions.
double direct_potential(const std::vector<Vec3>& charges, const Vec3& x) {
  double phi = 0;
  for (const Vec3& c : charges) phi += 1.0 / (x - c).norm();
  return phi;
}

// Samples the exact potential of `charges` on a sphere (center, a).
std::vector<double> sample_on_sphere(const Params& p, const Vec3& center,
                                     double a,
                                     const std::vector<Vec3>& charges) {
  std::vector<double> g(p.k(), 0.0);
  for (std::size_t i = 0; i < p.k(); ++i)
    g[i] = direct_potential(charges, center + a * p.rule.points[i]);
  return g;
}

TEST(KernelTest, OuterMonopoleIsExact) {
  // Constant boundary values q/a represent a point charge q at the centre;
  // the n = 0 term must reproduce q/r exactly for any truncation.
  const Params p = test_params();
  const double a = 0.7, q = 2.5;
  std::vector<double> g(p.k(), q / a);
  for (const Vec3& x : {Vec3{2, 0, 0}, Vec3{1, 1, 1}, Vec3{-3, 0.5, 2}}) {
    const double phi =
        evaluate_outer(p.rule, p.truncation, a, Vec3{0, 0, 0}, g, x);
    EXPECT_NEAR(phi, q / x.norm(), 1e-12 * q);
  }
}

TEST(KernelTest, InnerConstantIsExact) {
  // Constant boundary values represent a constant interior potential.
  const Params p = test_params();
  std::vector<double> g(p.k(), 3.25);
  for (const Vec3& x : {Vec3{0, 0, 0}, Vec3{0.1, 0.2, -0.1}, Vec3{0.3, 0, 0}}) {
    const double phi =
        evaluate_inner(p.rule, p.truncation, 0.8, Vec3{0, 0, 0}, g, x);
    EXPECT_NEAR(phi, 3.25, 1e-12);
  }
}

TEST(KernelTest, OuterApproximationConvergesWithOrder) {
  // A cluster of charges in the unit box, evaluated 3 box-sides away: the
  // error must fall sharply as the integration order grows (Table 2).
  Xoshiro256 rng(5);
  std::vector<Vec3> charges;
  for (int i = 0; i < 20; ++i)
    charges.push_back(
        {rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
  const Vec3 x{3.0, 0.4, -0.2};
  const double exact = direct_potential(charges, x);
  double prev_err = 1.0;
  for (const int order : {3, 5, 9, 14}) {
    Params p = params_for_order(order);
    const double a = p.outer_ratio;
    const auto g = sample_on_sphere(p, Vec3{0, 0, 0}, a, charges);
    const double approx =
        evaluate_outer(p.rule, p.truncation, a, Vec3{0, 0, 0}, g, x);
    const double err = std::abs(approx - exact) / std::abs(exact);
    EXPECT_LT(err, prev_err * 1.05) << "order " << order;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);  // D = 14 gives ~7 digits
}

TEST(KernelTest, InnerApproximationRepresentsFarSources) {
  // Sources 3 sides away; the inner approximation on a sphere of radius 1.4
  // must reproduce the potential near the centre.
  const Params p = params_for_order(9);
  const std::vector<Vec3> charges{{3.0, 0.1, 0}, {-3.2, 0, 0.4}, {0, 3.1, -1}};
  const double a = p.inner_ratio;
  const auto g = sample_on_sphere(p, Vec3{0, 0, 0}, a, charges);
  for (const Vec3& x :
       {Vec3{0, 0, 0}, Vec3{0.2, -0.3, 0.1}, Vec3{0.4, 0.4, 0.4}}) {
    const double exact = direct_potential(charges, x);
    const double approx =
        evaluate_inner(p.rule, p.truncation, a, Vec3{0, 0, 0}, g, x);
    EXPECT_NEAR(approx, exact, 1e-4 * std::abs(exact));
  }
}

TEST(KernelTest, InnerGradientMatchesFiniteDifference) {
  const Params p = params_for_order(9);
  const std::vector<Vec3> charges{{2.8, 0.5, 0.1}, {-3.0, 0.2, 0.9}};
  const double a = p.inner_ratio;
  const auto g = sample_on_sphere(p, Vec3{0, 0, 0}, a, charges);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Vec3 x{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                 rng.uniform(-0.4, 0.4)};
    const Vec3 grad =
        evaluate_inner_gradient(p.rule, p.truncation, a, {0, 0, 0}, g, x);
    const double eps = 1e-6;
    for (int c = 0; c < 3; ++c) {
      Vec3 hi = x, lo = x;
      hi[c] += eps;
      lo[c] -= eps;
      const double fd =
          (evaluate_inner(p.rule, p.truncation, a, {0, 0, 0}, g, hi) -
           evaluate_inner(p.rule, p.truncation, a, {0, 0, 0}, g, lo)) /
          (2 * eps);
      EXPECT_NEAR(grad[c], fd, 1e-5 * (1.0 + std::abs(fd)));
    }
  }
}

TEST(KernelTest, InnerGradientAtCenterIsFinite) {
  const Params p = test_params();
  std::vector<double> g(p.k(), 0.0);
  g[0] = 1.0;  // arbitrary non-symmetric boundary data
  const Vec3 grad = evaluate_inner_gradient(p.rule, p.truncation, 1.0,
                                            {0, 0, 0}, g, {0, 0, 0});
  EXPECT_TRUE(std::isfinite(grad.x));
  EXPECT_TRUE(std::isfinite(grad.y));
  EXPECT_TRUE(std::isfinite(grad.z));
}

TEST(TranslationTest, MatrixEqualsDirectEvaluation) {
  // Applying the T2 matrix to boundary values must equal evaluating the
  // outer approximation at the destination sphere points (Figure 2).
  const Params p = test_params();
  const std::size_t k = p.k();
  const Vec3 dst_minus_src{-3.0, 1.0, 0.0};
  const TranslationMatrix t =
      build_outer_to_points(p, p.outer_ratio, p.inner_ratio, dst_minus_src);
  Xoshiro256 rng(17);
  std::vector<double> g(k);
  for (double& v : g) v = rng.uniform(-1, 1);
  for (std::size_t j = 0; j < k; ++j) {
    double expect = 0;
    const Vec3 pt = dst_minus_src + p.inner_ratio * p.rule.points[j];
    for (std::size_t i = 0; i < k; ++i)
      expect += outer_kernel(p.truncation, p.outer_ratio, p.rule.points[i],
                             pt) *
                g[i] * p.rule.weights[i];
    double got = 0;
    for (std::size_t i = 0; i < k; ++i) got += t.m[j * k + i] * g[i];
    EXPECT_NEAR(got, expect, 1e-12);
  }
}

TEST(TranslationTest, T1PreservesFarPotential) {
  // Child outer -> parent outer must still reproduce the charge cluster's
  // potential far away.
  const Params p = params_for_order(9);
  const TranslationSet ts(p, 2);
  Xoshiro256 rng(23);
  // Charges inside child octant 0 of a unit parent box: child side 0.5,
  // centred at (-0.25, -0.25, -0.25).
  const Vec3 child_center{-0.25, -0.25, -0.25};
  std::vector<Vec3> charges;
  for (int i = 0; i < 15; ++i)
    charges.push_back(child_center + Vec3{rng.uniform(-0.24, 0.24),
                                          rng.uniform(-0.24, 0.24),
                                          rng.uniform(-0.24, 0.24)});
  // Child outer approximation (child side = 0.5).
  const double a_child = p.outer_ratio * 0.5;
  Params pc = p;
  const auto g_child = sample_on_sphere(pc, child_center, a_child, charges);
  // Parent outer via T1 (geometry in child-side units, so matrices apply
  // unchanged at any scale).
  const std::size_t k = p.k();
  std::vector<double> g_parent(k, 0.0);
  const TranslationMatrix& t1 = ts.t1(0);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < k; ++i)
      g_parent[j] += t1.m[j * k + i] * g_child[i];
  // Evaluate both at a far point.
  const Vec3 x{4.0, 1.0, -2.0};
  const double exact = direct_potential(charges, x);
  const double a_parent = p.outer_ratio * 1.0;  // parent side 1
  const double via_parent =
      evaluate_outer(p.rule, p.truncation, a_parent, Vec3{0, 0, 0}, g_parent,
                     x);
  EXPECT_NEAR(via_parent, exact, 2e-4 * std::abs(exact));
}

TEST(TranslationTest, T3ShiftsLocalField) {
  // Parent inner field -> child inner field, checked at a point inside the
  // child.
  const Params p = params_for_order(9);
  const TranslationSet ts(p, 2);
  const std::vector<Vec3> charges{{4.0, 0.3, 0}, {0, -3.8, 1.0}};
  // Parent box side 1 centred at origin; child octant 7 centre (+.25,...).
  const double a_parent = p.inner_ratio * 1.0;
  const auto g_parent = sample_on_sphere(p, {0, 0, 0}, a_parent, charges);
  const std::size_t k = p.k();
  std::vector<double> g_child(k, 0.0);
  const TranslationMatrix& t3 = ts.t3(7);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < k; ++i)
      g_child[j] += t3.m[j * k + i] * g_parent[i];
  const Vec3 child_center{0.25, 0.25, 0.25};
  const double a_child = p.inner_ratio * 0.5;
  for (const Vec3& x : {child_center, child_center + Vec3{0.1, -0.1, 0.05}}) {
    const double exact = direct_potential(charges, x);
    const double approx =
        evaluate_inner(p.rule, p.truncation, a_child, child_center, g_child, x);
    EXPECT_NEAR(approx, exact, 5e-4 * std::abs(exact));
  }
}

TEST(TranslationTest, T2ConvertsOuterToInner) {
  // Source box with charges at offset (3,0,0); the T2 matrix must produce an
  // inner approximation reproducing their potential at the target centre.
  const Params p = params_for_order(9);
  const TranslationSet ts(p, 2);
  Xoshiro256 rng(29);
  const Vec3 src_center{3, 0, 0};
  std::vector<Vec3> charges;
  for (int i = 0; i < 10; ++i)
    charges.push_back(src_center + Vec3{rng.uniform(-0.5, 0.5),
                                        rng.uniform(-0.5, 0.5),
                                        rng.uniform(-0.5, 0.5)});
  const auto g_src =
      sample_on_sphere(p, src_center, p.outer_ratio, charges);
  const std::size_t k = p.k();
  std::vector<double> g_dst(k, 0.0);
  const TranslationMatrix& t2 = ts.t2({3, 0, 0});
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < k; ++i)
      g_dst[j] += t2.m[j * k + i] * g_src[i];
  for (const Vec3& x : {Vec3{0, 0, 0}, Vec3{0.3, 0.2, -0.4}}) {
    const double exact = direct_potential(charges, x);
    const double approx =
        evaluate_inner(p.rule, p.truncation, p.inner_ratio, {0, 0, 0}, g_dst,
                       x);
    EXPECT_NEAR(approx, exact, 1e-3 * std::abs(exact));
  }
}

TEST(TranslationTest, SetHasPaperMatrixCounts) {
  const Params p = test_params();
  const TranslationSet ts(p, 2);
  EXPECT_EQ(ts.t2_count(), 1331u);  // the paper's 11^3 for ease of indexing
  // Memory: 1331 K^2 doubles ~ 1.53 MB at K = 12 (paper Section 3.3.4) plus
  // T1/T3 and supernode matrices.
  EXPECT_GT(ts.resident_bytes(), 1331u * 12 * 12 * 8);
}

TEST(TranslationTest, BuildersReproduceStoredMatrices) {
  const Params p = test_params();
  const TranslationSet ts(p, 2);
  std::vector<double> buf(p.k() * p.k());
  ts.build_t1_into(3, buf);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_DOUBLE_EQ(buf[i], ts.t1(3).m[i]);
  const std::size_t idx = tree::offset_cube_index({4, -2, 1}, 2);
  ts.build_t2_into(idx, buf);
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_DOUBLE_EQ(buf[i], ts.t2({4, -2, 1}).m[i]);
}

// Counts the entries of `g`'s matrix, in either orientation, whose bits
// differ from w_i * outer_kernel(...) or w_i * inner_kernel(...) evaluated
// one entry at a time.
std::size_t entries_off_the_kernel(const Params& p,
                                   const TranslationGeometry& g) {
  const std::size_t k = p.k();
  std::vector<double> t(k * k), tt(k * k);
  build_translation_into(p, g, /*transposed=*/false, t);
  build_translation_into(p, g, /*transposed=*/true, tt);
  std::size_t differ = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const Vec3 x_rel = g.dst_minus_src + g.a_dst * p.rule.points[j];
    for (std::size_t i = 0; i < k; ++i) {
      const Vec3& s = p.rule.points[i];
      const double want =
          (g.src_is_outer ? outer_kernel(p.truncation, g.a_src, s, x_rel)
                          : inner_kernel(p.truncation, g.a_src, s, x_rel)) *
          p.rule.weights[i];
      if (std::memcmp(&t[j * k + i], &want, sizeof want) != 0) ++differ;
      if (std::memcmp(&tt[i * k + j], &want, sizeof want) != 0) ++differ;
    }
  }
  return differ;
}

TEST(TranslationTest, RowBuilderMatchesKernelBitwise) {
  // K = 12, K = 72, and a truncation-0 series (K = 12, M = 0).
  for (const Params& p :
       {params_d5_k12(), params_d14_k72(), params_for_order(1)}) {
    SCOPED_TRACE("K = " + std::to_string(p.k()) +
                 ", M = " + std::to_string(p.truncation));
    std::vector<std::pair<std::string, TranslationGeometry>> cases;
    for (int o = 0; o < 8; ++o) {
      cases.emplace_back("T1 octant " + std::to_string(o), t1_geometry(p, o));
      cases.emplace_back("T3 octant " + std::to_string(o), t3_geometry(p, o));
    }
    // The nearest and farthest interactive offsets of separation 2.
    for (const tree::Offset& o : {tree::Offset{3, 0, 0}, tree::Offset{0, -3, 0},
                                  tree::Offset{-3, 3, -3},
                                  tree::Offset{5, 5, 5},
                                  tree::Offset{-5, -5, -5}})
      cases.emplace_back("T2 (" + std::to_string(o.dx) + ", " +
                             std::to_string(o.dy) + ", " +
                             std::to_string(o.dz) + ")",
                         t2_geometry(p, o));
    for (const int o : {0, 5, 7}) {
      std::vector<tree::Offset> parent_offsets;
      for (const tree::SupernodeEntry& e : tree::supernode_interactive(o, 2))
        if (e.source_level_up == 1) parent_offsets.push_back(e.offset);
      ASSERT_GE(parent_offsets.size(), 3u);
      for (const std::size_t e :
           {std::size_t{0}, parent_offsets.size() / 2,
            parent_offsets.size() - 1})
        cases.emplace_back(
            "supernode octant " + std::to_string(o) + " entry " +
                std::to_string(e),
            supernode_geometry(p, o, parent_offsets[e]));
    }
    // Inner sources whose destination points sit on the source centre take
    // inner_kernel's r = 0 branch: destination point 0 alone (its x_rel is
    // an exact zero; the other rows run the series), then every point.
    const TranslationGeometry one_on_centre{false, 2.0, 1.0,
                                            -p.rule.points[0]};
    ASSERT_EQ((one_on_centre.dst_minus_src + p.rule.points[0]).norm(), 0.0);
    cases.emplace_back("inner, destination point 0 on the centre",
                       one_on_centre);
    cases.emplace_back("inner, every destination point on the centre",
                       TranslationGeometry{false, 2.0, 0.0, {0, 0, 0}});
    for (const auto& [what, g] : cases)
      EXPECT_EQ(entries_off_the_kernel(p, g), 0u) << what;
  }
}

TEST(LeafOpsTest, P2mThenOuterEvalApproximatesDirect) {
  const Params p = params_for_order(9);
  Xoshiro256 rng(31);
  const std::size_t n = 25;
  std::vector<double> px(n), py(n), pz(n), pq(n);
  std::vector<Vec3> charges;
  for (std::size_t i = 0; i < n; ++i) {
    px[i] = rng.uniform(-0.5, 0.5);
    py[i] = rng.uniform(-0.5, 0.5);
    pz[i] = rng.uniform(-0.5, 0.5);
    pq[i] = 1.0;
    charges.push_back({px[i], py[i], pz[i]});
  }
  std::vector<double> g(p.k(), 0.0);
  p2m(p, p.outer_ratio, {0, 0, 0}, px, py, pz, pq, g);
  const Vec3 x{3.5, -1.0, 0.7};
  const double approx =
      evaluate_outer(p.rule, p.truncation, p.outer_ratio, {0, 0, 0}, g, x);
  EXPECT_NEAR(approx, direct_potential(charges, x),
              1e-4 * direct_potential(charges, x));
}

TEST(LeafOpsTest, L2pMatchesPointEvaluation) {
  const Params p = test_params();
  Xoshiro256 rng(37);
  std::vector<double> g(p.k());
  for (double& v : g) v = rng.uniform(-1, 1);
  const double a = 1.1;
  const Vec3 center{0.5, 0.5, 0.5};
  const std::vector<double> px{0.4, 0.6}, py{0.5, 0.45}, pz{0.55, 0.5};
  std::vector<double> phi(2, 0.0);
  l2p(p, a, center, g, px, py, pz, phi);
  for (int i = 0; i < 2; ++i)
    EXPECT_NEAR(phi[i],
                evaluate_inner(p.rule, p.truncation, a, center, g,
                               {px[i], py[i], pz[i]}),
                1e-13);
}

TEST(LeafOpsTest, L2pGradientAccumulates) {
  const Params p = test_params();
  std::vector<double> g(p.k(), 1.0);
  const std::vector<double> px{0.1}, py{0.0}, pz{0.0};
  std::vector<double> phi(1, 5.0);
  std::vector<Vec3> grad(1, Vec3{1, 1, 1});
  l2p_gradient(p, 1.0, {0, 0, 0}, g, px, py, pz, phi, grad);
  // Constant boundary data: potential += 1, gradient += 0.
  EXPECT_NEAR(phi[0], 6.0, 1e-12);
  EXPECT_NEAR(grad[0].x, 1.0, 1e-10);
}

TEST(ParamsTest, ValidationCatchesBadValues) {
  Params p = test_params();
  p.truncation = -1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.outer_ratio = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.rule.points.clear();
  p.rule.weights.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ParamsTest, HeadlineConfigurations) {
  const Params d5 = params_d5_k12();
  EXPECT_EQ(d5.k(), 12u);
  EXPECT_EQ(d5.truncation, 2);
  const Params d14 = params_d14_k72();
  EXPECT_EQ(d14.k(), 72u);
  EXPECT_EQ(d14.order, 14);
}

}  // namespace
}  // namespace hfmm::anderson
