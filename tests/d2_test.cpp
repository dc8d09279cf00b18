// Tests for the 2-D variant of Anderson's method (paper Section 2.4): the
// circle rule, the log-potential Poisson kernels with the explicit monopole
// channel, the quadtree interaction lists, and the full 2-D solver against
// direct summation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <set>

#include "hfmm/d2/circle_rule.hpp"
#include "hfmm/d2/kernels.hpp"
#include "hfmm/d2/solver.hpp"
#include "hfmm/d2/tree.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::d2 {
namespace {

double direct_phi(const std::vector<Point2>& charges, const Point2& x) {
  double phi = 0.0;
  for (const Point2& c : charges) phi += std::log(1.0 / (x - c).norm());
  return phi;
}

std::vector<double> sample_circle(const CircleRule& rule, const Point2& c,
                                  double a,
                                  const std::vector<Point2>& charges) {
  std::vector<double> g(rule.size());
  for (std::size_t i = 0; i < rule.size(); ++i)
    g[i] = direct_phi(charges,
                      {c.x + a * rule.points[i].x, c.y + a * rule.points[i].y});
  return g;
}

TEST(CircleRuleTest, PointsAndExactness) {
  const CircleRule r = circle_rule(16);
  EXPECT_EQ(r.size(), 16u);
  EXPECT_EQ(r.degree, 15);
  EXPECT_NEAR(r.weight * 16, 1.0, 1e-15);
  // Exact integration of cos(n theta) for 1 <= n < K.
  for (int n = 1; n < 16; ++n) {
    double sum = 0;
    for (const auto& pt : r.points) sum += r.weight * std::cos(n * pt.theta);
    EXPECT_NEAR(sum, 0.0, 1e-13) << "n=" << n;
  }
}

TEST(Kernel2Test, OuterMonopoleExact) {
  // A point charge at the centre: boundary values log(1/a), monopole 1.
  const CircleRule rule = circle_rule(16);
  const double a = 0.9;
  std::vector<double> g(rule.size(), std::log(1.0 / a));
  for (const Point2 x : {Point2{3, 0}, Point2{-2, 2}, Point2{0.5, -4}}) {
    const double phi = evaluate_outer(rule, 7, a, {0, 0}, g, 1.0, x);
    EXPECT_NEAR(phi, std::log(1.0 / x.norm()), 1e-12);
  }
}

TEST(Kernel2Test, InnerConstantExact) {
  const CircleRule rule = circle_rule(12);
  std::vector<double> g(rule.size(), 2.5);
  for (const Point2 x : {Point2{0, 0}, Point2{0.3, -0.2}}) {
    EXPECT_NEAR(evaluate_inner(rule, 5, 0.8, {0, 0}, g, x), 2.5, 1e-12);
  }
}

TEST(Kernel2Test, OuterApproximatesOffCentreCluster) {
  Xoshiro256 rng(3);
  std::vector<Point2> charges;
  for (int i = 0; i < 12; ++i)
    charges.push_back({rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)});
  const CircleRule rule = circle_rule(24);
  const double a = 1.3;
  const auto g = sample_circle(rule, {0, 0}, a, charges);
  const Point2 x{3.2, -1.1};
  const double approx =
      evaluate_outer(rule, 11, a, {0, 0}, g, static_cast<double>(charges.size()), x);
  EXPECT_NEAR(approx, direct_phi(charges, x),
              1e-7 * std::abs(direct_phi(charges, x)) + 1e-9);
}

TEST(Kernel2Test, InnerRepresentsFarSources) {
  const std::vector<Point2> charges{{3.1, 0.2}, {-3.4, 1.0}, {0.3, 3.3}};
  const CircleRule rule = circle_rule(24);
  const double a = 1.3;
  const auto g = sample_circle(rule, {0, 0}, a, charges);
  for (const Point2 x : {Point2{0, 0}, Point2{0.4, -0.3}}) {
    EXPECT_NEAR(evaluate_inner(rule, 11, a, {0, 0}, g, x),
                direct_phi(charges, x), 1e-6);
  }
}

TEST(Kernel2Test, InnerGradientMatchesFiniteDifference) {
  const std::vector<Point2> charges{{2.9, -0.4}, {-3.0, 0.8}};
  const CircleRule rule = circle_rule(20);
  const double a = 1.2;
  const auto g = sample_circle(rule, {0, 0}, a, charges);
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const Point2 x{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)};
    const Point2 grad = evaluate_inner_gradient(rule, 9, a, {0, 0}, g, x);
    const double eps = 1e-6;
    const double fdx = (evaluate_inner(rule, 9, a, {0, 0}, g,
                                       {x.x + eps, x.y}) -
                        evaluate_inner(rule, 9, a, {0, 0}, g,
                                       {x.x - eps, x.y})) /
                       (2 * eps);
    const double fdy = (evaluate_inner(rule, 9, a, {0, 0}, g,
                                       {x.x, x.y + eps}) -
                        evaluate_inner(rule, 9, a, {0, 0}, g,
                                       {x.x, x.y - eps})) /
                       (2 * eps);
    EXPECT_NEAR(grad.x, fdx, 1e-5 * (1 + std::abs(fdx)));
    EXPECT_NEAR(grad.y, fdy, 1e-5 * (1 + std::abs(fdy)));
  }
}

TEST(Tree2Test, InteractionListCounts) {
  // 2-D identities: near (2d+1)^2; interactive 3(2d+1)^2; union
  // (4d+3)^2 - (2d+1)^2; supernodes 16 + 11 = 27.
  EXPECT_EQ(near_offsets2(2).size(), 25u);
  EXPECT_EQ(near_half_offsets2(2).size(), 12u);
  EXPECT_EQ(interactive_offsets2(0, 2).size(), 75u);
  EXPECT_EQ(interactive_offsets2(0, 1).size(), 27u);
  EXPECT_EQ(sibling_union_offsets2(2).size(), 96u);
  EXPECT_EQ(offset_square_size(2), 121u);
  for (int q = 0; q < 4; ++q) {
    const auto sn = supernode_interactive2(q, 2);
    EXPECT_EQ(sn.size(), 27u);
    std::size_t parents = 0;
    for (const auto& e : sn)
      if (e.source_level_up == 1) ++parents;
    EXPECT_EQ(parents, 16u);
  }
}

TEST(Tree2Test, SupernodeFlatteningRecoversInteractive) {
  for (int q = 0; q < 4; ++q) {
    const int px = q & 1, py = (q >> 1) & 1;
    std::set<std::pair<int, int>> flat;
    for (const auto& e : supernode_interactive2(q, 2)) {
      if (e.source_level_up == 0) {
        flat.insert({e.offset.dx, e.offset.dy});
      } else {
        for (int by = 0; by <= 1; ++by)
          for (int bx = 0; bx <= 1; ++bx)
            flat.insert(
                {2 * e.offset.dx + bx - px, 2 * e.offset.dy + by - py});
      }
    }
    std::set<std::pair<int, int>> expect;
    for (const Offset2& o : interactive_offsets2(q, 2))
      expect.insert({o.dx, o.dy});
    EXPECT_EQ(flat, expect) << "quadrant " << q;
  }
}

TEST(Tree2Test, QuadtreeIndexing) {
  const Quadtree t({0, 0}, 1.0, 3);
  EXPECT_EQ(t.boxes_at(3), 64u);
  for (std::size_t f = 0; f < 64; ++f)
    EXPECT_EQ(t.flat_index(3, t.coord_of(3, f)), f);
  for (int q = 0; q < 4; ++q) {
    const BoxCoord2 parent{2, 3};
    const BoxCoord2 child = Quadtree::child_of(parent, q);
    EXPECT_EQ(Quadtree::parent_of(child), parent);
    EXPECT_EQ(Quadtree::quadrant_of(child), q);
  }
}

class Solver2Accuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Solver2Accuracy, MatchesDirectSummation) {
  const std::size_t k = GetParam();
  Fmm2Config cfg;
  cfg.k = k;
  cfg.truncation = static_cast<int>((k - 1) / 2);
  cfg.depth = 3;
  const ParticleSet2 p = make_uniform2(1500, 91);
  FmmSolver2 solver(cfg);
  const Fmm2Result r = solver.solve(p);
  const Direct2Result d = direct_all2(p, false);
  const ErrorNorms e = compare_fields(r.phi, d.phi);
  // Higher K converges geometrically (2-D analogue of Table 2).
  const double bound = k <= 8 ? 2e-2 : (k <= 16 ? 2e-4 : 3e-6);
  EXPECT_LT(e.rel_to_mean, bound) << "K = " << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, Solver2Accuracy,
                         ::testing::Values(8u, 16u, 24u, 32u));

TEST(Solver2Test, SupernodesCloseToPlain) {
  const ParticleSet2 p = make_uniform2(2000, 92);
  Fmm2Config plain;
  plain.depth = 3;
  Fmm2Config super = plain;
  super.supernodes = true;
  const Fmm2Result rp = FmmSolver2(plain).solve(p);
  const Fmm2Result rs = FmmSolver2(super).solve(p);
  const Direct2Result d = direct_all2(p, false);
  EXPECT_LT(compare_fields(rp.phi, d.phi).rel_to_mean, 2e-4);
  EXPECT_LT(compare_fields(rs.phi, d.phi).rel_to_mean, 1e-3);
}

TEST(Solver2Test, GradientMatchesDirect) {
  const ParticleSet2 p = make_uniform2(1200, 93);
  Fmm2Config cfg;
  cfg.depth = 3;
  cfg.with_gradient = true;
  const Fmm2Result r = FmmSolver2(cfg).solve(p);
  const Direct2Result d = direct_all2(p, true);
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double dx = r.grad[i].x - d.grad[i].x;
    const double dy = r.grad[i].y - d.grad[i].y;
    worst = std::max(worst, std::hypot(dx, dy));
    scale += std::hypot(d.grad[i].x, d.grad[i].y);
  }
  EXPECT_LT(worst, 0.05 * scale / static_cast<double>(p.size()));
}

TEST(Solver2Test, NeutralPlasma) {
  const ParticleSet2 p = make_plasma2(1500, 94);
  Fmm2Config cfg;
  cfg.depth = 3;
  const Fmm2Result r = FmmSolver2(cfg).solve(p);
  const Direct2Result d = direct_all2(p, false);
  EXPECT_LT(compare_fields(r.phi, d.phi).rel_to_mean, 1e-2);
}

TEST(Solver2Test, ChargeLinearity) {
  ParticleSet2 p = make_uniform2(800, 95);
  Fmm2Config cfg;
  cfg.depth = 3;
  FmmSolver2 solver(cfg);
  const Fmm2Result r1 = solver.solve(p);
  for (double& q : p.q) q *= 2.0;
  const Fmm2Result r2 = solver.solve(p);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_NEAR(r2.phi[i], 2.0 * r1.phi[i], 1e-9 * (1 + std::abs(r1.phi[i])));
}

TEST(Solver2Test, DepthConsistency) {
  const ParticleSet2 p = make_uniform2(2000, 96);
  std::vector<std::vector<double>> phis;
  for (int depth : {2, 3}) {
    Fmm2Config cfg;
    cfg.depth = depth;
    phis.push_back(FmmSolver2(cfg).solve(p).phi);
  }
  EXPECT_LT(compare_fields(phis[1], phis[0]).rel_to_mean, 1e-3);
}

TEST(Solver2Test, SequentialAndThreadsAgree) {
  const ParticleSet2 p = make_uniform2(900, 97);
  Fmm2Config cfg;
  cfg.depth = 3;
  Fmm2Config cfg_seq = cfg;
  cfg_seq.threads = false;
  const Fmm2Result rt = FmmSolver2(cfg).solve(p);
  const Fmm2Result rs = FmmSolver2(cfg_seq).solve(p);
  EXPECT_LT(compare_fields(rt.phi, rs.phi).max_rel, 1e-11);
}

TEST(Solver2Test, ConfigValidation) {
  Fmm2Config cfg;
  cfg.k = 2;
  EXPECT_THROW(FmmSolver2{cfg}, std::invalid_argument);
  cfg = Fmm2Config{};
  cfg.truncation = 100;
  EXPECT_THROW(FmmSolver2{cfg}, std::invalid_argument);
  cfg = Fmm2Config{};
  cfg.supernodes = true;
  cfg.separation = 1;
  EXPECT_THROW(FmmSolver2{cfg}, std::invalid_argument);
  // Depth is capped so the 4^h leaf flats fit the uint32 leaf CSR; a NaN
  // occupancy would otherwise fall through to depth 2.
  for (const int depth : {kMaxDepth2 + 1, 40}) {
    cfg = Fmm2Config{};
    cfg.depth = depth;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << depth;
  }
  cfg = Fmm2Config{};
  cfg.depth = kMaxDepth2;
  EXPECT_NO_THROW(cfg.validate());
  for (const double occ : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    cfg = Fmm2Config{};
    cfg.particles_per_leaf = occ;
    EXPECT_THROW(FmmSolver2{cfg}, std::invalid_argument) << occ;
  }
}

TEST(Tree2Test, OptimalDepthStopsAtTheCap) {
  EXPECT_EQ(kMaxDepth2, 15);
  EXPECT_EQ(optimal_depth2(1000000, 1e-6), kMaxDepth2);
  EXPECT_EQ(optimal_depth2(1000000, 16.0), 7);
  EXPECT_THROW(optimal_depth2(1000, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(optimal_depth2(1000, 0.0), std::invalid_argument);
}

TEST(Solver2Test, EmptyInput) {
  Fmm2Config cfg;
  const Fmm2Result r = FmmSolver2(cfg).solve(ParticleSet2{});
  EXPECT_TRUE(r.phi.empty());
}

}  // namespace
}  // namespace hfmm::d2
