// Van der Waals (switched Lennard-Jones) kernel tests.
//
// Three layers, mirroring pkern_test.cpp for the backend fixtures:
//   * golden-value: every dispatchable backend's p2p_vdw /
//     p2p_vdw_symmetric against an independently written scalar reference
//     (CHARMM Rmin/eps convention, cuton/cutoff switching), including
//     boundary placements at the switching radii, mixed type tables, and
//     minimum-image pairs straddling the periodic box faces;
//   * bitwise: portable and AVX2 backends must agree to the last bit on
//     identical inputs (the contract that makes runtime dispatch
//     reproducible);
//   * end-to-end: FmmSolver with a short-range KernelSpec against an O(N^2)
//     brute force on >= 2 distributions plus a periodic minimum-image case,
//     empty far-field phases, warm-solve zero-alloc, and seq == threads;
//   * cutoff geometry: the plan's near list cut to the cutoff, pairs just
//     inside it across a kept box pair, solves whose cutoff is below the
//     leaf side, and the depth the cutoff sets.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/rng.hpp"
#include "solver_internal.hpp"

namespace hfmm {
namespace {

constexpr double kTol = 1e-12;

// Pair tables + derived constants from per-type Rmin/eps via the CHARMM
// combining rules (arithmetic-mean Rmin, geometric-mean eps). Deliberately
// re-derived here rather than reusing the solver's builder.
struct VdwTable {
  std::vector<double> rmin2, eps;
  pkern::VdwParams p{};

  VdwTable(std::vector<double> rmin, std::vector<double> epsv, double cuton,
           double cutoff, double period = 0.0) {
    const std::size_t nt = rmin.size();
    rmin2.resize(nt * nt);
    eps.resize(nt * nt);
    for (std::size_t i = 0; i < nt; ++i)
      for (std::size_t j = 0; j < nt; ++j) {
        const double rm = 0.5 * (rmin[i] + rmin[j]);
        rmin2[i * nt + j] = rm * rm;
        eps[i * nt + j] = std::sqrt(epsv[i] * epsv[j]);
      }
    p.rmin2 = rmin2.data();
    p.eps = eps.data();
    p.ntypes = nt;
    p.cuton2 = cuton * cuton;
    p.cutoff2 = cutoff * cutoff;
    p.cm3o = p.cutoff2 - 3.0 * p.cuton2;
    const double denom = p.cutoff2 - p.cuton2;
    p.inv_denom = 1.0 / (denom * denom * denom);
    p.inv_denom6 = 6.0 * p.inv_denom;
    p.period = period;
    p.inv_period = period > 0.0 ? 1.0 / period : 0.0;
  }
};

double min_image(double d, double period) {
  return period > 0.0 ? d - period * std::nearbyint(d / period) : d;
}

// Scalar reference for one pair: switched LJ energy and the gradient
// coefficient c2 = 2 dE/d(r^2) (grad_target += c2 * (target - source)).
// Returns false beyond the cutoff (exactly zero contribution).
bool ref_pair(double r2, double rm2, double e, const pkern::VdwParams& vp,
              double& energy, double& c2) {
  if (!(r2 < vp.cutoff2)) return false;
  const double x2 = rm2 / r2;
  const double x6 = x2 * x2 * x2;
  const double x12 = x6 * x6;
  energy = e * (x12 - 2.0 * x6);
  double g = -6.0 * e * (x12 - x6) / r2;
  if (r2 > vp.cuton2) {
    const double cmr = vp.cutoff2 - r2;
    const double s = cmr * cmr * (vp.cutoff2 + 2.0 * r2 - 3.0 * vp.cuton2) *
                     vp.inv_denom;
    const double ds = 6.0 * cmr * (vp.cuton2 - r2) * vp.inv_denom;
    g = g * s + energy * ds;
    energy *= s;
  }
  c2 = 2.0 * g;
  return true;
}

// Reference evaluation of targets [tb, te) against sources [sb, se),
// skipping self pairs; also accumulates magnitude scales for tolerances.
void ref_ranges(const ParticleSet& ps, const std::vector<std::int32_t>& type,
                const VdwTable& t, std::size_t tb, std::size_t te,
                std::size_t sb, std::size_t se, std::vector<double>& phi,
                std::vector<Vec3>& grad, std::vector<double>& scale) {
  const auto x = ps.x(), y = ps.y(), z = ps.z();
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * t.p.ntypes;
    for (std::size_t j = sb; j < se; ++j) {
      if (j == i) continue;
      const double dx = min_image(x[i] - x[j], t.p.period);
      const double dy = min_image(y[i] - y[j], t.p.period);
      const double dz = min_image(z[i] - z[j], t.p.period);
      const double r2 = dx * dx + dy * dy + dz * dz;
      double e, c2;
      if (!ref_pair(r2, t.rmin2[row + type[j]], t.eps[row + type[j]], t.p, e,
                    c2))
        continue;
      phi[i - tb] += e;
      grad[i - tb].x += c2 * dx;
      grad[i - tb].y += c2 * dy;
      grad[i - tb].z += c2 * dz;
      scale[i - tb] += std::abs(e) + std::abs(c2) *
                                         (std::abs(dx) + std::abs(dy) +
                                          std::abs(dz));
    }
  }
}

ParticleSet typed_uniform(std::size_t n, std::uint64_t seed,
                          std::vector<std::int32_t>& type,
                          std::size_t ntypes) {
  ParticleSet ps = make_uniform(n, Box3{}, seed);
  type.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    type[i] = static_cast<std::int32_t>(i % ntypes);
    ps.set_type(i, type[i]);
  }
  return ps;
}

class VdwBackendTest : public ::testing::TestWithParam<pkern::KernelKind> {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(GetParam()))
      GTEST_SKIP() << "backend unsupported on this CPU";
  }
  const pkern::KernelBackend& kern() const {
    return pkern::kernel_backend(GetParam());
  }
};

void expect_vdw_matches_scalar(const pkern::KernelBackend& kern,
                               std::size_t nt, std::size_t ns,
                               bool with_grad, double period) {
  const VdwTable t({0.11, 0.14, 0.09}, {1.0, 0.55, 0.3}, 0.16, 0.22, period);
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(nt + ns, 91 + nt * 31 + ns, type, 3);
  std::vector<double> phi(nt, 0.0), ref_phi(nt, 0.0), scale(nt, 0.0);
  std::vector<Vec3> grad(nt), ref_grad(nt);
  ref_ranges(ps, type, t, 0, nt, nt, nt + ns, ref_phi, ref_grad, scale);
  kern.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(), 0,
               nt, nt, nt + ns, phi.data(),
               with_grad ? grad.data() : nullptr, t.p);
  for (std::size_t i = 0; i < nt; ++i) {
    const double s = kTol * (scale[i] + 1.0);
    EXPECT_NEAR(phi[i], ref_phi[i], s) << "nt=" << nt << " ns=" << ns;
    if (with_grad) {
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, s);
      EXPECT_NEAR(grad[i].y, ref_grad[i].y, s);
      EXPECT_NEAR(grad[i].z, ref_grad[i].z, s);
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwMatchesScalarAcrossShapes) {
  for (const std::size_t nt : {1u, 3u, 4u, 7u, 64u})
    for (const std::size_t ns : {1u, 2u, 5u, 8u, 63u})
      for (const bool grad : {false, true})
        expect_vdw_matches_scalar(kern(), nt, ns, grad, 0.0);
}

TEST_P(VdwBackendTest, P2pVdwMinimumImageWrap) {
  for (const std::size_t nt : {2u, 5u, 33u})
    expect_vdw_matches_scalar(kern(), nt, 2 * nt + 3, true, 1.0);
}

// Pairs placed exactly at and around the switching radii: below cuton the
// raw LJ applies, between cuton and cutoff the switched value, at and
// beyond the cutoff the contribution must be EXACTLY +0.0.
TEST_P(VdwBackendTest, P2pVdwCutonCutoffBoundaries) {
  const double cuton = 0.16, cutoff = 0.22;
  const VdwTable t({0.1}, {1.0}, cuton, cutoff);
  const double rs[] = {0.05,   cuton - 1e-9, cuton, cuton + 1e-9,
                       0.19,   cutoff - 1e-9, cutoff, cutoff + 1e-9,
                       0.4};
  for (const double r : rs) {
    ParticleSet ps;
    ps.resize(2);
    ps.set(0, Vec3{0.3, 0.3, 0.3}, 0.0);
    ps.set(1, Vec3{0.3 + r, 0.3, 0.3}, 0.0);
    const std::vector<std::int32_t> type{0, 0};
    std::vector<double> phi(1, 0.0);
    std::vector<Vec3> grad(1);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, 1, 1, 2, phi.data(), grad.data(), t.p);
    double e = 0.0, c2 = 0.0;
    const bool in = ref_pair(r * r, t.rmin2[0], t.eps[0], t.p, e, c2);
    if (!in) {
      // Exactly zero, not just small: bit-pattern of +0.0.
      EXPECT_EQ(phi[0], 0.0) << "r=" << r;
      EXPECT_FALSE(std::signbit(phi[0]));
      EXPECT_EQ(grad[0].x, 0.0);
    } else {
      const double s = kTol * (std::abs(e) + std::abs(c2) * r + 1.0);
      EXPECT_NEAR(phi[0], e, s) << "r=" << r;
      EXPECT_NEAR(grad[0].x, c2 * (-r), s) << "r=" << r;
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwIdenticalRangeSkipsSelfPair) {
  const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22);
  for (const std::size_t n : {1u, 2u, 5u, 17u, 64u}) {
    std::vector<std::int32_t> type;
    const ParticleSet ps = typed_uniform(n, 77 + n, type, 2);
    std::vector<double> phi(n, 0.0), ref_phi(n, 0.0), scale(n, 0.0);
    std::vector<Vec3> grad(n), ref_grad(n);
    ref_ranges(ps, type, t, 0, n, 0, n, ref_phi, ref_grad, scale);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, n, 0, n, phi.data(), grad.data(), t.p);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (scale[i] + 1.0));
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, kTol * (scale[i] + 1.0));
    }
  }
}

TEST_P(VdwBackendTest, P2pVdwSymmetricMatchesPlain) {
  for (const std::size_t nt : {1u, 5u, 32u, 65u}) {
    const std::size_t ns = 2 * nt + 1;
    const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22);
    std::vector<std::int32_t> type;
    const ParticleSet ps = typed_uniform(nt + ns, 555 + nt, type, 2);
    // Reference: two one-directional plain evaluations.
    std::vector<double> f_phi(nt, 0.0), r_phi(ns, 0.0);
    std::vector<Vec3> f_grad(nt), r_grad(ns);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   0, nt, nt, nt + ns, f_phi.data(), f_grad.data(), t.p);
    kern().p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                   nt, nt + ns, 0, nt, r_phi.data(), r_grad.data(), t.p);
    std::vector<double> phi(nt + ns, 0.0), gx(nt + ns, 0.0),
        gy(nt + ns, 0.0), gz(nt + ns, 0.0);
    kern().p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                             type.data(), 0, nt, nt, nt + ns, phi.data(),
                             gx.data(), gy.data(), gz.data(), t.p);
    for (std::size_t i = 0; i < nt; ++i) {
      EXPECT_NEAR(phi[i], f_phi[i], kTol * (std::abs(f_phi[i]) + 1.0));
      EXPECT_NEAR(gx[i], f_grad[i].x, kTol * (f_grad[i].norm() + 1.0));
    }
    for (std::size_t j = 0; j < ns; ++j) {
      EXPECT_NEAR(phi[nt + j], r_phi[j], kTol * (std::abs(r_phi[j]) + 1.0));
      EXPECT_NEAR(gx[nt + j], r_grad[j].x, kTol * (r_grad[j].norm() + 1.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, VdwBackendTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2,
                                           pkern::KernelKind::kAvx512));

// --- Bitwise portable == AVX2 (the dispatch-reproducibility contract) ----

class VdwBitwiseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(pkern::KernelKind::kAvx2))
      GTEST_SKIP() << "AVX2 unsupported on this CPU";
  }
};

TEST_F(VdwBitwiseTest, P2pVdwBitwiseAcrossBackends) {
  const auto& por = pkern::kernel_backend(pkern::KernelKind::kPortable);
  const auto& avx = pkern::kernel_backend(pkern::KernelKind::kAvx2);
  for (const double period : {0.0, 1.0}) {
    const VdwTable t({0.11, 0.14, 0.09}, {1.0, 0.55, 0.3}, 0.16, 0.22,
                     period);
    for (const std::size_t n : {1u, 3u, 4u, 7u, 35u, 64u, 129u}) {
      std::vector<std::int32_t> type;
      const ParticleSet ps = typed_uniform(n, 1000 + n, type, 3);
      std::vector<double> phi_a(n, 0.0), phi_b(n, 0.0);
      std::vector<Vec3> grad_a(n), grad_b(n);
      // Identical ranges: exercises the self-split lane phase reset too.
      por.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                  0, n, 0, n, phi_a.data(), grad_a.data(), t.p);
      avx.p2p_vdw(ps.x().data(), ps.y().data(), ps.z().data(), type.data(),
                  0, n, 0, n, phi_b.data(), grad_b.data(), t.p);
      EXPECT_EQ(0, std::memcmp(phi_a.data(), phi_b.data(),
                               n * sizeof(double)))
          << "n=" << n << " period=" << period;
      EXPECT_EQ(0, std::memcmp(grad_a.data(), grad_b.data(),
                               n * sizeof(Vec3)));
    }
  }
}

TEST_F(VdwBitwiseTest, P2pVdwSymmetricBitwiseAcrossBackends) {
  const auto& por = pkern::kernel_backend(pkern::KernelKind::kPortable);
  const auto& avx = pkern::kernel_backend(pkern::KernelKind::kAvx2);
  for (const double period : {0.0, 1.0}) {
    const VdwTable t({0.11, 0.14}, {1.0, 0.4}, 0.16, 0.22, period);
    for (const std::size_t nt : {1u, 4u, 9u, 33u}) {
      const std::size_t ns = 2 * nt + 3;
      std::vector<std::int32_t> type;
      const ParticleSet ps = typed_uniform(nt + ns, 2000 + nt, type, 2);
      std::vector<double> pa(nt + ns, 0.0), pb(nt + ns, 0.0);
      std::vector<double> ax(nt + ns, 0.0), ay(nt + ns, 0.0),
          az(nt + ns, 0.0);
      std::vector<double> bx(nt + ns, 0.0), by(nt + ns, 0.0),
          bz(nt + ns, 0.0);
      por.p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                            type.data(), 0, nt, nt, nt + ns, pa.data(),
                            ax.data(), ay.data(), az.data(), t.p);
      avx.p2p_vdw_symmetric(ps.x().data(), ps.y().data(), ps.z().data(),
                            type.data(), 0, nt, nt, nt + ns, pb.data(),
                            bx.data(), by.data(), bz.data(), t.p);
      EXPECT_EQ(0, std::memcmp(pa.data(), pb.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(ax.data(), bx.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(ay.data(), by.data(),
                               (nt + ns) * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(az.data(), bz.data(),
                               (nt + ns) * sizeof(double)));
    }
  }
}

// --- End-to-end: FmmSolver with a short-range KernelSpec -----------------

core::FmmConfig vdw_config(bool periodic) {
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  cfg.kernel.type = core::KernelType::kVanDerWaals;
  cfg.kernel.vdw_rmin = {0.11, 0.14};
  cfg.kernel.vdw_epsilon = {1.0, 0.55};
  cfg.kernel.vdw_cuton = 0.16;
  cfg.kernel.vdw_cutoff = 0.22;
  cfg.kernel.vdw_periodic = periodic;
  return cfg;
}

void expect_solve_matches_brute_force(const core::FmmConfig& cfg,
                                      const ParticleSet& ps,
                                      const std::vector<std::int32_t>& type) {
  const std::size_t n = ps.size();
  const VdwTable t(cfg.kernel.vdw_rmin, cfg.kernel.vdw_epsilon,
                   cfg.kernel.vdw_cuton, cfg.kernel.vdw_cutoff,
                   cfg.kernel.vdw_periodic
                       ? cfg.kernel.vdw_box.max_side()
                       : 0.0);
  std::vector<double> ref_phi(n, 0.0), scale(n, 0.0);
  std::vector<Vec3> ref_grad(n);
  ref_ranges(ps, type, t, 0, n, 0, n, ref_phi, ref_grad, scale);

  core::FmmSolver solver(cfg);
  const core::FmmResult r = solver.solve(ps);
  ASSERT_EQ(r.kernel, core::KernelType::kVanDerWaals);
  ASSERT_EQ(r.phi.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 1e-11 * (scale[i] + 1.0);
    EXPECT_NEAR(r.phi[i], ref_phi[i], s) << "i=" << i;
    EXPECT_NEAR(r.grad[i].x, ref_grad[i].x, s);
    EXPECT_NEAR(r.grad[i].y, ref_grad[i].y, s);
    EXPECT_NEAR(r.grad[i].z, ref_grad[i].z, s);
  }
}

TEST(VdwSolveTest, MatchesBruteForceUniform) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(400, 42, type, 2);
  expect_solve_matches_brute_force(vdw_config(false), ps, type);
}

TEST(VdwSolveTest, MatchesBruteForceClustered) {
  std::vector<std::int32_t> type;
  ParticleSet ps = make_plummer(350, Box3{}, 77);
  type.resize(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    type[i] = static_cast<std::int32_t>(i % 2);
    ps.set_type(i, type[i]);
  }
  expect_solve_matches_brute_force(vdw_config(false), ps, type);
}

TEST(VdwSolveTest, MatchesBruteForcePeriodicMinimumImage) {
  // Particles concentrated near the box faces so many pairs straddle the
  // periodic boundary and only match through the minimum image.
  std::vector<std::int32_t> type;
  ParticleSet ps = typed_uniform(300, 1234, type, 2);
  Xoshiro256 rng(99);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (i % 3 == 0) {
      // Push onto a thin shell near a random face.
      const double v = rng.uniform(0.0, 0.05);
      const double keep = rng.uniform(0.0, 1.0);
      const double x = (i % 2 == 0) ? v : 1.0 - v;
      Vec3 pos = ps.position(i);
      if (keep < 0.34)
        pos.x = x;
      else if (keep < 0.67)
        pos.y = x;
      else
        pos.z = x;
      ps.set(i, pos, ps.q()[i]);
    }
  }
  expect_solve_matches_brute_force(vdw_config(true), ps, type);
}

TEST(VdwSolveTest, FarFieldPhasesReportZeroWork) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(300, 5, type, 2);
  core::FmmSolver solver(vdw_config(false));
  const core::FmmResult r = solver.solve(ps);
  for (const char* ph : {"p2m", "upward", "interactive", "downward", "l2p"}) {
    const auto it = r.breakdown.phases().find(ph);
    ASSERT_NE(it, r.breakdown.phases().end()) << ph << " phase missing";
    EXPECT_EQ(it->second.boxes_active, 0u) << ph;
    EXPECT_EQ(it->second.pairs, 0u) << ph;
    EXPECT_EQ(it->second.flops, 0u) << ph;
  }
  const auto near = r.breakdown.phases().find("near");
  ASSERT_NE(near, r.breakdown.phases().end());
  EXPECT_GT(near->second.pairs, 0u);
}

TEST(VdwSolveTest, WarmSolvesAreZeroAllocAndBitwiseStable) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(500, 8, type, 2);
  core::FmmSolver solver(vdw_config(false));
  const core::FmmResult cold = solver.solve(ps);
  const core::FmmResult warm = solver.solve(ps);
  EXPECT_TRUE(warm.plan_reused);
  EXPECT_EQ(warm.workspace_allocs, 0u);
  ASSERT_EQ(cold.phi.size(), warm.phi.size());
  EXPECT_EQ(0, std::memcmp(cold.phi.data(), warm.phi.data(),
                           cold.phi.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(cold.grad.data(), warm.grad.data(),
                           cold.grad.size() * sizeof(Vec3)));
}

TEST(VdwSolveTest, SequentialAndThreadedBitwiseIdentical) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(600, 21, type, 2);
  core::FmmConfig seq = vdw_config(true);
  seq.mode = core::ExecutionMode::kSequential;
  core::FmmConfig thr = seq;
  thr.mode = core::ExecutionMode::kThreads;
  const core::FmmResult a = core::FmmSolver(seq).solve(ps);
  const core::FmmResult b = core::FmmSolver(thr).solve(ps);
  ASSERT_EQ(a.phi.size(), b.phi.size());
  EXPECT_EQ(0, std::memcmp(a.phi.data(), b.phi.data(),
                           a.phi.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(a.grad.data(), b.grad.data(),
                           a.grad.size() * sizeof(Vec3)));
}

// --- Near lists cut to the cutoff ------------------------------------------

core::FmmConfig cutoff_config(double cutoff, bool periodic, int depth) {
  core::FmmConfig cfg = vdw_config(periodic);
  cfg.kernel.vdw_cuton = 0.04;
  cfg.kernel.vdw_cutoff = cutoff;
  cfg.depth = depth;
  return cfg;
}

// Unit box: the leaf side is 1/8 at depth 3 and 1/16 at depth 4 (times the
// root's 1 + 1e-6 pad), both above a 0.06 cutoff, so only the boxes that
// touch the leaf can hold a pair within it.
TEST(VdwNearListTest, LeafSideAtLeastCutoffKeepsTheTouchingBoxes) {
  for (const bool periodic : {false, true})
    for (const int depth : {3, 4}) {
      SCOPED_TRACE(::testing::Message() << "periodic " << periodic
                                        << " depth " << depth);
      const core::FmmConfig cfg = cutoff_config(0.06, periodic, depth);
      const std::vector<tree::Offset> half =
          core::internal::near_offsets_for(cfg, depth);
      EXPECT_EQ(half.size(), 13u);
      EXPECT_EQ(half, tree::near_field_half_offsets(1));
    }
}

// With cutoff > sqrt(3) x side even the (2, 2, 2) corner box can hold a pair
// within the cutoff: nothing is dropped.
TEST(VdwNearListTest, CutoffBeyondTheCornerGapKeepsTheWholeNeighbourhood) {
  for (const bool periodic : {false, true})
    for (const auto& [cutoff, depth] :
         {std::pair{0.06, 5}, std::pair{0.22, 3}}) {
      SCOPED_TRACE(::testing::Message() << "periodic " << periodic
                                        << " depth " << depth);
      const core::FmmConfig cfg = cutoff_config(cutoff, periodic, depth);
      EXPECT_EQ(core::internal::near_offsets_for(cfg, depth),
                tree::near_field_half_offsets(2));
    }
}

// Two particles in leaf boxes two apart along x, closer than the cutoff by
// a hair, and the cuton just below their distance so the switched pair adds
// a visible amount: the solve must count them. Without a wrap the cutoff
// sits just above the leaf side. Across the periodic seam the leaf side
// (1/16 x (1 + 1e-6)) sits just above a 1/16 cutoff, yet the pair is closer:
// the root's pad makes the grid span more than the period.
TEST(VdwNearListTest, PairJustInsideTheCutoffAcrossAnOffsetTwoBoxPair) {
  struct Case {
    bool periodic;
    double cutoff, xa, xb, distance;
  };
  for (const Case& c :
       {Case{false, 0.0626, 0.3124, 0.37499995, 0.06259995},
        Case{true, 0.0625, 0.9999999, 0.0624996, 0.0624997}}) {
    SCOPED_TRACE(::testing::Message() << "periodic " << c.periodic);
    core::FmmConfig cfg = cutoff_config(c.cutoff, c.periodic, 4);
    cfg.kernel.vdw_rmin = {0.06};
    cfg.kernel.vdw_epsilon = {1.0};
    cfg.kernel.vdw_cuton = c.distance - (c.cutoff - c.distance);
    ParticleSet ps(2);
    ps.set(0, {c.xa, 0.5, 0.5}, 1.0);
    ps.set(1, {c.xb, 0.5, 0.5}, 1.0);
    ps.ensure_types();
    const std::vector<std::int32_t> type{0, 0};
    // The leaves sit two apart (through the wrap when periodic).
    const tree::Hierarchy hier(tree::cube_containing(cfg.kernel.vdw_box), 4);
    const std::int32_t ia = hier.leaf_of(ps.position(0)).ix;
    const std::int32_t ib = hier.leaf_of(ps.position(1)).ix;
    EXPECT_EQ(c.periodic ? (ib - ia + 16) % 16 : ib - ia, 2);
    const core::FmmResult r = core::FmmSolver(cfg).solve(ps);
    EXPECT_LT(r.phi[0], -0.1);  // the pair is counted
    expect_solve_matches_brute_force(cfg, ps, type);
  }
}

// A cutoff below the leaf side: the cut lists in every execution mode.
TEST(VdwNearListTest, CutoffBelowLeafSideMatchesBruteForceInEveryMode) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(3000, 2024, type, 2);
  for (const bool periodic : {false, true})
    for (const int depth : {3, 4}) {
      SCOPED_TRACE(::testing::Message() << "periodic " << periodic
                                        << " depth " << depth);
      core::FmmConfig seq = cutoff_config(0.06, periodic, depth);
      seq.mode = core::ExecutionMode::kSequential;
      expect_solve_matches_brute_force(seq, ps, type);
      core::FmmConfig thr = seq;
      thr.mode = core::ExecutionMode::kThreads;
      const core::FmmResult a = core::FmmSolver(seq).solve(ps);
      const core::FmmResult b = core::FmmSolver(thr).solve(ps);
      ASSERT_EQ(a.phi.size(), b.phi.size());
      EXPECT_EQ(0, std::memcmp(a.phi.data(), b.phi.data(),
                               a.phi.size() * sizeof(double)));
      EXPECT_EQ(0, std::memcmp(a.grad.data(), b.grad.data(),
                               a.grad.size() * sizeof(Vec3)));
      core::FmmConfig dp = seq;
      dp.mode = core::ExecutionMode::kDataParallel;
      expect_solve_matches_brute_force(dp, ps, type);
    }
}

// The depth the cutoff sets: the deepest level whose leaf side is still
// >= the cutoff, no deeper than one particle per leaf, never below the
// floor of 2.
TEST(VdwDepthTest, CutoffSetsTheDepth) {
  const core::FmmConfig cfg = cutoff_config(0.06, false, -1);
  EXPECT_EQ(core::depth_for(cfg, 20000), 4);
  EXPECT_EQ(core::depth_for(cfg, 100000), 4);
  EXPECT_EQ(core::depth_for(cfg, 2000), 3);
  EXPECT_EQ(core::depth_for(cfg, 100), 2);
  // A tiny cutoff stops at the occupancy bound (8^3 <= 1000 < 8^4), not at
  // the cutoff's level 9.
  core::FmmConfig tiny = cfg;
  tiny.kernel.vdw_cuton = 5e-4;
  tiny.kernel.vdw_cutoff = 1e-3;
  EXPECT_EQ(core::depth_for(tiny, 1000), 3);
}

// An explicit depth is held to the same coverage cap: past it the leaf side
// falls below half the cutoff and the near field would drop pairs within
// it. In the unit box cutoff 0.06 caps the depth at 5 (side 1/32) and
// cutoff 0.25 at 3; every depth up to the cap matches brute force, with and
// without the periodic wrap, and every depth past it is rejected before a
// solve.
TEST(VdwDepthTest, ExplicitDepthPastTheCoverageCapIsRejected) {
  std::vector<std::int32_t> type;
  const ParticleSet ps = typed_uniform(2000, 2025, type, 2);
  for (const bool periodic : {false, true})
    for (const auto& [cutoff, cap] :
         {std::pair{0.06, 5}, std::pair{0.25, 3}}) {
      SCOPED_TRACE(::testing::Message() << "periodic " << periodic
                                        << " cutoff " << cutoff);
      EXPECT_EQ(cutoff_config(cutoff, periodic, -1).kernel.max_depth(), cap);
      for (int depth = 2; depth <= cap; ++depth) {
        SCOPED_TRACE(::testing::Message() << "depth " << depth);
        expect_solve_matches_brute_force(
            cutoff_config(cutoff, periodic, depth), ps, type);
      }
      for (const int depth : {cap + 1, cap + 2}) {
        const core::FmmConfig cfg = cutoff_config(cutoff, periodic, depth);
        EXPECT_THROW(cfg.validate(), std::invalid_argument) << depth;
        EXPECT_THROW(core::FmmSolver{cfg}, std::invalid_argument) << depth;
      }
    }
}

// The pair tables are indexed by type id unchecked, so a solve must reject
// an id outside the table before any work, in every execution mode.
TEST(VdwSolveTest, TypeIdsOutsideTheTableAreRejected) {
  std::vector<std::int32_t> type;
  const ParticleSet good = typed_uniform(2000, 17, type, 2);
  for (const core::ExecutionMode mode :
       {core::ExecutionMode::kSequential, core::ExecutionMode::kThreads,
        core::ExecutionMode::kDataParallel}) {
    core::FmmConfig cfg = vdw_config(false);
    cfg.mode = mode;
    core::FmmSolver solver(cfg);
    for (const std::int32_t bad : {2, -1, 1000000}) {
      ParticleSet ps = good;
      ps.set_type(1234, bad);
      try {
        solver.solve(ps);
        ADD_FAILURE() << "accepted type id " << bad << " in mode "
                      << core::to_string(mode);
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("particle 1234"),
                  std::string::npos)
            << e.what();
      }
    }
    EXPECT_EQ(solver.solve(good).phi.size(), good.size());
  }
}

TEST(KernelSpecTest, ValidateRejectsBadSpecs) {
  core::FmmConfig cfg = vdw_config(false);
  cfg.kernel.vdw_cutoff = 0.3;  // > side / 4: U-list cannot cover it
  EXPECT_THROW(core::FmmSolver{cfg}, std::invalid_argument);
  core::FmmConfig cfg2 = vdw_config(false);
  cfg2.kernel.vdw_cuton = 0.25;  // cuton >= cutoff
  EXPECT_THROW(core::FmmSolver{cfg2}, std::invalid_argument);
  core::FmmConfig cfg3 = vdw_config(false);
  cfg3.kernel.vdw_epsilon = {1.0};  // table size mismatch
  EXPECT_THROW(core::FmmSolver{cfg3}, std::invalid_argument);
}

}  // namespace
}  // namespace hfmm
