// Agreement and edge-case tests for the pkern particle-kernel backends.
// Every dispatchable backend must reproduce the scalar references —
// baseline::direct_ranges for P2P, anderson::evaluate_inner for L2P — to
// within the rsqrt+Newton error budget (<= 1e-12 relative), including tail
// lanes, self-pair skipping, softening, the near-field driver's
// symmetric/non-symmetric equivalence on degenerate box populations, and
// its merged source runs against one call per box pair, its cost model,
// and its independence from the pool size.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/params.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/d2/kernels.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/rng.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm {
namespace {

constexpr double kTol = 1e-12;  // rsqrt + 2x Newton leaves ~6e-14, one-sided

class PkernBackendTest : public ::testing::TestWithParam<pkern::KernelKind> {
 protected:
  void SetUp() override {
    if (!pkern::kernel_supported(GetParam()))
      GTEST_SKIP() << "backend unsupported on this CPU";
    previous_ = pkern::active_kernel_kind();
    ASSERT_TRUE(pkern::select_kernel(GetParam()));
  }
  void TearDown() override {
    if (pkern::kernel_supported(GetParam()))
      pkern::select_kernel(previous_);
  }
  const pkern::KernelBackend& kern() const {
    return pkern::kernel_backend(GetParam());
  }

 private:
  pkern::KernelKind previous_ = pkern::KernelKind::kPortable;
};

// Vector tails must neither read nor write past the ranges they are given.
// The agreement tests append kPad particles after the last source (a lane
// that reads one too far picks up a real charge) and kPad output slots
// holding kSentinel after the last particle (a lane that stores or
// accumulates one too far changes them). make_uniform draws particle by
// particle, so the padding leaves the first particles as they were. The
// sentinel is finite because NaN would absorb a stray `+=`.
constexpr std::size_t kPad = 8;  // one 512-bit register of fp64
constexpr double kSentinel = 1048576.0;

void expect_pad_untouched(const std::vector<double>& v, std::size_t n) {
  for (std::size_t i = n; i < v.size(); ++i)
    EXPECT_EQ(v[i], kSentinel) << "slot " << i << " past " << n;
}

void expect_pad_untouched(const std::vector<Vec3>& v, std::size_t n) {
  for (std::size_t i = n; i < v.size(); ++i) {
    EXPECT_EQ(v[i].x, kSentinel) << "slot " << i << " past " << n;
    EXPECT_EQ(v[i].y, kSentinel) << "slot " << i << " past " << n;
    EXPECT_EQ(v[i].z, kSentinel) << "slot " << i << " past " << n;
  }
}

// Sizes straddle the 4- and 8-wide registers: every source tail of 1..7,
// sub-register boxes.
void expect_p2p_matches_scalar(const pkern::KernelBackend& kern,
                               std::size_t nt, std::size_t ns,
                               bool with_grad, double softening) {
  const ParticleSet p =
      make_uniform(nt + ns + kPad, Box3{}, 1234 + nt * 31 + ns);
  std::vector<double> phi(nt, 0.0), ref_phi(nt, 0.0);
  std::vector<Vec3> grad(nt), ref_grad(nt);
  phi.resize(nt + kPad, kSentinel);
  grad.resize(nt + kPad, Vec3{kSentinel, kSentinel, kSentinel});
  baseline::direct_ranges(p, 0, nt, nt, nt + ns, ref_phi.data(),
                          with_grad ? ref_grad.data() : nullptr, softening);
  kern.p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), 0, nt, nt,
           nt + ns, phi.data(), with_grad ? grad.data() : nullptr,
           softening * softening);
  expect_pad_untouched(phi, nt);
  expect_pad_untouched(grad, nt);
  for (std::size_t i = 0; i < nt; ++i) {
    EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]))
        << "nt=" << nt << " ns=" << ns << " i=" << i;
    if (with_grad) {
      const double scale = ref_grad[i].norm() + 1.0;
      EXPECT_NEAR(grad[i].x, ref_grad[i].x, kTol * scale);
      EXPECT_NEAR(grad[i].y, ref_grad[i].y, kTol * scale);
      EXPECT_NEAR(grad[i].z, ref_grad[i].z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, P2pMatchesScalarAcrossShapes) {
  for (const std::size_t nt : {1u, 3u, 4u, 7u, 64u})
    for (const std::size_t ns : {1u, 2u, 3u, 5u, 8u, 12u, 14u, 63u})
      for (const bool grad : {false, true})
        expect_p2p_matches_scalar(kern(), nt, ns, grad, 0.0);
}

TEST_P(PkernBackendTest, P2pHonorsSoftening) {
  expect_p2p_matches_scalar(kern(), 33, 50, true, 0.01);
}

TEST_P(PkernBackendTest, P2pIdenticalRangeSkipsSelfPair) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 15u, 17u, 64u}) {
    const ParticleSet p = make_uniform(n, Box3{}, 77 + n);
    std::vector<double> phi(n, 0.0), ref_phi(n, 0.0);
    std::vector<Vec3> grad(n), ref_grad(n);
    baseline::direct_ranges(p, 0, n, 0, n, ref_phi.data(), ref_grad.data());
    kern().p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), 0, n,
               0, n, phi.data(), grad.data(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (std::abs(ref_phi[i]) + 1.0));
      EXPECT_NEAR(grad[i].x, ref_grad[i].x,
                  kTol * (ref_grad[i].norm() + 1.0));
    }
  }
}

TEST_P(PkernBackendTest, P2pSymmetricMatchesPlainWithGradients) {
  // Unequal ranges whose source counts hit every residue mod 8, and one run
  // of the near field's 256-source cap.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 3},  {5, 11}, {32, 65}, {65, 131}, {3, 8},   {2, 10},
      {7, 12}, {4, 13}, {6, 14},  {9, 23},   {24, 256}};
  for (const auto& [nt, ns] : shapes) {
    const ParticleSet p = make_uniform(nt + ns + kPad, Box3{}, 555 + nt);
    // Reference: two one-directional evaluations.
    std::vector<double> ref_phi(nt + ns, 0.0);
    std::vector<Vec3> ref_grad(nt + ns);
    baseline::direct_ranges(p, 0, nt, nt, nt + ns, ref_phi.data(),
                            ref_grad.data());
    baseline::direct_ranges(p, nt, nt + ns, 0, nt, ref_phi.data() + nt,
                            ref_grad.data() + nt);
    std::vector<double> phi(nt + ns, 0.0), gx(nt + ns, 0.0), gy(nt + ns, 0.0),
        gz(nt + ns, 0.0);
    for (std::vector<double>* out : {&phi, &gx, &gy, &gz})
      out->resize(nt + ns + kPad, kSentinel);
    kern().p2p_symmetric(p.x().data(), p.y().data(), p.z().data(),
                         p.q().data(), 0, nt, nt, nt + ns, phi.data(),
                         gx.data(), gy.data(), gz.data(), 0.0);
    for (const std::vector<double>* out : {&phi, &gx, &gy, &gz})
      expect_pad_untouched(*out, nt + ns);
    for (std::size_t i = 0; i < nt + ns; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]));
      const double scale = ref_grad[i].norm() + 1.0;
      EXPECT_NEAR(gx[i], ref_grad[i].x, kTol * scale);
      EXPECT_NEAR(gy[i], ref_grad[i].y, kTol * scale);
      EXPECT_NEAR(gz[i], ref_grad[i].z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, P2pSymmetricPotentialOnly) {
  const std::size_t nt = 19;
  for (const std::size_t ns : {41u, 42u, 43u, 44u, 45u, 46u, 47u, 48u}) {
    // Seed 808 at ns = 42 keeps the original single case.
    const ParticleSet p = make_uniform(nt + ns + kPad, Box3{}, 808 + ns - 42);
    std::vector<double> ref_phi(nt + ns, 0.0), phi(nt + ns, 0.0);
    phi.resize(nt + ns + kPad, kSentinel);
    baseline::direct_ranges_symmetric(p, 0, nt, nt, nt + ns, ref_phi.data(),
                                      nullptr);
    kern().p2p_symmetric(p.x().data(), p.y().data(), p.z().data(),
                         p.q().data(), 0, nt, nt, nt + ns, phi.data(), nullptr,
                         nullptr, nullptr, 0.0);
    expect_pad_untouched(phi, nt + ns);
    for (std::size_t i = 0; i < nt + ns; ++i)
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * std::abs(ref_phi[i]))
          << "ns=" << ns << " i=" << i;
  }
}

TEST_P(PkernBackendTest, P2mMatchesScalar) {
  const anderson::Params params = anderson::params_d5_k12();
  const std::size_t k = params.k();
  const double a = 0.2;
  const Vec3 c{0.4, 0.5, 0.6};
  for (const std::size_t n : {1u, 3u, 4u, 29u, 64u}) {
    const ParticleSet p = make_uniform(n, Box3{}, 99 + n);
    std::vector<double> spx(k), spy(k), spz(k);
    for (std::size_t i = 0; i < k; ++i) {
      spx[i] = c.x + a * params.rule.points[i].x;
      spy[i] = c.y + a * params.rule.points[i].y;
      spz[i] = c.z + a * params.rule.points[i].z;
    }
    std::vector<double> g(k, 0.0), ref(k, 0.0);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const double dx = spx[i] - p.x()[j];
        const double dy = spy[i] - p.y()[j];
        const double dz = spz[i] - p.z()[j];
        ref[i] += p.q()[j] / std::sqrt(dx * dx + dy * dy + dz * dz);
      }
    kern().p2m(spx.data(), spy.data(), spz.data(), k, p.x().data(),
               p.y().data(), p.z().data(), p.q().data(), n, g.data());
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_NEAR(g[i], ref[i], kTol * std::abs(ref[i])) << "n=" << n;
  }
}

TEST_P(PkernBackendTest, L2pMatchesEvaluateInner) {
  const anderson::Params params = anderson::params_d14_k72();
  const std::size_t k = params.k();
  const double a = 0.3;
  const Vec3 c{0.5, 0.5, 0.5};
  Xoshiro256 rng(31);
  std::vector<double> sx(k), sy(k), sz(k), g(k), gw(k);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    g[i] = rng.uniform(-1.0, 1.0);
    gw[i] = g[i] * params.rule.weights[i];
  }
  for (const std::size_t n : {1u, 3u, 4u, 6u, 31u}) {
    const ParticleSet p =
        make_uniform(n, Box3{{0.35, 0.35, 0.35}, {0.65, 0.65, 0.65}}, 7 + n);
    std::vector<double> phi(n, 0.0);
    std::vector<Vec3> grad(n);
    kern().l2p(sx.data(), sy.data(), sz.data(), gw.data(), k,
               params.truncation, a, c.x, c.y, c.z, p.x().data(),
               p.y().data(), p.z().data(), n, phi.data(), grad.data());
    for (std::size_t j = 0; j < n; ++j) {
      const Vec3 x = p.position(j);
      const double ref =
          anderson::evaluate_inner(params.rule, params.truncation, a, c, g, x);
      const Vec3 ref_g = anderson::evaluate_inner_gradient(
          params.rule, params.truncation, a, c, g, x);
      EXPECT_NEAR(phi[j], ref, kTol * (std::abs(ref) + 1.0)) << "n=" << n;
      const double scale = ref_g.norm() + 1.0;
      EXPECT_NEAR(grad[j].x, ref_g.x, kTol * scale);
      EXPECT_NEAR(grad[j].y, ref_g.y, kTol * scale);
      EXPECT_NEAR(grad[j].z, ref_g.z, kTol * scale);
    }
  }
}

TEST_P(PkernBackendTest, L2pNearCentreFallback) {
  const anderson::Params params = anderson::params_d5_k12();
  const std::size_t k = params.k();
  const double a = 0.25;
  const Vec3 c{0.5, 0.5, 0.5};
  std::vector<double> sx(k), sy(k), sz(k), g(k, 1.0), gw(k);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    gw[i] = g[i] * params.rule.weights[i];
  }
  // A full register where one particle sits exactly at the sphere centre —
  // the whole block must take the scalar limit path and stay finite.
  ParticleSet p(4);
  p.set(0, c + Vec3{0.05, 0.0, 0.0}, 1.0);
  p.set(1, c, 1.0);  // exact centre
  p.set(2, c + Vec3{0.0, 1e-15, 0.0}, 1.0);  // inside the tiny-radius guard
  p.set(3, c + Vec3{0.0, 0.0, -0.1}, 1.0);
  std::vector<double> phi(4, 0.0);
  std::vector<Vec3> grad(4);
  kern().l2p(sx.data(), sy.data(), sz.data(), gw.data(), k, params.truncation,
             a, c.x, c.y, c.z, p.x().data(), p.y().data(), p.z().data(), 4,
             phi.data(), grad.data());
  for (std::size_t j = 0; j < 4; ++j) {
    const Vec3 x = p.position(j);
    const double ref =
        anderson::evaluate_inner(params.rule, params.truncation, a, c, g, x);
    EXPECT_NEAR(phi[j], ref, kTol * (std::abs(ref) + 1.0)) << "j=" << j;
    EXPECT_TRUE(std::isfinite(grad[j].x));
    EXPECT_TRUE(std::isfinite(grad[j].y));
    EXPECT_TRUE(std::isfinite(grad[j].z));
  }
  // Constant boundary data: potential is the constant, gradient ~ 0 at the
  // centre for the g == 1 monopole-like field (only n = 1 term contributes,
  // and the icosahedral points sum to zero).
  EXPECT_NEAR(phi[1], 1.0, 1e-12);
}

// The 2-D near-field kernel left this table for d2::p2p, its only caller's
// library; selecting any 3-D backend must leave it matching its per-pair
// reference (disjoint target and source ranges, interleaved (x, y) gradient).
TEST_P(PkernBackendTest, P2p2MatchesScalar2d) {
  Xoshiro256 rng(404);
  for (const std::size_t n : {1u, 2u, 7u, 40u}) {
    std::vector<double> x(2 * n), y(2 * n), q(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      x[i] = rng.uniform();
      y[i] = rng.uniform();
      q[i] = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> phi(n, 0.0), gxy(2 * n, 0.0);
    std::vector<double> ref_phi(n, 0.0), ref_gxy(2 * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = n; j < 2 * n; ++j) {
        const double dx = x[i] - x[j], dy = y[i] - y[j];
        const double r2 = dx * dx + dy * dy;
        ref_phi[i] += -0.5 * q[j] * std::log(r2);
        ref_gxy[2 * i] += -q[j] * dx / r2;
        ref_gxy[2 * i + 1] += -q[j] * dy / r2;
      }
    d2::p2p(x.data(), y.data(), q.data(), 0, n, n, 2 * n, phi.data(),
            gxy.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(phi[i], ref_phi[i], kTol * (std::abs(ref_phi[i]) + 1.0));
      EXPECT_NEAR(gxy[2 * i], ref_gxy[2 * i],
                  kTol * (std::abs(ref_gxy[2 * i]) + 1.0));
      EXPECT_NEAR(gxy[2 * i + 1], ref_gxy[2 * i + 1],
                  kTol * (std::abs(ref_gxy[2 * i + 1]) + 1.0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PkernBackendTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2,
                                           pkern::KernelKind::kAvx512),
                         [](const auto& info) {
                           return std::string(pkern::to_string(info.param));
                         });

TEST(PkernDispatchTest, PortableAlwaysSupported) {
  EXPECT_TRUE(pkern::kernel_supported(pkern::KernelKind::kPortable));
  EXPECT_STREQ(pkern::to_string(pkern::KernelKind::kPortable), "portable");
  EXPECT_STREQ(pkern::to_string(pkern::KernelKind::kAvx2), "avx2");
  EXPECT_STREQ(pkern::to_string(pkern::KernelKind::kAvx512), "avx512");
  EXPECT_STREQ(pkern::kernel_backend(pkern::KernelKind::kAvx512).name,
               "avx512");
}

// The avx512 table owns only the Laplace P2P pair; every other entry is the
// AVX2 function, so the vdW bitwise contract AVX2 keeps with portable holds
// for avx512 without a test of its own.
TEST(PkernDispatchTest, Avx512SharesAvx2NonP2pEntries) {
  const auto& a = pkern::kernel_backend(pkern::KernelKind::kAvx2);
  const auto& b = pkern::kernel_backend(pkern::KernelKind::kAvx512);
  EXPECT_TRUE(b.p2m == a.p2m && b.l2p == a.l2p && b.p2p_vdw == a.p2p_vdw &&
              b.p2p_vdw_symmetric == a.p2p_vdw_symmetric);
}

TEST(PkernDispatchTest, SelectKernelRoundTrips) {
  const pkern::KernelKind initial = pkern::active_kernel_kind();
  ASSERT_TRUE(pkern::select_kernel(pkern::KernelKind::kPortable));
  EXPECT_EQ(pkern::active_kernel_kind(), pkern::KernelKind::kPortable);
  EXPECT_STREQ(pkern::active_kernel().name, "portable");
  if (pkern::kernel_supported(pkern::KernelKind::kAvx2)) {
    ASSERT_TRUE(pkern::select_kernel(pkern::KernelKind::kAvx2));
    EXPECT_STREQ(pkern::active_kernel().name, "avx2");
  }
  if (pkern::kernel_supported(pkern::KernelKind::kAvx512)) {
    ASSERT_TRUE(pkern::select_kernel(pkern::KernelKind::kAvx512));
    EXPECT_EQ(pkern::active_kernel_kind(), pkern::KernelKind::kAvx512);
    EXPECT_STREQ(pkern::active_kernel().name, "avx512");
  } else {
    EXPECT_FALSE(pkern::select_kernel(pkern::KernelKind::kAvx512));
  }
  pkern::select_kernel(initial);
}

// ---------------------------------------------------------------------------
// core::near_field edge cases, run under every backend.
// ---------------------------------------------------------------------------

class NearFieldEdgeTest : public PkernBackendTest {};

// Runs near_field both ways and checks they agree; returns the plain result.
void expect_symmetric_agrees(const ParticleSet& p, int depth, bool with_grad,
                             double rel_tol = 1e-12) {
  const tree::Hierarchy hier(Box3{}, depth);
  const dp::BlockLayout layout(hier.boxes_per_side(depth), {1, 1, 1});
  const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
  const std::size_t n = p.size();
  std::vector<double> phi_a(n, 0.0), phi_b(n, 0.0);
  std::vector<Vec3> grad_a(with_grad ? n : 0), grad_b(with_grad ? n : 0);
  core::NearFieldScratch scratch;
  const std::vector<tree::Offset> full = tree::near_field_offsets(2);
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  const auto ra =
      core::near_field(hier, boxed, full, false, phi_a, grad_a,
                       ThreadPool::global(), &scratch);
  const auto rb =
      core::near_field(hier, boxed, half, true, phi_b, grad_b,
                       ThreadPool::global(), &scratch);
  // The symmetric pass visits every cross-box pair once instead of twice.
  EXPECT_LE(rb.pair_interactions, ra.pair_interactions);
  EXPECT_LE(rb.box_interactions, ra.box_interactions);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(phi_a[i], phi_b[i], rel_tol * (std::abs(phi_a[i]) + 1.0));
    if (with_grad) {
      const double scale = grad_a[i].norm() + 1.0;
      EXPECT_NEAR(grad_a[i].x, grad_b[i].x, rel_tol * scale);
      EXPECT_NEAR(grad_a[i].y, grad_b[i].y, rel_tol * scale);
      EXPECT_NEAR(grad_a[i].z, grad_b[i].z, rel_tol * scale);
    }
  }
}

TEST_P(NearFieldEdgeTest, SymmetricAgreesWithPlainGradients) {
  expect_symmetric_agrees(make_uniform(2000, Box3{}, 2024), 3, true);
}

TEST_P(NearFieldEdgeTest, MostlyEmptyBoxes) {
  // All particles in one corner octant: the vast majority of leaf boxes are
  // empty, including whole neighbor stencils.
  const ParticleSet p =
      make_uniform(300, Box3{{0.0, 0.0, 0.0}, {0.12, 0.12, 0.12}}, 5);
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, SingleParticleBoxes) {
  // Fewer particles than leaf boxes: occupied boxes mostly hold exactly one
  // particle, so intra-box terms vanish and every contribution crosses
  // boxes.
  const ParticleSet p = make_uniform(40, Box3{}, 6);
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, BoundaryBoxesTruncatedStencils) {
  // Particles pinned to faces, edges and corners of the domain, where the
  // separation-2 stencil is maximally truncated by the boundary.
  ParticleSet p(200);
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < p.size(); ++i) {
    Vec3 v{rng.uniform(), rng.uniform(), rng.uniform()};
    switch (i % 4) {
      case 0: v.x = 0.001; break;           // face
      case 1: v.x = 0.999; v.y = 0.001; break;  // edge
      case 2:  // corner box (positions jittered — coincident points are UB)
        v = {0.99 + 0.009 * rng.uniform(), 0.99 + 0.009 * rng.uniform(),
             0.99 + 0.009 * rng.uniform()};
        break;
      default: break;                       // interior
    }
    p.set(i, v, rng.uniform(-1.0, 1.0));
  }
  expect_symmetric_agrees(p, 3, true);
}

TEST_P(NearFieldEdgeTest, ScratchReuseIsDeterministic) {
  const ParticleSet p = make_uniform(500, Box3{}, 99);
  const tree::Hierarchy hier(Box3{}, 2);
  const dp::BlockLayout layout(hier.boxes_per_side(2), {1, 1, 1});
  const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
  core::NearFieldScratch scratch;
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  std::vector<double> first(p.size(), 0.0), second(p.size(), 0.0);
  std::vector<Vec3> g1(p.size()), g2(p.size());
  core::near_field(hier, boxed, half, true, first, g1, ThreadPool::global(),
                   &scratch);
  // Second call reuses the (now dirty) scratch; results must be identical.
  core::near_field(hier, boxed, half, true, second, g2, ThreadPool::global(),
                   &scratch);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]);
    EXPECT_DOUBLE_EQ(g1[i].x, g2[i].x);
  }
}

// --- Merged source runs against the per-box evaluation ---------------------

// One near-field input: particles sorted for a layout, the target boxes a
// chunk evaluates (ascending flat indices), and the pair kernel.
struct NearInput {
  tree::Hierarchy hier;
  dp::BoxedParticles boxed;
  std::vector<std::uint32_t> boxes;
  core::NearKernel kern;
  // vdW pair tables (2 x 2 types) the kernel points into.
  std::vector<double> rmin2, eps;
};

NearInput sorted_input(const ParticleSet& p, int depth,
                       const dp::MachineConfig& machine) {
  const tree::Hierarchy hier(Box3{}, depth);
  const dp::BlockLayout layout(hier.boxes_per_side(depth), machine);
  return {hier, dp::coordinate_sort(p, hier, layout), {}, {}, {}, {}};
}

std::uint32_t box_count(const NearInput& in, std::size_t flat) {
  return in.boxed.count_in_rank(in.boxed.flat_to_rank[flat]);
}

struct PerBox {
  std::vector<double> phi;
  std::vector<Vec3> grad;
  std::uint64_t pairs = 0, box_pairs = 0;
};

// The evaluation the merged runs replace: one plain pkern call per (target
// box, source box) pair — both directions for the half list — into
// full-size buffers, with the per-box-pair counts.
PerBox per_box_reference(const NearInput& in,
                         std::span<const std::uint32_t> boxes,
                         std::span<const tree::Offset> offsets,
                         bool symmetric) {
  const pkern::KernelBackend& k = pkern::active_kernel();
  const ParticleSet& p = in.boxed.sorted;
  const int h = in.hier.depth();
  const std::int32_t n = in.hier.boxes_per_side(h);
  const bool vdw = in.kern.type == core::KernelType::kVanDerWaals;
  const bool periodic = vdw && in.kern.vdw.period > 0.0;
  PerBox r;
  r.phi.assign(p.size(), 0.0);
  r.grad.assign(p.size(), Vec3{});
  const auto call = [&](std::size_t ft, std::size_t fs) {
    const std::uint32_t tb = in.boxed.box_begin[in.boxed.flat_to_rank[ft]];
    const std::uint32_t sb = in.boxed.box_begin[in.boxed.flat_to_rank[fs]];
    const std::uint32_t te = tb + box_count(in, ft), se = sb + box_count(in, fs);
    if (vdw)
      k.p2p_vdw(p.x().data(), p.y().data(), p.z().data(), in.kern.types, tb,
                te, sb, se, r.phi.data() + tb, r.grad.data() + tb,
                in.kern.vdw);
    else
      k.p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), tb, te,
            sb, se, r.phi.data() + tb, r.grad.data() + tb, in.kern.soft2);
  };
  for (const std::uint32_t f : boxes) {
    const std::uint64_t t = box_count(in, f);
    if (t == 0) continue;
    if (t > 1) {
      call(f, f);
      r.pairs += t * (t - 1);
      ++r.box_pairs;
    }
    const tree::BoxCoord c = in.hier.coord_of(h, f);
    for (const tree::Offset& o : offsets) {
      if (o == tree::Offset{0, 0, 0}) continue;
      tree::BoxCoord nb{c.ix + o.dx, c.iy + o.dy, c.iz + o.dz};
      if (periodic) {
        nb = {(nb.ix + n) % n, (nb.iy + n) % n, (nb.iz + n) % n};
      } else if (!in.hier.in_bounds(h, nb)) {
        continue;
      }
      const std::size_t fs = in.hier.flat_index(h, nb);
      const std::uint64_t s = box_count(in, fs);
      if (s == 0) continue;
      call(f, fs);
      if (symmetric) call(fs, f);
      r.pairs += t * s;
      ++r.box_pairs;
    }
  }
  return r;
}

// The whole near field of `in.boxes`, split into three chunks and reduced
// by near_field_accumulate.
std::pair<std::vector<double>, std::vector<Vec3>> chunked_field(
    const NearInput& in, std::span<const tree::Offset> offsets,
    bool symmetric) {
  const std::size_t n = in.boxed.sorted.size();
  const std::span<const std::uint32_t> all{in.boxes};
  core::NearFieldScratch scr;
  scr.chunks.resize(3);
  const std::size_t step = (all.size() + 2) / 3;
  for (std::size_t c = 0; c < 3; ++c) {
    const std::size_t lo = std::min(all.size(), c * step);
    const std::size_t hi = std::min(all.size(), lo + step);
    core::near_field_chunk(in.hier, in.boxed, offsets, symmetric, true,
                           scr.chunks[c], all.subspan(lo, hi - lo), in.kern);
  }
  std::vector<double> phi(n, 0.0);
  std::vector<Vec3> grad(n);
  core::near_field_accumulate(scr, 3, true, phi, grad, 0, n);
  return {std::move(phi), std::move(grad)};
}

// One chunk over the targets `chunk` (a slice of `in.boxes`), both lists:
// the counts equal the per-box reference (box pairs, not pkern calls), the
// values agree with it within 1e-12, the chunk's buffers are exactly its
// span (a fresh chunk, so an out-of-span write trips ASan) and the
// reference writes nothing outside that span; near_field_costs prices each
// box at the pairs a chunk of that box alone counts. Then the symmetric
// near field of all of `in.boxes` agrees with the plain one. `sym_span`,
// when given, receives the symmetric chunk's span.
void expect_runs_match_per_box(
    const NearInput& in, std::span<const std::uint32_t> chunk,
    std::pair<std::size_t, std::size_t>* sym_span = nullptr) {
  const std::vector<tree::Offset> full = tree::near_field_offsets(2);
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  for (const bool symmetric : {false, true}) {
    SCOPED_TRACE(symmetric ? "half list" : "full list");
    const std::span<const tree::Offset> offsets{symmetric ? half : full};
    core::NearFieldScratch::Chunk ch;
    const core::NearFieldResult got = core::near_field_chunk(
        in.hier, in.boxed, offsets, symmetric, true, ch, chunk, in.kern);
    if (symmetric && sym_span != nullptr) *sym_span = {ch.lo, ch.hi};
    const PerBox ref = per_box_reference(in, chunk, offsets, symmetric);
    EXPECT_EQ(got.pair_interactions, ref.pairs);
    EXPECT_EQ(got.box_interactions, ref.box_pairs);
    ASSERT_LE(ch.lo, ch.hi);
    ASSERT_EQ(ch.phi.size(), ch.hi - ch.lo);
    ASSERT_EQ(ch.grad.size(), ch.hi - ch.lo);
    for (std::size_t i = 0; i < ref.phi.size(); ++i) {
      if (i < ch.lo || i >= ch.hi) {
        EXPECT_EQ(ref.phi[i], 0.0) << "needed write outside the span at " << i;
        continue;
      }
      const double scale = std::abs(ref.phi[i]) + 1.0;
      EXPECT_NEAR(ch.phi[i - ch.lo], ref.phi[i], kTol * scale) << i;
      const double gscale = ref.grad[i].norm() + 1.0;
      EXPECT_NEAR(ch.grad[i - ch.lo].x, ref.grad[i].x, kTol * gscale) << i;
      EXPECT_NEAR(ch.grad[i - ch.lo].z, ref.grad[i].z, kTol * gscale) << i;
    }
    std::vector<std::uint64_t> cost(chunk.size());
    core::near_field_costs(in.hier, in.boxed, offsets, chunk, in.kern, cost);
    for (std::size_t b = 0; b < chunk.size(); ++b) {
      core::NearFieldScratch::Chunk one;
      EXPECT_EQ(cost[b],
                core::near_field_chunk(in.hier, in.boxed, offsets, symmetric,
                                       false, one, chunk.subspan(b, 1),
                                       in.kern)
                    .pair_interactions)
          << "box " << chunk[b];
    }
  }

  const auto plain = chunked_field(in, full, false);
  const auto symm = chunked_field(in, half, true);
  for (std::size_t i = 0; i < plain.first.size(); ++i) {
    EXPECT_NEAR(symm.first[i], plain.first[i],
                kTol * (std::abs(plain.first[i]) + 1.0)) << i;
    const double gscale = plain.second[i].norm() + 1.0;
    EXPECT_NEAR(symm.second[i].x, plain.second[i].x, kTol * gscale) << i;
    EXPECT_NEAR(symm.second[i].y, plain.second[i].y, kTol * gscale) << i;
    EXPECT_NEAR(symm.second[i].z, plain.second[i].z, kTol * gscale) << i;
  }
}

// The middle third of a box list.
std::span<const std::uint32_t> middle_third(
    const std::vector<std::uint32_t>& boxes) {
  return std::span<const std::uint32_t>(boxes).subspan(boxes.size() / 3,
                                                       boxes.size() / 3);
}

std::vector<std::uint32_t> flat_range(std::size_t lo, std::size_t hi) {
  std::vector<std::uint32_t> out;
  for (std::size_t f = lo; f < hi; ++f)
    out.push_back(static_cast<std::uint32_t>(f));
  return out;
}

TEST_P(NearFieldEdgeTest, RunsMatchPerBoxOnDenseRange) {
  // Uniform background plus a dense 2x2x2-box block holding ~150 particles
  // a box, so its rows pass the 256-particle run cap and split.
  ParticleSet p = make_uniform(1500, Box3{}, 31, -1.0, 1.0);
  const ParticleSet core_block =
      make_uniform(1200, Box3{{0.25, 0.25, 0.25}, {0.5, 0.5, 0.5}}, 32);
  const std::size_t n0 = p.size();
  p.resize(n0 + core_block.size());
  for (std::size_t i = 0; i < core_block.size(); ++i)
    p.set(n0 + i, core_block.position(i), core_block.q()[i]);
  NearInput in = sorted_input(p, 3, {1, 1, 1});
  in.kern = core::NearKernel(1e-3);
  in.boxes = flat_range(0, in.hier.boxes_at(3));
  expect_runs_match_per_box(in, middle_third(in.boxes));

  // Merging is real: a uniform chunk makes fewer pkern calls than it counts
  // box pairs. And no source run passes the 256-particle cap (no single box
  // here holds that many, so only the cap can split the dense block's rows).
  core::NearFieldScratch::Chunk ch;
  const auto half = tree::near_field_half_offsets(2);
  const core::NearFieldResult r = core::near_field_chunk(
      in.hier, in.boxed, half, true, false, ch, in.boxes);
  EXPECT_LT(ch.runs.size() * 2, r.box_interactions);
  for (const core::NearFieldScratch::Run& run : ch.runs)
    EXPECT_LE(run.se - run.sb, 256u);
}

TEST_P(NearFieldEdgeTest, RunsMatchPerBoxOnActiveListWithEmptyBoxes) {
  // A cluster in one corner plus a sprinkle of outliers: most boxes, and
  // whole stretches of rows, are empty; the chunk walks only the occupied
  // list, as the shared-memory executor does.
  ParticleSet p = make_uniform(900, Box3{{0.0, 0.0, 0.0}, {0.4, 0.3, 0.5}},
                               41, -1.0, 1.0);
  const ParticleSet outliers = make_uniform(60, Box3{}, 42);
  const std::size_t n0 = p.size();
  p.resize(n0 + outliers.size());
  for (std::size_t i = 0; i < outliers.size(); ++i)
    p.set(n0 + i, outliers.position(i), 1.0);
  NearInput in = sorted_input(p, 3, {1, 1, 1});
  in.kern = core::NearKernel(0.0);
  for (std::size_t f = 0; f < in.hier.boxes_at(3); ++f)
    if (box_count(in, f) > 0) in.boxes.push_back(static_cast<std::uint32_t>(f));
  ASSERT_LT(in.boxes.size(), in.hier.boxes_at(3) / 2);
  expect_runs_match_per_box(in, middle_third(in.boxes));
}

TEST_P(NearFieldEdgeTest, RunsMatchPerBoxOnPeriodicVdwSeam) {
  // Periodic van der Waals on an 8^3 grid: rows of boxes at x = 0, 1, 6, 7
  // wrap across the seam, and the top planes' partners wrap to the bottom,
  // so a chunk's span reaches back to the start of the particle order.
  ParticleSet p = make_uniform(1500, Box3{}, 51);
  p.ensure_types();
  for (std::size_t i = 0; i < p.size(); ++i)
    p.type()[i] = static_cast<std::int32_t>(i % 2);
  NearInput in = sorted_input(p, 3, {1, 1, 1});
  const double rmin[2] = {0.03, 0.025}, epsv[2] = {1.0, 0.5};
  in.rmin2.resize(4);
  in.eps.resize(4);
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const double rm = 0.5 * (rmin[a] + rmin[b]);
      in.rmin2[2 * a + b] = rm * rm;
      in.eps[2 * a + b] = std::sqrt(epsv[a] * epsv[b]);
    }
  in.kern.type = core::KernelType::kVanDerWaals;
  in.kern.types = in.boxed.sorted.type().data();
  pkern::VdwParams& vp = in.kern.vdw;
  vp.rmin2 = in.rmin2.data();
  vp.eps = in.eps.data();
  vp.ntypes = 2;
  vp.cuton2 = 0.08 * 0.08;
  vp.cutoff2 = 0.12 * 0.12;
  vp.cm3o = vp.cutoff2 - 3.0 * vp.cuton2;
  const double denom = vp.cutoff2 - vp.cuton2;
  vp.inv_denom = 1.0 / (denom * denom * denom);
  vp.inv_denom6 = 6.0 * vp.inv_denom;
  vp.period = 1.0;
  vp.inv_period = 1.0;
  in.boxes = flat_range(0, in.hier.boxes_at(3));
  expect_runs_match_per_box(in, middle_third(in.boxes));
  // A chunk over the top two planes: its partners wrap to the bottom planes.
  const std::span<const std::uint32_t> top =
      std::span<const std::uint32_t>(in.boxes).subspan(6 * 64);
  std::pair<std::size_t, std::size_t> span;
  expect_runs_match_per_box(in, top, &span);
  EXPECT_LT(span.first, in.boxed.box_begin[in.boxed.flat_to_rank[top.front()]]);
  EXPECT_EQ(span.second, in.boxed.sorted.size());
}

TEST_P(NearFieldEdgeTest, RunsMatchPerBoxOnMultiVuSort) {
  // The DP executor's sort key puts VU-address bits above local bits, so
  // x-neighbours on either side of a VU boundary are far apart in sorted
  // order and a row's run must break there.
  const ParticleSet p = make_uniform(2500, Box3{}, 61, -1.0, 1.0);
  NearInput in = sorted_input(p, 3, {2, 2, 2});
  in.kern = core::NearKernel(1e-3);
  in.boxes = flat_range(0, in.hier.boxes_at(3));
  expect_runs_match_per_box(in, middle_third(in.boxes));
}

TEST_P(NearFieldEdgeTest, PoolSizeDoesNotChangeBits) {
  // A clustered input at depth 4: the pair cost is far from uniform over
  // the leaves, so an equal split per worker would group the sums
  // differently on one worker and on four.
  const ParticleSet p = make_plummer(3000, Box3{}, 71);
  const tree::Hierarchy hier(tree::cube_containing(p.bounds()), 4);
  const dp::BlockLayout layout(hier.boxes_per_side(4), {1, 1, 1});
  const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
  const std::size_t n = p.size();
  ThreadPool one(1), four(4);
  for (const bool symmetric : {false, true}) {
    SCOPED_TRACE(symmetric ? "half list" : "full list");
    const std::vector<tree::Offset> offsets =
        symmetric ? tree::near_field_half_offsets(2)
                  : tree::near_field_offsets(2);
    std::vector<double> phi1(n, 0.0), phi4(n, 0.0);
    std::vector<Vec3> grad1(n), grad4(n);
    const core::NearFieldResult r1 = core::near_field(
        hier, boxed, offsets, symmetric, phi1, grad1, one, nullptr, 1e-3);
    const core::NearFieldResult r4 = core::near_field(
        hier, boxed, offsets, symmetric, phi4, grad4, four, nullptr, 1e-3);
    EXPECT_EQ(r1.pair_interactions, r4.pair_interactions);
    EXPECT_EQ(r1.flops, r4.flops);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(phi1[i], phi4[i]) << i;
      ASSERT_EQ(grad1[i].x, grad4[i].x) << i;
      ASSERT_EQ(grad1[i].y, grad4[i].y) << i;
      ASSERT_EQ(grad1[i].z, grad4[i].z) << i;
    }
  }
}

TEST_P(NearFieldEdgeTest, TinyInputs) {
  // N = 0, 1 and 2 (the pair in x-adjacent leaves): the half list counts 0,
  // 0 and 1 particle pairs, and the pair's potentials are 1/r each way.
  const tree::Hierarchy hier(Box3{}, 2);
  const dp::BlockLayout layout(hier.boxes_per_side(2), {1, 1, 1});
  const std::vector<tree::Offset> half = tree::near_field_half_offsets(2);
  for (std::size_t n = 0; n <= 2; ++n) {
    SCOPED_TRACE(n);
    ParticleSet p(n);
    for (std::size_t i = 0; i < n; ++i)
      p.set(i, {0.1 + 0.2 * static_cast<double>(i), 0.1, 0.1}, 1.0);
    const dp::BoxedParticles boxed = dp::coordinate_sort(p, hier, layout);
    std::vector<double> phi(n, 0.0);
    std::vector<Vec3> grad(n);
    const core::NearFieldResult r = core::near_field(
        hier, boxed, half, true, phi, grad, ThreadPool::global());
    EXPECT_EQ(r.pair_interactions, n == 2 ? 1u : 0u);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(phi[i], n == 2 ? 1.0 / 0.2 : 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, NearFieldEdgeTest,
                         ::testing::Values(pkern::KernelKind::kPortable,
                                           pkern::KernelKind::kAvx2,
                                           pkern::KernelKind::kAvx512),
                         [](const auto& info) {
                           return std::string(pkern::to_string(info.param));
                         });

}  // namespace
}  // namespace hfmm
