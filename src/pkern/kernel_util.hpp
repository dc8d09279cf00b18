#pragma once
// Internal machinery shared by the particle-kernel backends: exact scalar
// paths used for vector tails and near-centre L2P fallbacks, and the vdW
// per-pair arithmetic of the portable/avx2 bitwise contract. Not installed.

#include <cmath>
#include <cstddef>

#include "hfmm/pkern/kernels.hpp"
#include "hfmm/util/vec3.hpp"

namespace hfmm::pkern::detail {

inline constexpr std::size_t kW = 4;  // lanes per register (4 doubles / ymm)

// L2P blocks holding a particle closer than this (times a) to the sphere
// centre drop to the scalar path, which reproduces the r -> 0 limits of
// anderson::inner_kernel / inner_kernel_gradient exactly.
inline constexpr double kTinyRadiusRatio = 1e-13;

// ---------------------------------------------------------------------------
// Scalar reference paths (identical arithmetic to baseline::direct and
// anderson::kernels; used for < kW tails and edge cases).
// ---------------------------------------------------------------------------

// One target against sources [sb, se) with the self pair skipped when the
// indices collide; accumulates into *phi / *g.
inline void scalar_p2p_target(const double* x, const double* y,
                              const double* z, const double* q, std::size_t i,
                              std::size_t sb, std::size_t se, double* phi,
                              Vec3* g, double soft2) {
  const double tx = x[i], ty = y[i], tz = z[i];
  double acc = 0.0;
  double gx = 0.0, gy = 0.0, gz = 0.0;
  for (std::size_t j = sb; j < se; ++j) {
    if (j == i) continue;
    const double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
    const double r2 = dx * dx + dy * dy + dz * dz + soft2;
    const double inv_r = 1.0 / std::sqrt(r2);
    acc += q[j] * inv_r;
    if (g != nullptr) {
      const double c = -q[j] * inv_r * inv_r * inv_r;
      gx += c * dx;
      gy += c * dy;
      gz += c * dz;
    }
  }
  *phi += acc;
  if (g != nullptr) {
    g->x += gx;
    g->y += gy;
    g->z += gz;
  }
}

// One symmetric target row: accumulates the target's sums into *phi / the
// g* scalars and writes the source-side contributions into the SoA slices
// phi_s / gx_s / gy_s / gz_s (length se - sb).
inline void scalar_p2p_symmetric_target(
    const double* x, const double* y, const double* z, const double* q,
    std::size_t i, std::size_t sb, std::size_t se, double* phi, double* phi_s,
    double* gx, double* gy, double* gz, double* gx_s, double* gy_s,
    double* gz_s, double soft2) {
  const double tx = x[i], ty = y[i], tz = z[i], tq = q[i];
  double acc = 0.0, ax = 0.0, ay = 0.0, az = 0.0;
  const bool with_g = gx != nullptr;
  for (std::size_t j = sb; j < se; ++j) {
    const double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
    const double r2 = dx * dx + dy * dy + dz * dz + soft2;
    const double inv_r = 1.0 / std::sqrt(r2);
    acc += q[j] * inv_r;
    phi_s[j - sb] += tq * inv_r;
    if (with_g) {
      const double inv_r3 = inv_r * inv_r * inv_r;
      const double ct = -q[j] * inv_r3;
      ax += ct * dx;
      ay += ct * dy;
      az += ct * dz;
      const double cs = tq * inv_r3;
      gx_s[j - sb] += cs * dx;
      gy_s[j - sb] += cs * dy;
      gz_s[j - sb] += cs * dz;
    }
  }
  *phi += acc;
  if (with_g) {
    *gx += ax;
    *gy += ay;
    *gz += az;
  }
}

// L2P at one particle: the truncated inner Poisson kernel summed over the
// rule points, with the r -> 0 limits of anderson::kernels.cpp.
inline void scalar_l2p_one(const double* sx, const double* sy,
                           const double* sz, const double* gw, std::size_t k,
                           int truncation, double a, double cx, double cy,
                           double cz, double px, double py, double pz,
                           double* phi, Vec3* grad) {
  const double xr = px - cx, yr = py - cy, zr = pz - cz;
  const double r = std::sqrt(xr * xr + yr * yr + zr * zr);
  if (r < 1e-300) {
    // Only the n = 0 potential term and (for M >= 1) the n = 1 gradient
    // term survive at the centre.
    double psum = 0.0;
    Vec3 gsum{};
    for (std::size_t i = 0; i < k; ++i) {
      psum += gw[i];
      if (grad != nullptr && truncation >= 1)
        gsum += (3.0 / a) * Vec3{sx[i], sy[i], sz[i]} * gw[i];
    }
    *phi += psum;
    if (grad != nullptr) *grad += gsum;
    return;
  }
  const double inv_r = 1.0 / r;
  const double xh = xr * inv_r, yh = yr * inv_r, zh = zr * inv_r;
  const double t = r / a;
  double psum = 0.0;
  double gxs = 0.0, gys = 0.0, gzs = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double u = sx[i] * xh + sy[i] * yh + sz[i] * zh;
    // Rolling Legendre recurrence: pm1 = P_{n-1}, p = P_n; dpm1/dp likewise.
    double pm1 = 1.0, p = u;
    double dpm1 = 0.0, dp = 1.0;
    double tp = t;       // t^n at n = 1
    double ksum = 1.0;   // n = 0 term: (2*0+1) t^0 P_0
    double gr = 0.0, gt = 0.0;
    for (int n = 1; n <= truncation; ++n) {
      const double c = (2 * n + 1) * tp;
      ksum += c * p;
      gr += c * n * p;
      gt += c * dp;
      const double pn1 = ((2 * n + 1) * u * p - n * pm1) / (n + 1);
      const double dpn1 = dpm1 + (2 * n + 1) * p;
      pm1 = p;
      p = pn1;
      dpm1 = dp;
      dp = dpn1;
      tp *= t;
    }
    psum += gw[i] * ksum;
    if (grad != nullptr) {
      // grad = sum_n (2n+1) t^n/r [ n P_n xhat + P'_n (s - u xhat) ].
      const double cr = gw[i] * inv_r * (gr - gt * u);
      const double ct = gw[i] * inv_r * gt;
      gxs += cr * xh + ct * sx[i];
      gys += cr * yh + ct * sy[i];
      gzs += cr * zh + ct * sz[i];
    }
  }
  *phi += psum;
  if (grad != nullptr) {
    grad->x += gxs;
    grad->y += gys;
    grad->z += gzs;
  }
}

// ---------------------------------------------------------------------------
// Van der Waals per-pair arithmetic. This sequence IS the bitwise contract
// between the portable and avx2 backends: every operation below is either
// correctly rounded (sub/mul/div/nearbyint) or an explicit FMA, and the
// avx2 backend executes the identical sequence with vector intrinsics
// (_mm256_fmadd_pd for std::fma, _mm256_round_pd-to-nearest for
// std::nearbyint, blends for the ternaries — selects never contract).
// The portable lane loops therefore reproduce the avx2 lanes exactly.
// ---------------------------------------------------------------------------

// Minimum-image wrap of one displacement component for a cubic box:
// d -= period * nearbyint(d / period), with the division precomputed as a
// multiply. nearbyint under the default rounding mode is round-half-even,
// matching _MM_FROUND_TO_NEAREST_INT; fma(-period, n, d) matches fnmadd.
inline double vdw_wrap(double d, double period, double inv_period) {
  return std::fma(-period, std::nearbyint(d * inv_period), d);
}

// Energy E and gradient coefficient c2 = 2 dE/dr2 of one pair at squared
// distance r2 with pair parameters rm2 = Rmin_ij^2, e = eps_ij. The target
// accumulates phi += E and grad += c2 * (dx, dy, dz); the source side
// negates c2 (exact). Pairs at or beyond the cutoff yield exactly +0.0 for
// both outputs (the avx2 backend masks to +0.0 the same way).
inline void vdw_pair(double r2, double rm2, double e, const VdwParams& vp,
                     double& e_out, double& c2_out) {
  const double inv_r2 = 1.0 / r2;
  const double x2 = rm2 * inv_r2;
  const double x6 = (x2 * x2) * x2;
  const double x12 = x6 * x6;
  const double energy = e * std::fma(-2.0, x6, x12);
  const double g0 = -6.0 * ((e * (x12 - x6)) * inv_r2);
  const double cmr = vp.cutoff2 - r2;
  const double s = ((cmr * cmr) * std::fma(2.0, r2, vp.cm3o)) * vp.inv_denom;
  const double ds = (cmr * (vp.cuton2 - r2)) * vp.inv_denom6;
  const double energy_sw = energy * s;
  const double g_sw = std::fma(g0, s, energy * ds);
  const bool switched = r2 > vp.cuton2;
  double ef = switched ? energy_sw : energy;
  double gf = switched ? g_sw : g0;
  if (!(r2 < vp.cutoff2)) {
    ef = 0.0;
    gf = 0.0;
  }
  e_out = ef;
  c2_out = 2.0 * gf;
}

}  // namespace hfmm::pkern::detail

namespace hfmm::pkern {

struct KernelBackend;

// Backend tables defined in kernel_portable.cpp / kernel_avx2.cpp /
// kernel_avx512.cpp.
const KernelBackend& portable_backend();
const KernelBackend& avx2_backend();
bool avx2_cpu_supported();
const KernelBackend& avx512_backend();
bool avx512_cpu_supported();

}  // namespace hfmm::pkern
