// Portable particle-kernel backend: every hot loop is written as fixed
// kW-wide lane arrays with per-lane scalar arithmetic, the shape the SLP
// vectorizer turns into packed sqrt/div/fma for whatever ISA the build
// targets. 1/sqrt stays the exact IEEE sequence (vsqrtpd + vdivpd on x86),
// so this backend is also the bit-conservative side of an A/B comparison
// against the rsqrt-seeded AVX2 backend.

#include <cmath>
#include <cstddef>

#include "hfmm/pkern/kernels.hpp"
#include "kernel_util.hpp"

namespace hfmm::pkern {

namespace {

using detail::kW;

// Accumulates sources [sb, se) onto one target held in tx/ty/tz; the kW
// partial sums per quantity are merged by the caller. `self` (when inside
// [sb, se)) is skipped by routing its block to the scalar path.
struct TargetAcc {
  double phi[kW] = {};
  double gx[kW] = {}, gy[kW] = {}, gz[kW] = {};
};

template <bool WithGrad>
inline void accumulate_target(const double* x, const double* y,
                              const double* z, const double* q, double tx,
                              double ty, double tz, std::size_t sb,
                              std::size_t se, double soft2, TargetAcc& acc) {
  std::size_t j = sb;
  for (; j + kW <= se; j += kW) {
    for (std::size_t w = 0; w < kW; ++w) {
      const double dx = tx - x[j + w];
      const double dy = ty - y[j + w];
      const double dz = tz - z[j + w];
      const double r2 = dx * dx + dy * dy + dz * dz + soft2;
      const double inv_r = 1.0 / std::sqrt(r2);
      acc.phi[w] += q[j + w] * inv_r;
      if constexpr (WithGrad) {
        const double c = -q[j + w] * inv_r * inv_r * inv_r;
        acc.gx[w] += c * dx;
        acc.gy[w] += c * dy;
        acc.gz[w] += c * dz;
      }
    }
  }
  for (; j < se; ++j) {
    const double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
    const double r2 = dx * dx + dy * dy + dz * dz + soft2;
    const double inv_r = 1.0 / std::sqrt(r2);
    acc.phi[0] += q[j] * inv_r;
    if constexpr (WithGrad) {
      const double c = -q[j] * inv_r * inv_r * inv_r;
      acc.gx[0] += c * dx;
      acc.gy[0] += c * dy;
      acc.gz[0] += c * dz;
    }
  }
}

inline double lane_sum(const double* v) {
  return (v[0] + v[1]) + (v[2] + v[3]);
}

void portable_p2p(const double* x, const double* y, const double* z,
                  const double* q, std::size_t tb, std::size_t te,
                  std::size_t sb, std::size_t se, double* phi, Vec3* grad,
                  double soft2) {
  const bool identical = tb == sb && te == se;
  for (std::size_t i = tb; i < te; ++i) {
    TargetAcc acc;
    if (identical) {
      // Split around the self pair; both halves stay on the vector path.
      if (grad != nullptr) {
        accumulate_target<true>(x, y, z, q, x[i], y[i], z[i], sb, i, soft2,
                                acc);
        accumulate_target<true>(x, y, z, q, x[i], y[i], z[i], i + 1, se,
                                soft2, acc);
      } else {
        accumulate_target<false>(x, y, z, q, x[i], y[i], z[i], sb, i, soft2,
                                 acc);
        accumulate_target<false>(x, y, z, q, x[i], y[i], z[i], i + 1, se,
                                 soft2, acc);
      }
    } else if (grad != nullptr) {
      accumulate_target<true>(x, y, z, q, x[i], y[i], z[i], sb, se, soft2,
                              acc);
    } else {
      accumulate_target<false>(x, y, z, q, x[i], y[i], z[i], sb, se, soft2,
                               acc);
    }
    phi[i - tb] += lane_sum(acc.phi);
    if (grad != nullptr) {
      grad[i - tb].x += lane_sum(acc.gx);
      grad[i - tb].y += lane_sum(acc.gy);
      grad[i - tb].z += lane_sum(acc.gz);
    }
  }
}

template <bool WithGrad>
void portable_p2p_symmetric_impl(const double* x, const double* y,
                                 const double* z, const double* q,
                                 std::size_t tb, std::size_t te,
                                 std::size_t sb, std::size_t se, double* phi,
                                 double* gx, double* gy, double* gz,
                                 double soft2) {
  const std::size_t nt = te - tb;
  for (std::size_t i = tb; i < te; ++i) {
    const double tx = x[i], ty = y[i], tz = z[i], tq = q[i];
    TargetAcc acc;
    std::size_t j = sb;
    for (; j + kW <= se; j += kW) {
      for (std::size_t w = 0; w < kW; ++w) {
        const std::size_t s = j + w - sb;
        const double dx = tx - x[j + w];
        const double dy = ty - y[j + w];
        const double dz = tz - z[j + w];
        const double r2 = dx * dx + dy * dy + dz * dz + soft2;
        const double inv_r = 1.0 / std::sqrt(r2);
        acc.phi[w] += q[j + w] * inv_r;
        phi[nt + s] += tq * inv_r;
        if constexpr (WithGrad) {
          const double inv_r3 = inv_r * inv_r * inv_r;
          const double ct = -q[j + w] * inv_r3;
          acc.gx[w] += ct * dx;
          acc.gy[w] += ct * dy;
          acc.gz[w] += ct * dz;
          const double cs = tq * inv_r3;
          gx[nt + s] += cs * dx;
          gy[nt + s] += cs * dy;
          gz[nt + s] += cs * dz;
        }
      }
    }
    for (; j < se; ++j) {
      const std::size_t s = j - sb;
      const double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
      const double r2 = dx * dx + dy * dy + dz * dz + soft2;
      const double inv_r = 1.0 / std::sqrt(r2);
      acc.phi[0] += q[j] * inv_r;
      phi[nt + s] += tq * inv_r;
      if constexpr (WithGrad) {
        const double inv_r3 = inv_r * inv_r * inv_r;
        const double ct = -q[j] * inv_r3;
        acc.gx[0] += ct * dx;
        acc.gy[0] += ct * dy;
        acc.gz[0] += ct * dz;
        const double cs = tq * inv_r3;
        gx[nt + s] += cs * dx;
        gy[nt + s] += cs * dy;
        gz[nt + s] += cs * dz;
      }
    }
    phi[i - tb] += lane_sum(acc.phi);
    if constexpr (WithGrad) {
      gx[i - tb] += lane_sum(acc.gx);
      gy[i - tb] += lane_sum(acc.gy);
      gz[i - tb] += lane_sum(acc.gz);
    }
  }
}

void portable_p2p_symmetric(const double* x, const double* y, const double* z,
                            const double* q, std::size_t tb, std::size_t te,
                            std::size_t sb, std::size_t se, double* phi,
                            double* gx, double* gy, double* gz, double soft2) {
  if (gx != nullptr)
    portable_p2p_symmetric_impl<true>(x, y, z, q, tb, te, sb, se, phi, gx, gy,
                                      gz, soft2);
  else
    portable_p2p_symmetric_impl<false>(x, y, z, q, tb, te, sb, se, phi, gx,
                                       gy, gz, soft2);
}

void portable_p2m(const double* spx, const double* spy, const double* spz,
                  std::size_t k, const double* px, const double* py,
                  const double* pz, const double* pq, std::size_t n,
                  double* g) {
  for (std::size_t i = 0; i < k; ++i) {
    TargetAcc acc;
    accumulate_target<false>(px, py, pz, pq, spx[i], spy[i], spz[i], 0, n,
                             0.0, acc);
    g[i] += lane_sum(acc.phi);
  }
}

// L2P over one kW-wide particle block: the Legendre and t^n recurrences run
// lane-parallel (one particle per lane) with rolling registers, so the
// per-sphere-point cost is ~8 lane-wide fused ops per series term.
template <bool WithGrad>
inline void l2p_block(const double* sx, const double* sy, const double* sz,
                      const double* gw, std::size_t k, int truncation,
                      double a, double cx, double cy, double cz,
                      const double* px, const double* py, const double* pz,
                      double* phi, Vec3* grad) {
  double xh[kW], yh[kW], zh[kW], t[kW], inv_r[kW];
  for (std::size_t w = 0; w < kW; ++w) {
    const double xr = px[w] - cx, yr = py[w] - cy, zr = pz[w] - cz;
    const double r = std::sqrt(xr * xr + yr * yr + zr * zr);
    inv_r[w] = 1.0 / r;
    xh[w] = xr * inv_r[w];
    yh[w] = yr * inv_r[w];
    zh[w] = zr * inv_r[w];
    t[w] = r / a;
  }
  double psum[kW] = {};
  double gxs[kW] = {}, gys[kW] = {}, gzs[kW] = {};
  for (std::size_t i = 0; i < k; ++i) {
    const double six = sx[i], siy = sy[i], siz = sz[i], gwi = gw[i];
    double u[kW], pm1[kW], p[kW], dpm1[kW], dp[kW], tp[kW];
    double ksum[kW], gr[kW], gt[kW];
    for (std::size_t w = 0; w < kW; ++w) {
      u[w] = six * xh[w] + siy * yh[w] + siz * zh[w];
      pm1[w] = 1.0;
      p[w] = u[w];
      dpm1[w] = 0.0;
      dp[w] = 1.0;
      tp[w] = t[w];
      ksum[w] = 1.0;
      gr[w] = 0.0;
      gt[w] = 0.0;
    }
    for (int n = 1; n <= truncation; ++n) {
      const double c2n1 = 2 * n + 1;
      const double inv_n1 = 1.0 / (n + 1);
      for (std::size_t w = 0; w < kW; ++w) {
        const double c = c2n1 * tp[w];
        ksum[w] += c * p[w];
        if constexpr (WithGrad) {
          gr[w] += c * n * p[w];
          gt[w] += c * dp[w];
        }
        const double pn1 = (c2n1 * u[w] * p[w] - n * pm1[w]) * inv_n1;
        const double dpn1 = dpm1[w] + c2n1 * p[w];
        pm1[w] = p[w];
        p[w] = pn1;
        dpm1[w] = dp[w];
        dp[w] = dpn1;
        tp[w] *= t[w];
      }
    }
    for (std::size_t w = 0; w < kW; ++w) {
      psum[w] += gwi * ksum[w];
      if constexpr (WithGrad) {
        const double cr = gwi * inv_r[w] * (gr[w] - gt[w] * u[w]);
        const double ct = gwi * inv_r[w] * gt[w];
        gxs[w] += cr * xh[w] + ct * six;
        gys[w] += cr * yh[w] + ct * siy;
        gzs[w] += cr * zh[w] + ct * siz;
      }
    }
  }
  for (std::size_t w = 0; w < kW; ++w) {
    phi[w] += psum[w];
    if constexpr (WithGrad) {
      grad[w].x += gxs[w];
      grad[w].y += gys[w];
      grad[w].z += gzs[w];
    }
  }
}

void portable_l2p(const double* sx, const double* sy, const double* sz,
                  const double* gw, std::size_t k, int truncation, double a,
                  double cx, double cy, double cz, const double* px,
                  const double* py, const double* pz, std::size_t n,
                  double* phi, Vec3* grad) {
  const double tiny2 = detail::kTinyRadiusRatio * a;
  const double tiny_r2 = tiny2 * tiny2;
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) {
    bool near_centre = false;
    for (std::size_t w = 0; w < kW; ++w) {
      const double xr = px[j + w] - cx, yr = py[j + w] - cy,
                   zr = pz[j + w] - cz;
      if (xr * xr + yr * yr + zr * zr < tiny_r2) near_centre = true;
    }
    if (near_centre) {
      for (std::size_t w = 0; w < kW; ++w)
        detail::scalar_l2p_one(sx, sy, sz, gw, k, truncation, a, cx, cy, cz,
                               px[j + w], py[j + w], pz[j + w], phi + j + w,
                               grad != nullptr ? grad + j + w : nullptr);
    } else if (grad != nullptr) {
      l2p_block<true>(sx, sy, sz, gw, k, truncation, a, cx, cy, cz, px + j,
                      py + j, pz + j, phi + j, grad + j);
    } else {
      l2p_block<false>(sx, sy, sz, gw, k, truncation, a, cx, cy, cz, px + j,
                       py + j, pz + j, phi + j, nullptr);
    }
  }
  for (; j < n; ++j)
    detail::scalar_l2p_one(sx, sy, sz, gw, k, truncation, a, cx, cy, cz,
                           px[j], py[j], pz[j], phi + j,
                           grad != nullptr ? grad + j : nullptr);
}

// ---------------------------------------------------------------------------
// Van der Waals (switched Lennard-Jones). Unlike the Coulomb lanes above,
// these carry a BITWISE contract with the avx2 backend (see kernels.hpp):
// source j lands in lane (j - sweep_start) % kW — exactly the avx2 register
// lane — and the lane merge uses the avx2 hsum order (l0 + l2) + (l1 + l3),
// not the Coulomb lane_sum order. Sub-register tails simply leave their
// dead lanes untouched, which matches the avx2 masked +0.0 adds bit for bit
// (accumulators can never hold -0.0, so x + 0.0 == x).
// ---------------------------------------------------------------------------

struct VdwAcc {
  double phi[kW] = {};
  double gx[kW] = {}, gy[kW] = {}, gz[kW] = {};
};

inline double vdw_lane_sum(const double* v) {
  return (v[0] + v[2]) + (v[1] + v[3]);
}

template <bool WithGrad, bool Periodic>
inline void vdw_accumulate_target(const double* x, const double* y,
                                  const double* z, const std::int32_t* type,
                                  double tx, double ty, double tz,
                                  const double* rrow, const double* erow,
                                  std::size_t sb, std::size_t se,
                                  const VdwParams& vp, VdwAcc& acc) {
  for (std::size_t j = sb; j < se; ++j) {
    const std::size_t w = (j - sb) % kW;
    double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
    if constexpr (Periodic) {
      dx = detail::vdw_wrap(dx, vp.period, vp.inv_period);
      dy = detail::vdw_wrap(dy, vp.period, vp.inv_period);
      dz = detail::vdw_wrap(dz, vp.period, vp.inv_period);
    }
    const double r2 = std::fma(dz, dz, std::fma(dy, dy, dx * dx));
    double e_ij, c2;
    detail::vdw_pair(r2, rrow[type[j]], erow[type[j]], vp, e_ij, c2);
    acc.phi[w] += e_ij;
    if constexpr (WithGrad) {
      acc.gx[w] = std::fma(c2, dx, acc.gx[w]);
      acc.gy[w] = std::fma(c2, dy, acc.gy[w]);
      acc.gz[w] = std::fma(c2, dz, acc.gz[w]);
    }
  }
}

template <bool WithGrad, bool Periodic>
void portable_p2p_vdw_impl(const double* x, const double* y, const double* z,
                           const std::int32_t* type, std::size_t tb,
                           std::size_t te, std::size_t sb, std::size_t se,
                           double* phi, Vec3* grad, const VdwParams& vp) {
  const bool identical = tb == sb && te == se;
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * vp.ntypes;
    const double* rrow = vp.rmin2 + row;
    const double* erow = vp.eps + row;
    VdwAcc acc;
    if (identical) {
      // Split around the self pair; sweep starts reset the lane phase, the
      // same decomposition the avx2 backend uses.
      vdw_accumulate_target<WithGrad, Periodic>(x, y, z, type, x[i], y[i],
                                                z[i], rrow, erow, sb, i, vp,
                                                acc);
      vdw_accumulate_target<WithGrad, Periodic>(x, y, z, type, x[i], y[i],
                                                z[i], rrow, erow, i + 1, se,
                                                vp, acc);
    } else {
      vdw_accumulate_target<WithGrad, Periodic>(x, y, z, type, x[i], y[i],
                                                z[i], rrow, erow, sb, se, vp,
                                                acc);
    }
    phi[i - tb] += vdw_lane_sum(acc.phi);
    if constexpr (WithGrad) {
      grad[i - tb].x += vdw_lane_sum(acc.gx);
      grad[i - tb].y += vdw_lane_sum(acc.gy);
      grad[i - tb].z += vdw_lane_sum(acc.gz);
    }
  }
}

void portable_p2p_vdw(const double* x, const double* y, const double* z,
                      const std::int32_t* type, std::size_t tb, std::size_t te,
                      std::size_t sb, std::size_t se, double* phi, Vec3* grad,
                      const VdwParams& vp) {
  const bool periodic = vp.period > 0.0;
  if (grad != nullptr) {
    if (periodic)
      portable_p2p_vdw_impl<true, true>(x, y, z, type, tb, te, sb, se, phi,
                                        grad, vp);
    else
      portable_p2p_vdw_impl<true, false>(x, y, z, type, tb, te, sb, se, phi,
                                         grad, vp);
  } else if (periodic) {
    portable_p2p_vdw_impl<false, true>(x, y, z, type, tb, te, sb, se, phi,
                                       grad, vp);
  } else {
    portable_p2p_vdw_impl<false, false>(x, y, z, type, tb, te, sb, se, phi,
                                        grad, vp);
  }
}

template <bool WithGrad, bool Periodic>
void portable_p2p_vdw_symmetric_impl(const double* x, const double* y,
                                     const double* z,
                                     const std::int32_t* type, std::size_t tb,
                                     std::size_t te, std::size_t sb,
                                     std::size_t se, double* phi, double* gx,
                                     double* gy, double* gz,
                                     const VdwParams& vp) {
  const std::size_t nt = te - tb;
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * vp.ntypes;
    const double* rrow = vp.rmin2 + row;
    const double* erow = vp.eps + row;
    const double tx = x[i], ty = y[i], tz = z[i];
    VdwAcc acc;
    for (std::size_t j = sb; j < se; ++j) {
      const std::size_t w = (j - sb) % kW;
      const std::size_t s = nt + (j - sb);
      double dx = tx - x[j], dy = ty - y[j], dz = tz - z[j];
      if constexpr (Periodic) {
        dx = detail::vdw_wrap(dx, vp.period, vp.inv_period);
        dy = detail::vdw_wrap(dy, vp.period, vp.inv_period);
        dz = detail::vdw_wrap(dz, vp.period, vp.inv_period);
      }
      const double r2 = std::fma(dz, dz, std::fma(dy, dy, dx * dx));
      double e_ij, c2;
      detail::vdw_pair(r2, rrow[type[j]], erow[type[j]], vp, e_ij, c2);
      acc.phi[w] += e_ij;
      phi[s] += e_ij;  // E_ij is symmetric in i <-> j
      if constexpr (WithGrad) {
        acc.gx[w] = std::fma(c2, dx, acc.gx[w]);
        acc.gy[w] = std::fma(c2, dy, acc.gy[w]);
        acc.gz[w] = std::fma(c2, dz, acc.gz[w]);
        gx[s] = std::fma(-c2, dx, gx[s]);
        gy[s] = std::fma(-c2, dy, gy[s]);
        gz[s] = std::fma(-c2, dz, gz[s]);
      }
    }
    phi[i - tb] += vdw_lane_sum(acc.phi);
    if constexpr (WithGrad) {
      gx[i - tb] += vdw_lane_sum(acc.gx);
      gy[i - tb] += vdw_lane_sum(acc.gy);
      gz[i - tb] += vdw_lane_sum(acc.gz);
    }
  }
}

void portable_p2p_vdw_symmetric(const double* x, const double* y,
                                const double* z, const std::int32_t* type,
                                std::size_t tb, std::size_t te, std::size_t sb,
                                std::size_t se, double* phi, double* gx,
                                double* gy, double* gz, const VdwParams& vp) {
  const bool periodic = vp.period > 0.0;
  if (gx != nullptr) {
    if (periodic)
      portable_p2p_vdw_symmetric_impl<true, true>(x, y, z, type, tb, te, sb,
                                                  se, phi, gx, gy, gz, vp);
    else
      portable_p2p_vdw_symmetric_impl<true, false>(x, y, z, type, tb, te, sb,
                                                   se, phi, gx, gy, gz, vp);
  } else if (periodic) {
    portable_p2p_vdw_symmetric_impl<false, true>(x, y, z, type, tb, te, sb,
                                                 se, phi, gx, gy, gz, vp);
  } else {
    portable_p2p_vdw_symmetric_impl<false, false>(x, y, z, type, tb, te, sb,
                                                  se, phi, gx, gy, gz, vp);
  }
}

}  // namespace

const KernelBackend& portable_backend() {
  static const KernelBackend backend{
      "portable",   portable_p2p,     portable_p2p_symmetric, portable_p2m,
      portable_l2p, portable_p2p_vdw, portable_p2p_vdw_symmetric};
  return backend;
}

}  // namespace hfmm::pkern
