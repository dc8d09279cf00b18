// AVX2/FMA particle-kernel backend. The P2P family computes 1/sqrt as a
// 12-bit _mm_rsqrt_ps seed widened to double plus two Newton-Raphson
// refinements (relative error ~6e-14, one-sided; see kernels.hpp), replacing
// the vsqrtpd+vdivpd dependency chain with pure mul/fma throughput. Source
// tails shorter than a register are handled with maskload/maskstore; padded
// lanes get q = 0 and r2 = 1 so they contribute exactly nothing. Functions
// carry target("avx2,fma") so this TU compiles at any x86-64 baseline and
// the cpuid dispatcher decides at runtime.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "hfmm/pkern/kernels.hpp"
#include "kernel_util.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define HFMM_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#else
#define HFMM_HAVE_AVX2_BACKEND 0
#endif

namespace hfmm::pkern {

#if HFMM_HAVE_AVX2_BACKEND

namespace {

#define HFMM_AVX2_TARGET __attribute__((target("avx2,fma")))

// Sliding-window tail masks: kTailMask + 4 - rem gives rem active lanes.
alignas(32) constexpr std::int64_t kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

HFMM_AVX2_TARGET inline __m256i tail_mask(std::size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 4 - rem));
}

HFMM_AVX2_TARGET inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// rsqrt seed + two Newton steps: y <- y/2 (3 - r2 y^2). Each step maps a
// relative error e to -(3/2)e^2, so the 1.5*2^-12 seed lands at ~6e-14.
HFMM_AVX2_TARGET inline __m256d rsqrt_nr2(__m256d r2) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d three = _mm256_set1_pd(3.0);
  __m256d y = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(r2)));
  y = _mm256_mul_pd(_mm256_mul_pd(half, y),
                    _mm256_fnmadd_pd(r2, _mm256_mul_pd(y, y), three));
  y = _mm256_mul_pd(_mm256_mul_pd(half, y),
                    _mm256_fnmadd_pd(r2, _mm256_mul_pd(y, y), three));
  return y;
}

struct AccV {
  __m256d phi, gx, gy, gz;
};

HFMM_AVX2_TARGET inline AccV acc_zero() {
  const __m256d z = _mm256_setzero_pd();
  return {z, z, z, z};
}

// Accumulates sources [lo, hi) onto NT broadcast targets read from
// (tpx, tpy, tpz)[ti .. ti+NT). Register-blocking the target side amortises
// the four source loads per iteration across NT independent rsqrt/NR chains;
// the single-target inner loop is latency-bound on the convert+rsqrt
// sequence, so NT = 2 roughly doubles throughput.
template <bool WithGrad, int NT>
HFMM_AVX2_TARGET inline void accum_targets(
    const double* x, const double* y, const double* z, const double* q,
    const double* tpx, const double* tpy, const double* tpz, std::size_t ti,
    std::size_t lo, std::size_t hi, __m256d soft2, AccV* acc) {
  __m256d tx[NT], ty[NT], tz[NT];
  for (int u = 0; u < NT; ++u) {
    tx[u] = _mm256_set1_pd(tpx[ti + u]);
    ty[u] = _mm256_set1_pd(tpy[ti + u]);
    tz[u] = _mm256_set1_pd(tpz[ti + u]);
  }
  const __m256d ones = _mm256_set1_pd(1.0);
  std::size_t j = lo;
  for (; j + 4 <= hi; j += 4) {
    const __m256d sxv = _mm256_loadu_pd(x + j);
    const __m256d syv = _mm256_loadu_pd(y + j);
    const __m256d szv = _mm256_loadu_pd(z + j);
    const __m256d qs = _mm256_loadu_pd(q + j);
    for (int u = 0; u < NT; ++u) {
      const __m256d dx = _mm256_sub_pd(tx[u], sxv);
      const __m256d dy = _mm256_sub_pd(ty[u], syv);
      const __m256d dz = _mm256_sub_pd(tz[u], szv);
      __m256d r2 = _mm256_fmadd_pd(dx, dx, soft2);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      const __m256d inv_r = rsqrt_nr2(r2);
      acc[u].phi = _mm256_fmadd_pd(qs, inv_r, acc[u].phi);
      if constexpr (WithGrad) {
        const __m256d inv_r3 =
            _mm256_mul_pd(_mm256_mul_pd(inv_r, inv_r), inv_r);
        const __m256d c = _mm256_mul_pd(qs, inv_r3);
        acc[u].gx = _mm256_fnmadd_pd(c, dx, acc[u].gx);
        acc[u].gy = _mm256_fnmadd_pd(c, dy, acc[u].gy);
        acc[u].gz = _mm256_fnmadd_pd(c, dz, acc[u].gz);
      }
    }
  }
  if (j < hi) {
    const __m256i m = tail_mask(hi - j);
    const __m256d md = _mm256_castsi256_pd(m);
    const __m256d sxv = _mm256_maskload_pd(x + j, m);
    const __m256d syv = _mm256_maskload_pd(y + j, m);
    const __m256d szv = _mm256_maskload_pd(z + j, m);
    const __m256d qs = _mm256_maskload_pd(q + j, m);  // 0 in dead lanes
    for (int u = 0; u < NT; ++u) {
      const __m256d dx = _mm256_sub_pd(tx[u], sxv);
      const __m256d dy = _mm256_sub_pd(ty[u], syv);
      const __m256d dz = _mm256_sub_pd(tz[u], szv);
      __m256d r2 = _mm256_fmadd_pd(dx, dx, soft2);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      r2 = _mm256_blendv_pd(ones, r2, md);  // keep rsqrt finite in dead lanes
      const __m256d inv_r = rsqrt_nr2(r2);
      acc[u].phi = _mm256_fmadd_pd(qs, inv_r, acc[u].phi);
      if constexpr (WithGrad) {
        const __m256d inv_r3 =
            _mm256_mul_pd(_mm256_mul_pd(inv_r, inv_r), inv_r);
        const __m256d c = _mm256_mul_pd(qs, inv_r3);
        acc[u].gx = _mm256_fnmadd_pd(c, dx, acc[u].gx);
        acc[u].gy = _mm256_fnmadd_pd(c, dy, acc[u].gy);
        acc[u].gz = _mm256_fnmadd_pd(c, dz, acc[u].gz);
      }
    }
  }
}

template <bool WithGrad>
HFMM_AVX2_TARGET void avx2_p2p_impl(const double* x, const double* y,
                                    const double* z, const double* q,
                                    std::size_t tb, std::size_t te,
                                    std::size_t sb, std::size_t se,
                                    double* phi, Vec3* grad, double soft2) {
  const bool identical = tb == sb && te == se;
  const __m256d s2 = _mm256_set1_pd(soft2);
  std::size_t i = tb;
  if (!identical) {
    // Distinct target/source ranges (the common near-field case): two
    // targets per source sweep.
    for (; i + 2 <= te; i += 2) {
      AccV acc[2] = {acc_zero(), acc_zero()};
      accum_targets<WithGrad, 2>(x, y, z, q, x, y, z, i, sb, se, s2, acc);
      for (int u = 0; u < 2; ++u) {
        phi[i + u - tb] += hsum(acc[u].phi);
        if constexpr (WithGrad) {
          grad[i + u - tb].x += hsum(acc[u].gx);
          grad[i + u - tb].y += hsum(acc[u].gy);
          grad[i + u - tb].z += hsum(acc[u].gz);
        }
      }
    }
  }
  // Identical ranges (self-box): the source split around i differs per
  // target, so these stay single-target. Also mops up the odd tail target.
  for (; i < te; ++i) {
    AccV acc = acc_zero();
    if (identical) {
      accum_targets<WithGrad, 1>(x, y, z, q, x, y, z, i, sb, i, s2, &acc);
      accum_targets<WithGrad, 1>(x, y, z, q, x, y, z, i, i + 1, se, s2, &acc);
    } else {
      accum_targets<WithGrad, 1>(x, y, z, q, x, y, z, i, sb, se, s2, &acc);
    }
    phi[i - tb] += hsum(acc.phi);
    if constexpr (WithGrad) {
      grad[i - tb].x += hsum(acc.gx);
      grad[i - tb].y += hsum(acc.gy);
      grad[i - tb].z += hsum(acc.gz);
    }
  }
}

void avx2_p2p(const double* x, const double* y, const double* z,
              const double* q, std::size_t tb, std::size_t te, std::size_t sb,
              std::size_t se, double* phi, Vec3* grad, double soft2) {
  if (grad != nullptr)
    avx2_p2p_impl<true>(x, y, z, q, tb, te, sb, se, phi, grad, soft2);
  else
    avx2_p2p_impl<false>(x, y, z, q, tb, te, sb, se, phi, grad, soft2);
}

template <bool WithGrad>
HFMM_AVX2_TARGET void avx2_p2p_symmetric_impl(
    const double* x, const double* y, const double* z, const double* q,
    std::size_t tb, std::size_t te, std::size_t sb, std::size_t se,
    double* phi, double* gx, double* gy, double* gz, double soft2) {
  const std::size_t nt = te - tb;
  const __m256d s2 = _mm256_set1_pd(soft2);
  const __m256d ones = _mm256_set1_pd(1.0);
  for (std::size_t i = tb; i < te; ++i) {
    const __m256d tx = _mm256_set1_pd(x[i]);
    const __m256d ty = _mm256_set1_pd(y[i]);
    const __m256d tz = _mm256_set1_pd(z[i]);
    const __m256d tq = _mm256_set1_pd(q[i]);
    AccV acc = acc_zero();
    std::size_t j = sb;
    for (; j + 4 <= se; j += 4) {
      const std::size_t s = nt + (j - sb);
      const __m256d dx = _mm256_sub_pd(tx, _mm256_loadu_pd(x + j));
      const __m256d dy = _mm256_sub_pd(ty, _mm256_loadu_pd(y + j));
      const __m256d dz = _mm256_sub_pd(tz, _mm256_loadu_pd(z + j));
      __m256d r2 = _mm256_fmadd_pd(dx, dx, s2);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      const __m256d inv_r = rsqrt_nr2(r2);
      const __m256d qs = _mm256_loadu_pd(q + j);
      acc.phi = _mm256_fmadd_pd(qs, inv_r, acc.phi);
      _mm256_storeu_pd(
          phi + s, _mm256_fmadd_pd(tq, inv_r, _mm256_loadu_pd(phi + s)));
      if constexpr (WithGrad) {
        const __m256d inv_r3 =
            _mm256_mul_pd(_mm256_mul_pd(inv_r, inv_r), inv_r);
        const __m256d ct = _mm256_mul_pd(qs, inv_r3);
        acc.gx = _mm256_fnmadd_pd(ct, dx, acc.gx);
        acc.gy = _mm256_fnmadd_pd(ct, dy, acc.gy);
        acc.gz = _mm256_fnmadd_pd(ct, dz, acc.gz);
        const __m256d cs = _mm256_mul_pd(tq, inv_r3);
        _mm256_storeu_pd(gx + s,
                         _mm256_fmadd_pd(cs, dx, _mm256_loadu_pd(gx + s)));
        _mm256_storeu_pd(gy + s,
                         _mm256_fmadd_pd(cs, dy, _mm256_loadu_pd(gy + s)));
        _mm256_storeu_pd(gz + s,
                         _mm256_fmadd_pd(cs, dz, _mm256_loadu_pd(gz + s)));
      }
    }
    if (j < se) {
      const std::size_t s = nt + (j - sb);
      const __m256i m = tail_mask(se - j);
      const __m256d md = _mm256_castsi256_pd(m);
      const __m256d dx = _mm256_sub_pd(tx, _mm256_maskload_pd(x + j, m));
      const __m256d dy = _mm256_sub_pd(ty, _mm256_maskload_pd(y + j, m));
      const __m256d dz = _mm256_sub_pd(tz, _mm256_maskload_pd(z + j, m));
      __m256d r2 = _mm256_fmadd_pd(dx, dx, s2);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      r2 = _mm256_blendv_pd(ones, r2, md);
      const __m256d inv_r = rsqrt_nr2(r2);
      const __m256d qs = _mm256_maskload_pd(q + j, m);
      acc.phi = _mm256_fmadd_pd(qs, inv_r, acc.phi);
      _mm256_maskstore_pd(
          phi + s, m,
          _mm256_fmadd_pd(tq, inv_r, _mm256_maskload_pd(phi + s, m)));
      if constexpr (WithGrad) {
        const __m256d inv_r3 =
            _mm256_mul_pd(_mm256_mul_pd(inv_r, inv_r), inv_r);
        const __m256d ct = _mm256_mul_pd(qs, inv_r3);
        acc.gx = _mm256_fnmadd_pd(ct, dx, acc.gx);
        acc.gy = _mm256_fnmadd_pd(ct, dy, acc.gy);
        acc.gz = _mm256_fnmadd_pd(ct, dz, acc.gz);
        const __m256d cs = _mm256_mul_pd(tq, inv_r3);
        _mm256_maskstore_pd(
            gx + s, m,
            _mm256_fmadd_pd(cs, dx, _mm256_maskload_pd(gx + s, m)));
        _mm256_maskstore_pd(
            gy + s, m,
            _mm256_fmadd_pd(cs, dy, _mm256_maskload_pd(gy + s, m)));
        _mm256_maskstore_pd(
            gz + s, m,
            _mm256_fmadd_pd(cs, dz, _mm256_maskload_pd(gz + s, m)));
      }
    }
    phi[i - tb] += hsum(acc.phi);
    if constexpr (WithGrad) {
      gx[i - tb] += hsum(acc.gx);
      gy[i - tb] += hsum(acc.gy);
      gz[i - tb] += hsum(acc.gz);
    }
  }
}

void avx2_p2p_symmetric(const double* x, const double* y, const double* z,
                        const double* q, std::size_t tb, std::size_t te,
                        std::size_t sb, std::size_t se, double* phi,
                        double* gx, double* gy, double* gz, double soft2) {
  if (gx != nullptr)
    avx2_p2p_symmetric_impl<true>(x, y, z, q, tb, te, sb, se, phi, gx, gy, gz,
                                  soft2);
  else
    avx2_p2p_symmetric_impl<false>(x, y, z, q, tb, te, sb, se, phi, gx, gy,
                                   gz, soft2);
}

HFMM_AVX2_TARGET void avx2_p2m(const double* spx, const double* spy,
                               const double* spz, std::size_t k,
                               const double* px, const double* py,
                               const double* pz, const double* pq,
                               std::size_t n, double* g) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    AccV acc[2] = {acc_zero(), acc_zero()};
    accum_targets<false, 2>(px, py, pz, pq, spx, spy, spz, i, 0, n, zero, acc);
    g[i] += hsum(acc[0].phi);
    g[i + 1] += hsum(acc[1].phi);
  }
  for (; i < k; ++i) {
    AccV acc = acc_zero();
    accum_targets<false, 1>(px, py, pz, pq, spx, spy, spz, i, 0, n, zero,
                            &acc);
    g[i] += hsum(acc.phi);
  }
}

// L2P: four particles per register, sphere points in the outer loop, the
// Legendre / t^n recurrences rolling in eight ymm accumulators.
template <bool WithGrad>
HFMM_AVX2_TARGET inline void l2p_block(const double* sx, const double* sy,
                                       const double* sz, const double* gw,
                                       std::size_t k, int truncation,
                                       double inv_a, double cx, double cy,
                                       double cz, const double* px,
                                       const double* py, const double* pz,
                                       double* phi, Vec3* grad) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d xr = _mm256_sub_pd(_mm256_loadu_pd(px), _mm256_set1_pd(cx));
  const __m256d yr = _mm256_sub_pd(_mm256_loadu_pd(py), _mm256_set1_pd(cy));
  const __m256d zr = _mm256_sub_pd(_mm256_loadu_pd(pz), _mm256_set1_pd(cz));
  __m256d r2 = _mm256_mul_pd(xr, xr);
  r2 = _mm256_fmadd_pd(yr, yr, r2);
  r2 = _mm256_fmadd_pd(zr, zr, r2);
  // One sqrt + div per 4-particle block; exact, so the series itself stays
  // bitwise close to the scalar reference.
  const __m256d r = _mm256_sqrt_pd(r2);
  const __m256d inv_r = _mm256_div_pd(one, r);
  const __m256d xh = _mm256_mul_pd(xr, inv_r);
  const __m256d yh = _mm256_mul_pd(yr, inv_r);
  const __m256d zh = _mm256_mul_pd(zr, inv_r);
  const __m256d t = _mm256_mul_pd(r, _mm256_set1_pd(inv_a));
  __m256d psum = _mm256_setzero_pd();
  __m256d gxs = _mm256_setzero_pd(), gys = _mm256_setzero_pd(),
          gzs = _mm256_setzero_pd();
  for (std::size_t i = 0; i < k; ++i) {
    const __m256d six = _mm256_set1_pd(sx[i]);
    const __m256d siy = _mm256_set1_pd(sy[i]);
    const __m256d siz = _mm256_set1_pd(sz[i]);
    __m256d u = _mm256_mul_pd(six, xh);
    u = _mm256_fmadd_pd(siy, yh, u);
    u = _mm256_fmadd_pd(siz, zh, u);
    __m256d pm1 = one, p = u;
    __m256d dpm1 = _mm256_setzero_pd(), dp = one;
    __m256d tp = t;
    __m256d ksum = one;
    __m256d gr = _mm256_setzero_pd(), gt = _mm256_setzero_pd();
    for (int n = 1; n <= truncation; ++n) {
      const __m256d c2n1 = _mm256_set1_pd(2 * n + 1);
      const __m256d c = _mm256_mul_pd(c2n1, tp);
      ksum = _mm256_fmadd_pd(c, p, ksum);
      if constexpr (WithGrad) {
        gr = _mm256_fmadd_pd(_mm256_mul_pd(c, _mm256_set1_pd(n)), p, gr);
        gt = _mm256_fmadd_pd(c, dp, gt);
      }
      const __m256d num = _mm256_fmsub_pd(
          _mm256_mul_pd(c2n1, u), p, _mm256_mul_pd(_mm256_set1_pd(n), pm1));
      const __m256d pn1 =
          _mm256_mul_pd(num, _mm256_set1_pd(1.0 / (n + 1)));
      const __m256d dpn1 = _mm256_fmadd_pd(c2n1, p, dpm1);
      pm1 = p;
      p = pn1;
      dpm1 = dp;
      dp = dpn1;
      tp = _mm256_mul_pd(tp, t);
    }
    const __m256d gwi = _mm256_set1_pd(gw[i]);
    psum = _mm256_fmadd_pd(gwi, ksum, psum);
    if constexpr (WithGrad) {
      const __m256d gir = _mm256_mul_pd(gwi, inv_r);
      const __m256d cr = _mm256_mul_pd(gir, _mm256_fnmadd_pd(gt, u, gr));
      const __m256d ct = _mm256_mul_pd(gir, gt);
      gxs = _mm256_add_pd(
          gxs, _mm256_fmadd_pd(cr, xh, _mm256_mul_pd(ct, six)));
      gys = _mm256_add_pd(
          gys, _mm256_fmadd_pd(cr, yh, _mm256_mul_pd(ct, siy)));
      gzs = _mm256_add_pd(
          gzs, _mm256_fmadd_pd(cr, zh, _mm256_mul_pd(ct, siz)));
    }
  }
  alignas(32) double pout[4], gxo[4], gyo[4], gzo[4];
  _mm256_store_pd(pout, psum);
  if constexpr (WithGrad) {
    _mm256_store_pd(gxo, gxs);
    _mm256_store_pd(gyo, gys);
    _mm256_store_pd(gzo, gzs);
  }
  for (std::size_t w = 0; w < 4; ++w) {
    phi[w] += pout[w];
    if constexpr (WithGrad) {
      grad[w].x += gxo[w];
      grad[w].y += gyo[w];
      grad[w].z += gzo[w];
    }
  }
}

void avx2_l2p(const double* sx, const double* sy, const double* sz,
              const double* gw, std::size_t k, int truncation, double a,
              double cx, double cy, double cz, const double* px,
              const double* py, const double* pz, std::size_t n, double* phi,
              Vec3* grad) {
  const double tiny = detail::kTinyRadiusRatio * a;
  const double tiny_r2 = tiny * tiny;
  const double inv_a = 1.0 / a;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    bool near_centre = false;
    for (std::size_t w = 0; w < 4; ++w) {
      const double xr = px[j + w] - cx, yr = py[j + w] - cy,
                   zr = pz[j + w] - cz;
      if (xr * xr + yr * yr + zr * zr < tiny_r2) near_centre = true;
    }
    if (near_centre) {
      for (std::size_t w = 0; w < 4; ++w)
        detail::scalar_l2p_one(sx, sy, sz, gw, k, truncation, a, cx, cy, cz,
                               px[j + w], py[j + w], pz[j + w], phi + j + w,
                               grad != nullptr ? grad + j + w : nullptr);
    } else if (grad != nullptr) {
      l2p_block<true>(sx, sy, sz, gw, k, truncation, inv_a, cx, cy, cz,
                      px + j, py + j, pz + j, phi + j, grad + j);
    } else {
      l2p_block<false>(sx, sy, sz, gw, k, truncation, inv_a, cx, cy, cz,
                       px + j, py + j, pz + j, phi + j, nullptr);
    }
  }
  for (; j < n; ++j)
    detail::scalar_l2p_one(sx, sy, sz, gw, k, truncation, a, cx, cy, cz,
                           px[j], py[j], pz[j], phi + j,
                           grad != nullptr ? grad + j : nullptr);
}

// ---------------------------------------------------------------------------
// Van der Waals (switched Lennard-Jones). These lanes carry a BITWISE
// contract with the portable backend (see kernels.hpp): every vector op
// below is the correctly rounded sub/mul/div/round or explicit-FMA twin of
// the same step in detail::vdw_pair / detail::vdw_wrap, executed in the
// identical sequence, and the portable loops assign source j to lane
// (j - sweep_start) % 4 to mirror these registers. Excluded lanes (beyond
// the cutoff, or dead tail lanes) are AND-masked to +0.0 before the
// accumulate, which the portable side reproduces by skipping them (the
// accumulators can never hold -0.0, so x + 0.0 == x bit for bit).
// ---------------------------------------------------------------------------

// int32 sliding-window tail mask for the per-particle type loads.
alignas(16) constexpr std::int32_t kTailMask32[8] = {-1, -1, -1, -1,
                                                     0,  0,  0,  0};

HFMM_AVX2_TARGET inline __m128i tail_mask32(std::size_t rem) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kTailMask32 + 4 - rem));
}

struct VdwConstsV {
  __m256d one, two, m2, m6, cuton2, cutoff2, cm3o, inv_denom, inv_denom6,
      period, inv_period, all;
};

HFMM_AVX2_TARGET inline VdwConstsV vdw_consts(const VdwParams& vp) {
  return {_mm256_set1_pd(1.0),
          _mm256_set1_pd(2.0),
          _mm256_set1_pd(-2.0),
          _mm256_set1_pd(-6.0),
          _mm256_set1_pd(vp.cuton2),
          _mm256_set1_pd(vp.cutoff2),
          _mm256_set1_pd(vp.cm3o),
          _mm256_set1_pd(vp.inv_denom),
          _mm256_set1_pd(vp.inv_denom6),
          _mm256_set1_pd(vp.period),
          _mm256_set1_pd(vp.inv_period),
          _mm256_castsi256_pd(_mm256_set1_epi64x(-1))};
}

// row[tj[l]] in each lane l. The all-ones mask gathers every lane, as
// _mm256_i32gather_pd does; the masked form takes a defined pass-through
// operand where the plain one reads an undefined register, which GCC
// flags with -Wmaybe-uninitialized.
HFMM_AVX2_TARGET inline __m256d gather_row(const double* row, __m128i tj,
                                           const VdwConstsV& c) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), row, tj, c.all, 8);
}

// Minimum-image wrap: round-to-nearest-even matches std::nearbyint under
// the default rounding mode, fnmadd matches fma(-period, n, d).
HFMM_AVX2_TARGET inline __m256d vdw_wrap_v(__m256d d, const VdwConstsV& c) {
  const __m256d n =
      _mm256_round_pd(_mm256_mul_pd(d, c.inv_period),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  return _mm256_fnmadd_pd(c.period, n, d);
}

// Vector twin of detail::vdw_pair. `lanes` is all-ones where the lane holds
// a live source; it is combined with the r2 < cutoff2 test so excluded
// lanes emit exactly +0.0 for both outputs.
HFMM_AVX2_TARGET inline void vdw_pair_v(__m256d r2, __m256d rm2, __m256d ev,
                                        const VdwConstsV& c, __m256d lanes,
                                        __m256d& e_out, __m256d& c2_out) {
  const __m256d inv_r2 = _mm256_div_pd(c.one, r2);
  const __m256d x2 = _mm256_mul_pd(rm2, inv_r2);
  const __m256d x6 = _mm256_mul_pd(_mm256_mul_pd(x2, x2), x2);
  const __m256d x12 = _mm256_mul_pd(x6, x6);
  const __m256d energy = _mm256_mul_pd(ev, _mm256_fmadd_pd(c.m2, x6, x12));
  const __m256d g0 = _mm256_mul_pd(
      c.m6,
      _mm256_mul_pd(_mm256_mul_pd(ev, _mm256_sub_pd(x12, x6)), inv_r2));
  const __m256d cmr = _mm256_sub_pd(c.cutoff2, r2);
  const __m256d s =
      _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(cmr, cmr),
                                  _mm256_fmadd_pd(c.two, r2, c.cm3o)),
                    c.inv_denom);
  const __m256d ds = _mm256_mul_pd(
      _mm256_mul_pd(cmr, _mm256_sub_pd(c.cuton2, r2)), c.inv_denom6);
  const __m256d energy_sw = _mm256_mul_pd(energy, s);
  const __m256d g_sw = _mm256_fmadd_pd(g0, s, _mm256_mul_pd(energy, ds));
  const __m256d switched = _mm256_cmp_pd(r2, c.cuton2, _CMP_GT_OQ);
  const __m256d ef = _mm256_blendv_pd(energy, energy_sw, switched);
  const __m256d gf = _mm256_blendv_pd(g0, g_sw, switched);
  const __m256d keep =
      _mm256_and_pd(_mm256_cmp_pd(r2, c.cutoff2, _CMP_LT_OQ), lanes);
  e_out = _mm256_and_pd(ef, keep);
  c2_out = _mm256_and_pd(_mm256_mul_pd(c.two, gf), keep);
}

// Accumulates sources [lo, hi) onto one broadcast target. Single-target
// only: the kernel is gather-bound (two table gathers per group), so the
// Coulomb backend's 2-target blocking buys nothing here.
template <bool WithGrad, bool Periodic>
HFMM_AVX2_TARGET inline void vdw_accum_target(
    const double* x, const double* y, const double* z,
    const std::int32_t* type, __m256d tx, __m256d ty, __m256d tz,
    const double* rrow, const double* erow, std::size_t lo, std::size_t hi,
    const VdwConstsV& c, AccV& acc) {
  std::size_t j = lo;
  for (; j + 4 <= hi; j += 4) {
    const __m128i tj =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(type + j));
    __m256d dx = _mm256_sub_pd(tx, _mm256_loadu_pd(x + j));
    __m256d dy = _mm256_sub_pd(ty, _mm256_loadu_pd(y + j));
    __m256d dz = _mm256_sub_pd(tz, _mm256_loadu_pd(z + j));
    if constexpr (Periodic) {
      dx = vdw_wrap_v(dx, c);
      dy = vdw_wrap_v(dy, c);
      dz = vdw_wrap_v(dz, c);
    }
    __m256d r2 = _mm256_mul_pd(dx, dx);
    r2 = _mm256_fmadd_pd(dy, dy, r2);
    r2 = _mm256_fmadd_pd(dz, dz, r2);
    const __m256d rm2 = gather_row(rrow, tj, c);
    const __m256d ev = gather_row(erow, tj, c);
    __m256d ef, c2v;
    vdw_pair_v(r2, rm2, ev, c, c.all, ef, c2v);
    acc.phi = _mm256_add_pd(acc.phi, ef);
    if constexpr (WithGrad) {
      acc.gx = _mm256_fmadd_pd(c2v, dx, acc.gx);
      acc.gy = _mm256_fmadd_pd(c2v, dy, acc.gy);
      acc.gz = _mm256_fmadd_pd(c2v, dz, acc.gz);
    }
  }
  if (j < hi) {
    const std::size_t rem = hi - j;
    const __m256i m = tail_mask(rem);
    const __m256d md = _mm256_castsi256_pd(m);
    // Dead lanes: coordinates 0, type 0 (a valid table index), r2 forced to
    // 1 so the divide stays finite; vdw_pair_v masks their outputs to +0.
    const __m128i tj = _mm_maskload_epi32(
        reinterpret_cast<const int*>(type + j), tail_mask32(rem));
    __m256d dx = _mm256_sub_pd(tx, _mm256_maskload_pd(x + j, m));
    __m256d dy = _mm256_sub_pd(ty, _mm256_maskload_pd(y + j, m));
    __m256d dz = _mm256_sub_pd(tz, _mm256_maskload_pd(z + j, m));
    if constexpr (Periodic) {
      dx = vdw_wrap_v(dx, c);
      dy = vdw_wrap_v(dy, c);
      dz = vdw_wrap_v(dz, c);
    }
    __m256d r2 = _mm256_mul_pd(dx, dx);
    r2 = _mm256_fmadd_pd(dy, dy, r2);
    r2 = _mm256_fmadd_pd(dz, dz, r2);
    r2 = _mm256_blendv_pd(c.one, r2, md);
    const __m256d rm2 = gather_row(rrow, tj, c);
    const __m256d ev = gather_row(erow, tj, c);
    __m256d ef, c2v;
    vdw_pair_v(r2, rm2, ev, c, md, ef, c2v);
    acc.phi = _mm256_add_pd(acc.phi, ef);
    if constexpr (WithGrad) {
      acc.gx = _mm256_fmadd_pd(c2v, dx, acc.gx);
      acc.gy = _mm256_fmadd_pd(c2v, dy, acc.gy);
      acc.gz = _mm256_fmadd_pd(c2v, dz, acc.gz);
    }
  }
}

template <bool WithGrad, bool Periodic>
HFMM_AVX2_TARGET void avx2_p2p_vdw_impl(const double* x, const double* y,
                                        const double* z,
                                        const std::int32_t* type,
                                        std::size_t tb, std::size_t te,
                                        std::size_t sb, std::size_t se,
                                        double* phi, Vec3* grad,
                                        const VdwParams& vp) {
  const bool identical = tb == sb && te == se;
  const VdwConstsV c = vdw_consts(vp);
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * vp.ntypes;
    const double* rrow = vp.rmin2 + row;
    const double* erow = vp.eps + row;
    const __m256d tx = _mm256_set1_pd(x[i]);
    const __m256d ty = _mm256_set1_pd(y[i]);
    const __m256d tz = _mm256_set1_pd(z[i]);
    AccV acc = acc_zero();
    if (identical) {
      vdw_accum_target<WithGrad, Periodic>(x, y, z, type, tx, ty, tz, rrow,
                                           erow, sb, i, c, acc);
      vdw_accum_target<WithGrad, Periodic>(x, y, z, type, tx, ty, tz, rrow,
                                           erow, i + 1, se, c, acc);
    } else {
      vdw_accum_target<WithGrad, Periodic>(x, y, z, type, tx, ty, tz, rrow,
                                           erow, sb, se, c, acc);
    }
    phi[i - tb] += hsum(acc.phi);
    if constexpr (WithGrad) {
      grad[i - tb].x += hsum(acc.gx);
      grad[i - tb].y += hsum(acc.gy);
      grad[i - tb].z += hsum(acc.gz);
    }
  }
}

void avx2_p2p_vdw(const double* x, const double* y, const double* z,
                  const std::int32_t* type, std::size_t tb, std::size_t te,
                  std::size_t sb, std::size_t se, double* phi, Vec3* grad,
                  const VdwParams& vp) {
  const bool periodic = vp.period > 0.0;
  if (grad != nullptr) {
    if (periodic)
      avx2_p2p_vdw_impl<true, true>(x, y, z, type, tb, te, sb, se, phi, grad,
                                    vp);
    else
      avx2_p2p_vdw_impl<true, false>(x, y, z, type, tb, te, sb, se, phi,
                                     grad, vp);
  } else if (periodic) {
    avx2_p2p_vdw_impl<false, true>(x, y, z, type, tb, te, sb, se, phi, grad,
                                   vp);
  } else {
    avx2_p2p_vdw_impl<false, false>(x, y, z, type, tb, te, sb, se, phi, grad,
                                    vp);
  }
}

template <bool WithGrad, bool Periodic>
HFMM_AVX2_TARGET void avx2_p2p_vdw_symmetric_impl(
    const double* x, const double* y, const double* z,
    const std::int32_t* type, std::size_t tb, std::size_t te, std::size_t sb,
    std::size_t se, double* phi, double* gx, double* gy, double* gz,
    const VdwParams& vp) {
  const std::size_t nt = te - tb;
  const VdwConstsV c = vdw_consts(vp);
  for (std::size_t i = tb; i < te; ++i) {
    const std::size_t row = static_cast<std::size_t>(type[i]) * vp.ntypes;
    const double* rrow = vp.rmin2 + row;
    const double* erow = vp.eps + row;
    const __m256d tx = _mm256_set1_pd(x[i]);
    const __m256d ty = _mm256_set1_pd(y[i]);
    const __m256d tz = _mm256_set1_pd(z[i]);
    AccV acc = acc_zero();
    std::size_t j = sb;
    for (; j + 4 <= se; j += 4) {
      const std::size_t s = nt + (j - sb);
      const __m128i tj =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(type + j));
      __m256d dx = _mm256_sub_pd(tx, _mm256_loadu_pd(x + j));
      __m256d dy = _mm256_sub_pd(ty, _mm256_loadu_pd(y + j));
      __m256d dz = _mm256_sub_pd(tz, _mm256_loadu_pd(z + j));
      if constexpr (Periodic) {
        dx = vdw_wrap_v(dx, c);
        dy = vdw_wrap_v(dy, c);
        dz = vdw_wrap_v(dz, c);
      }
      __m256d r2 = _mm256_mul_pd(dx, dx);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      const __m256d rm2 = gather_row(rrow, tj, c);
      const __m256d ev = gather_row(erow, tj, c);
      __m256d ef, c2v;
      vdw_pair_v(r2, rm2, ev, c, c.all, ef, c2v);
      acc.phi = _mm256_add_pd(acc.phi, ef);
      _mm256_storeu_pd(phi + s, _mm256_add_pd(_mm256_loadu_pd(phi + s), ef));
      if constexpr (WithGrad) {
        acc.gx = _mm256_fmadd_pd(c2v, dx, acc.gx);
        acc.gy = _mm256_fmadd_pd(c2v, dy, acc.gy);
        acc.gz = _mm256_fmadd_pd(c2v, dz, acc.gz);
        _mm256_storeu_pd(gx + s,
                         _mm256_fnmadd_pd(c2v, dx, _mm256_loadu_pd(gx + s)));
        _mm256_storeu_pd(gy + s,
                         _mm256_fnmadd_pd(c2v, dy, _mm256_loadu_pd(gy + s)));
        _mm256_storeu_pd(gz + s,
                         _mm256_fnmadd_pd(c2v, dz, _mm256_loadu_pd(gz + s)));
      }
    }
    if (j < se) {
      const std::size_t s = nt + (j - sb);
      const std::size_t rem = se - j;
      const __m256i m = tail_mask(rem);
      const __m256d md = _mm256_castsi256_pd(m);
      const __m128i tj = _mm_maskload_epi32(
          reinterpret_cast<const int*>(type + j), tail_mask32(rem));
      __m256d dx = _mm256_sub_pd(tx, _mm256_maskload_pd(x + j, m));
      __m256d dy = _mm256_sub_pd(ty, _mm256_maskload_pd(y + j, m));
      __m256d dz = _mm256_sub_pd(tz, _mm256_maskload_pd(z + j, m));
      if constexpr (Periodic) {
        dx = vdw_wrap_v(dx, c);
        dy = vdw_wrap_v(dy, c);
        dz = vdw_wrap_v(dz, c);
      }
      __m256d r2 = _mm256_mul_pd(dx, dx);
      r2 = _mm256_fmadd_pd(dy, dy, r2);
      r2 = _mm256_fmadd_pd(dz, dz, r2);
      r2 = _mm256_blendv_pd(c.one, r2, md);
      const __m256d rm2 = gather_row(rrow, tj, c);
      const __m256d ev = gather_row(erow, tj, c);
      __m256d ef, c2v;
      vdw_pair_v(r2, rm2, ev, c, md, ef, c2v);
      acc.phi = _mm256_add_pd(acc.phi, ef);
      _mm256_maskstore_pd(
          phi + s, m, _mm256_add_pd(_mm256_maskload_pd(phi + s, m), ef));
      if constexpr (WithGrad) {
        acc.gx = _mm256_fmadd_pd(c2v, dx, acc.gx);
        acc.gy = _mm256_fmadd_pd(c2v, dy, acc.gy);
        acc.gz = _mm256_fmadd_pd(c2v, dz, acc.gz);
        _mm256_maskstore_pd(
            gx + s, m,
            _mm256_fnmadd_pd(c2v, dx, _mm256_maskload_pd(gx + s, m)));
        _mm256_maskstore_pd(
            gy + s, m,
            _mm256_fnmadd_pd(c2v, dy, _mm256_maskload_pd(gy + s, m)));
        _mm256_maskstore_pd(
            gz + s, m,
            _mm256_fnmadd_pd(c2v, dz, _mm256_maskload_pd(gz + s, m)));
      }
    }
    phi[i - tb] += hsum(acc.phi);
    if constexpr (WithGrad) {
      gx[i - tb] += hsum(acc.gx);
      gy[i - tb] += hsum(acc.gy);
      gz[i - tb] += hsum(acc.gz);
    }
  }
}

void avx2_p2p_vdw_symmetric(const double* x, const double* y, const double* z,
                            const std::int32_t* type, std::size_t tb,
                            std::size_t te, std::size_t sb, std::size_t se,
                            double* phi, double* gx, double* gy, double* gz,
                            const VdwParams& vp) {
  const bool periodic = vp.period > 0.0;
  if (gx != nullptr) {
    if (periodic)
      avx2_p2p_vdw_symmetric_impl<true, true>(x, y, z, type, tb, te, sb, se,
                                              phi, gx, gy, gz, vp);
    else
      avx2_p2p_vdw_symmetric_impl<true, false>(x, y, z, type, tb, te, sb, se,
                                               phi, gx, gy, gz, vp);
  } else if (periodic) {
    avx2_p2p_vdw_symmetric_impl<false, true>(x, y, z, type, tb, te, sb, se,
                                             phi, gx, gy, gz, vp);
  } else {
    avx2_p2p_vdw_symmetric_impl<false, false>(x, y, z, type, tb, te, sb, se,
                                              phi, gx, gy, gz, vp);
  }
}

}  // namespace

bool avx2_cpu_supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const KernelBackend& avx2_backend() {
  static const KernelBackend backend{
      "avx2",   avx2_p2p,     avx2_p2p_symmetric, avx2_p2m,
      avx2_l2p, avx2_p2p_vdw, avx2_p2p_vdw_symmetric};
  return backend;
}

#else  // !HFMM_HAVE_AVX2_BACKEND

bool avx2_cpu_supported() { return false; }

const KernelBackend& avx2_backend() {
  static const KernelBackend backend{"avx2",  nullptr, nullptr, nullptr,
                                     nullptr, nullptr, nullptr};
  return backend;
}

#endif

}  // namespace hfmm::pkern
