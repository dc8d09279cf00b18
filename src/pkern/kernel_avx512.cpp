// AVX-512F particle-kernel backend. Only the Laplace P2P pair (p2p and
// p2p_symmetric), where the near field spends its time, has its own code
// here: eight sources per iteration, with 1/sqrt seeded by vrsqrt14pd
// directly in fp64 and refined by the same two Newton-Raphson steps the AVX2
// kernel takes. The seed's relative error is at most 2^-14, so the result
// lands at ~5e-17, one-sided (see DESIGN.md §10), without AVX2's
// fp64 -> fp32 -> fp64 round trip on the critical path. Source tails use
// masked loads and stores; dead lanes get q = 0 and r2 = 1 so they
// contribute exactly nothing. Every other table entry is the AVX2 function,
// so the vdW bitwise contract with the portable backend carries over
// unchanged. Functions carry target("avx512f,avx2,fma") so this
// TU compiles at any x86-64 baseline and the cpuid dispatcher decides at
// runtime. Helpers are templates, not lambdas: a lambda does not inherit
// the target attribute, so intrinsics inside it would fail to inline.

#include <cstddef>

#include "hfmm/pkern/kernels.hpp"
#include "kernel_util.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define HFMM_HAVE_AVX512_BACKEND 1
#include <immintrin.h>
#else
#define HFMM_HAVE_AVX512_BACKEND 0
#endif

namespace hfmm::pkern {

#if HFMM_HAVE_AVX512_BACKEND

namespace {

#define HFMM_AVX512_TARGET __attribute__((target("avx512f,avx2,fma")))

constexpr std::size_t kW8 = 8;  // doubles per zmm register

HFMM_AVX512_TARGET inline __mmask8 tail_mask(std::size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

// Full-register or (in a tail) masked access to eight doubles; masked-off
// lanes are neither read nor written, and load as 0.
template <bool Tail>
HFMM_AVX512_TARGET inline __m512d load8(const double* p, __mmask8 m) {
  if constexpr (Tail)
    return _mm512_maskz_loadu_pd(m, p);
  else
    return _mm512_loadu_pd(p);
}

template <bool Tail>
HFMM_AVX512_TARGET inline void store8(double* p, __mmask8 m, __m512d v) {
  if constexpr (Tail)
    _mm512_mask_storeu_pd(p, m, v);
  else
    _mm512_storeu_pd(p, v);
}

// Horizontal sum. _mm512_reduce_add_pd and _mm512_castpd512_pd256 pass
// _mm512_undefined_pd() through, which GCC 12 reports as uninitialized; the
// zero-masked extracts compile to the same vextractf64x4 with no warning.
HFMM_AVX512_TARGET inline double hsum(__m512d v) {
  const __m256d s4 = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xF, v, 0),
                                   _mm512_maskz_extractf64x4_pd(0xF, v, 1));
  const __m128d s2 =
      _mm_add_pd(_mm256_castpd256_pd128(s4), _mm256_extractf128_pd(s4, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)));
}

// rsqrt14 seed + two Newton steps: y <- y/2 (3 - r2 y^2). Each step maps a
// relative error e to -(3/2)e^2: 2^-14 -> ~5.6e-9 -> ~5e-17. The all-lanes
// zero-masked form avoids the undefined-source warning of the plain one.
HFMM_AVX512_TARGET inline __m512d rsqrt_nr2(__m512d r2) {
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d three = _mm512_set1_pd(3.0);
  __m512d y = _mm512_maskz_rsqrt14_pd(0xFF, r2);
  y = _mm512_mul_pd(_mm512_mul_pd(half, y),
                    _mm512_fnmadd_pd(r2, _mm512_mul_pd(y, y), three));
  y = _mm512_mul_pd(_mm512_mul_pd(half, y),
                    _mm512_fnmadd_pd(r2, _mm512_mul_pd(y, y), three));
  return y;
}

struct AccV {
  __m512d phi, gx, gy, gz;
};

HFMM_AVX512_TARGET inline AccV acc_zero() {
  const __m512d z = _mm512_setzero_pd();
  return {z, z, z, z};
}

// One target against eight sources: the displacement and 1/r. In a tail,
// dead lanes get r2 = 1 so the refinement stays finite there; their zero
// charges then null them.
struct PairV {
  __m512d dx, dy, dz, inv_r;
};

template <bool Tail>
HFMM_AVX512_TARGET inline PairV pair_geometry(__m512d tx, __m512d ty,
                                              __m512d tz, __m512d sx,
                                              __m512d sy, __m512d sz,
                                              __m512d soft2, __mmask8 m) {
  PairV p;
  p.dx = _mm512_sub_pd(tx, sx);
  p.dy = _mm512_sub_pd(ty, sy);
  p.dz = _mm512_sub_pd(tz, sz);
  __m512d r2 = _mm512_fmadd_pd(p.dx, p.dx, soft2);
  r2 = _mm512_fmadd_pd(p.dy, p.dy, r2);
  r2 = _mm512_fmadd_pd(p.dz, p.dz, r2);
  if constexpr (Tail) r2 = _mm512_mask_blend_pd(m, _mm512_set1_pd(1.0), r2);
  p.inv_r = rsqrt_nr2(r2);
  return p;
}

// Sources [j, j+8) (masked by m in a tail) onto NT broadcast targets.
template <bool WithGrad, int NT, bool Tail>
HFMM_AVX512_TARGET inline void targets_block(
    const double* x, const double* y, const double* z, const double* q,
    std::size_t j, __mmask8 m, const __m512d* tx, const __m512d* ty,
    const __m512d* tz, __m512d soft2, AccV* acc) {
  const __m512d sx = load8<Tail>(x + j, m);
  const __m512d sy = load8<Tail>(y + j, m);
  const __m512d sz = load8<Tail>(z + j, m);
  const __m512d qs = load8<Tail>(q + j, m);
  for (int u = 0; u < NT; ++u) {
    const PairV p =
        pair_geometry<Tail>(tx[u], ty[u], tz[u], sx, sy, sz, soft2, m);
    acc[u].phi = _mm512_fmadd_pd(qs, p.inv_r, acc[u].phi);
    if constexpr (WithGrad) {
      const __m512d inv_r3 =
          _mm512_mul_pd(_mm512_mul_pd(p.inv_r, p.inv_r), p.inv_r);
      const __m512d c = _mm512_mul_pd(qs, inv_r3);
      acc[u].gx = _mm512_fnmadd_pd(c, p.dx, acc[u].gx);
      acc[u].gy = _mm512_fnmadd_pd(c, p.dy, acc[u].gy);
      acc[u].gz = _mm512_fnmadd_pd(c, p.dz, acc[u].gz);
    }
  }
}

// Accumulates sources [lo, hi) onto NT targets ti .. ti+NT. With 32 zmm
// registers two targets fit beside the shared source loads.
template <bool WithGrad, int NT>
HFMM_AVX512_TARGET inline void accum_targets(const double* x, const double* y,
                                             const double* z, const double* q,
                                             std::size_t ti, std::size_t lo,
                                             std::size_t hi, __m512d soft2,
                                             AccV* acc) {
  __m512d tx[NT], ty[NT], tz[NT];
  for (int u = 0; u < NT; ++u) {
    tx[u] = _mm512_set1_pd(x[ti + u]);
    ty[u] = _mm512_set1_pd(y[ti + u]);
    tz[u] = _mm512_set1_pd(z[ti + u]);
  }
  std::size_t j = lo;
  for (; j + kW8 <= hi; j += kW8)
    targets_block<WithGrad, NT, false>(x, y, z, q, j, 0xFF, tx, ty, tz, soft2,
                                       acc);
  if (j < hi)
    targets_block<WithGrad, NT, true>(x, y, z, q, j, tail_mask(hi - j), tx,
                                      ty, tz, soft2, acc);
}

template <bool WithGrad>
HFMM_AVX512_TARGET inline void flush(const AccV& acc, double* phi,
                                     Vec3* grad) {
  *phi += hsum(acc.phi);
  if constexpr (WithGrad) {
    grad->x += hsum(acc.gx);
    grad->y += hsum(acc.gy);
    grad->z += hsum(acc.gz);
  }
}

template <bool WithGrad>
HFMM_AVX512_TARGET void avx512_p2p_impl(const double* x, const double* y,
                                        const double* z, const double* q,
                                        std::size_t tb, std::size_t te,
                                        std::size_t sb, std::size_t se,
                                        double* phi, Vec3* grad,
                                        double soft2) {
  const bool identical = tb == sb && te == se;
  const __m512d s2 = _mm512_set1_pd(soft2);
  std::size_t i = tb;
  if (!identical) {
    // Distinct target/source ranges: two targets per source sweep.
    for (; i + 2 <= te; i += 2) {
      AccV acc[2] = {acc_zero(), acc_zero()};
      accum_targets<WithGrad, 2>(x, y, z, q, i, sb, se, s2, acc);
      for (std::size_t u = 0; u < 2; ++u)
        flush<WithGrad>(acc[u], phi + (i + u - tb),
                        WithGrad ? grad + (i + u - tb) : nullptr);
    }
  }
  // Identical ranges (the self box) split the sources around each target,
  // so they sweep one target at a time over [sb, i) and [i+1, se); this
  // loop also takes the odd last target of distinct ranges.
  for (; i < te; ++i) {
    AccV acc = acc_zero();
    if (identical) {
      accum_targets<WithGrad, 1>(x, y, z, q, i, sb, i, s2, &acc);
      accum_targets<WithGrad, 1>(x, y, z, q, i, i + 1, se, s2, &acc);
    } else {
      accum_targets<WithGrad, 1>(x, y, z, q, i, sb, se, s2, &acc);
    }
    flush<WithGrad>(acc, phi + (i - tb), WithGrad ? grad + (i - tb) : nullptr);
  }
}

void avx512_p2p(const double* x, const double* y, const double* z,
                const double* q, std::size_t tb, std::size_t te,
                std::size_t sb, std::size_t se, double* phi, Vec3* grad,
                double soft2) {
  if (grad != nullptr)
    avx512_p2p_impl<true>(x, y, z, q, tb, te, sb, se, phi, grad, soft2);
  else
    avx512_p2p_impl<false>(x, y, z, q, tb, te, sb, se, phi, grad, soft2);
}

// One target row of the symmetric kernel against sources [j, j+8) (masked
// by m in a tail): the target side accumulates in registers, the source
// side is a read-modify-write of the output slices at offset s.
template <bool WithGrad, bool Tail>
HFMM_AVX512_TARGET inline void symmetric_block(
    const double* x, const double* y, const double* z, const double* q,
    std::size_t j, std::size_t s, __mmask8 m, __m512d tx, __m512d ty,
    __m512d tz, __m512d tq, __m512d soft2, double* phi, double* gx,
    double* gy, double* gz, AccV& acc) {
  const PairV p =
      pair_geometry<Tail>(tx, ty, tz, load8<Tail>(x + j, m),
                          load8<Tail>(y + j, m), load8<Tail>(z + j, m), soft2,
                          m);
  const __m512d qs = load8<Tail>(q + j, m);  // 0 in dead lanes
  acc.phi = _mm512_fmadd_pd(qs, p.inv_r, acc.phi);
  store8<Tail>(phi + s, m,
               _mm512_fmadd_pd(tq, p.inv_r, load8<Tail>(phi + s, m)));
  if constexpr (WithGrad) {
    const __m512d inv_r3 =
        _mm512_mul_pd(_mm512_mul_pd(p.inv_r, p.inv_r), p.inv_r);
    const __m512d ct = _mm512_mul_pd(qs, inv_r3);
    acc.gx = _mm512_fnmadd_pd(ct, p.dx, acc.gx);
    acc.gy = _mm512_fnmadd_pd(ct, p.dy, acc.gy);
    acc.gz = _mm512_fnmadd_pd(ct, p.dz, acc.gz);
    const __m512d cs = _mm512_mul_pd(tq, inv_r3);
    store8<Tail>(gx + s, m,
                 _mm512_fmadd_pd(cs, p.dx, load8<Tail>(gx + s, m)));
    store8<Tail>(gy + s, m,
                 _mm512_fmadd_pd(cs, p.dy, load8<Tail>(gy + s, m)));
    store8<Tail>(gz + s, m,
                 _mm512_fmadd_pd(cs, p.dz, load8<Tail>(gz + s, m)));
  }
}

// One target per source sweep. Blocking two targets per sweep would halve
// the source-side read-modify-writes, but measured no faster here (and
// 9-13% slower in the AVX2 kernel, whose 16 registers spill).
template <bool WithGrad>
HFMM_AVX512_TARGET void avx512_p2p_symmetric_impl(
    const double* x, const double* y, const double* z, const double* q,
    std::size_t tb, std::size_t te, std::size_t sb, std::size_t se,
    double* phi, double* gx, double* gy, double* gz, double soft2) {
  const std::size_t nt = te - tb;
  const __m512d s2 = _mm512_set1_pd(soft2);
  for (std::size_t i = tb; i < te; ++i) {
    const __m512d tx = _mm512_set1_pd(x[i]);
    const __m512d ty = _mm512_set1_pd(y[i]);
    const __m512d tz = _mm512_set1_pd(z[i]);
    const __m512d tq = _mm512_set1_pd(q[i]);
    AccV acc = acc_zero();
    std::size_t j = sb;
    for (; j + kW8 <= se; j += kW8)
      symmetric_block<WithGrad, false>(x, y, z, q, j, nt + (j - sb), 0xFF, tx,
                                       ty, tz, tq, s2, phi, gx, gy, gz, acc);
    if (j < se)
      symmetric_block<WithGrad, true>(x, y, z, q, j, nt + (j - sb),
                                      tail_mask(se - j), tx, ty, tz, tq, s2,
                                      phi, gx, gy, gz, acc);
    phi[i - tb] += hsum(acc.phi);
    if constexpr (WithGrad) {
      gx[i - tb] += hsum(acc.gx);
      gy[i - tb] += hsum(acc.gy);
      gz[i - tb] += hsum(acc.gz);
    }
  }
}

void avx512_p2p_symmetric(const double* x, const double* y, const double* z,
                          const double* q, std::size_t tb, std::size_t te,
                          std::size_t sb, std::size_t se, double* phi,
                          double* gx, double* gy, double* gz, double soft2) {
  if (gx != nullptr)
    avx512_p2p_symmetric_impl<true>(x, y, z, q, tb, te, sb, se, phi, gx, gy,
                                    gz, soft2);
  else
    avx512_p2p_symmetric_impl<false>(x, y, z, q, tb, te, sb, se, phi, gx, gy,
                                     gz, soft2);
}

}  // namespace

bool avx512_cpu_supported() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
}

#else  // !HFMM_HAVE_AVX512_BACKEND

bool avx512_cpu_supported() { return false; }

#endif

// The AVX2 table with the Laplace P2P pair replaced (left null, like the
// AVX2 stub's entries, where there is no x86-64 code to point at).
const KernelBackend& avx512_backend() {
  static const KernelBackend backend = [] {
    KernelBackend b = avx2_backend();
    b.name = "avx512";
#if HFMM_HAVE_AVX512_BACKEND
    b.p2p = avx512_p2p;
    b.p2p_symmetric = avx512_p2p_symmetric;
#endif
    return b;
  }();
  return backend;
}

}  // namespace hfmm::pkern
