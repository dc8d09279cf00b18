// Portable register-blocked backend: a 4x8 micro-kernel written as plain
// loops over fixed-size accumulator arrays. The shapes are chosen so any
// auto-vectorizer targeting 256-bit lanes turns the inner loop into 8 FMAs
// fed by 2 loads and 4 broadcasts — the same schedule the explicit AVX2
// backend pins down — while remaining correct scalar code on any ISA.

#include "hfmm/blas/kernels.hpp"
#include "kernel_util.hpp"

namespace hfmm::blas {

namespace {

using detail::kMR;
using detail::kNR;

struct PortableMicro {
  static void run(const double* a, std::size_t lda, const double* bp,
                  double* c, std::size_t ldc, std::size_t k,
                  bool accumulate) {
    // Eight 4-wide accumulator arrays, each the width of one 256-bit lane:
    // written this way (rather than acc[4][8]) GCC register-allocates every
    // array instead of spilling, matching the explicit-intrinsics schedule.
    // SLP packs each fully unrolled j loop into one vector FMA; at -O2 GCC
    // leaves these loops rolled, and so scalar, unless told to unroll them.
    double c00[4] = {}, c01[4] = {}, c10[4] = {}, c11[4] = {};
    double c20[4] = {}, c21[4] = {}, c30[4] = {}, c31[4] = {};
    const double* __restrict__ a0 = a;
    const double* __restrict__ a1 = a + lda;
    const double* __restrict__ a2 = a + 2 * lda;
    const double* __restrict__ a3 = a + 3 * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const double* __restrict__ b0 = bp + p * kNR;
      const double* __restrict__ b1 = b0 + 4;
      const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c00[j] += v0 * b0[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c01[j] += v0 * b1[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c10[j] += v1 * b0[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c11[j] += v1 * b1[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c20[j] += v2 * b0[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c21[j] += v2 * b1[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c30[j] += v3 * b0[j];
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) c31[j] += v3 * b1[j];
    }
    const double* lo[kMR] = {c00, c10, c20, c30};
    const double* hi[kMR] = {c01, c11, c21, c31};
    for (std::size_t i = 0; i < kMR; ++i) {
      double* __restrict__ crow = c + i * ldc;
      if (accumulate) {
        for (int j = 0; j < 4; ++j) crow[j] += lo[i][j];
        for (int j = 0; j < 4; ++j) crow[4 + j] += hi[i][j];
      } else {
        for (int j = 0; j < 4; ++j) crow[j] = lo[i][j];
        for (int j = 0; j < 4; ++j) crow[4 + j] = hi[i][j];
      }
    }
  }
};

void portable_gemm(const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                   std::size_t n, std::size_t k, bool accumulate) {
  detail::gemm_driver<PortableMicro>(a, lda, b, ldb, c, ldc, m, n, k,
                                     accumulate);
}

}  // namespace

const KernelBackend& portable_backend() {
  static const KernelBackend backend{"portable", portable_gemm};
  return backend;
}

}  // namespace hfmm::blas
