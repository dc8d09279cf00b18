// AVX2/FMA backend: the 4x8 micro-kernel as explicit intrinsics. Eight ymm
// accumulators stay live across the whole k loop; each k step is 2 aligned
// panel loads, 4 broadcasts from A, and 8 FMAs. Functions carry
// target("avx2,fma") so this translation unit compiles at any x86-64
// baseline and the dispatcher (cpuid) decides at runtime whether to use it.

#include "hfmm/blas/kernels.hpp"
#include "kernel_util.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define HFMM_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#else
#define HFMM_HAVE_AVX2_BACKEND 0
#endif

namespace hfmm::blas {

#if HFMM_HAVE_AVX2_BACKEND

namespace {

using detail::kNR;

#define HFMM_AVX2_TARGET __attribute__((target("avx2,fma")))

struct Avx2Micro {
  HFMM_AVX2_TARGET
  static void run(const double* a, std::size_t lda, const double* bp,
                  double* c, std::size_t ldc, std::size_t k,
                  bool accumulate) {
    __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
    __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
    __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
    __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
    const double* a0 = a;
    const double* a1 = a + lda;
    const double* a2 = a + 2 * lda;
    const double* a3 = a + 3 * lda;
    for (std::size_t p = 0; p < k; ++p) {
      const __m256d b0 = _mm256_load_pd(bp + p * kNR);
      const __m256d b1 = _mm256_load_pd(bp + p * kNR + 4);
      __m256d v = _mm256_broadcast_sd(a0 + p);
      c00 = _mm256_fmadd_pd(v, b0, c00);
      c01 = _mm256_fmadd_pd(v, b1, c01);
      v = _mm256_broadcast_sd(a1 + p);
      c10 = _mm256_fmadd_pd(v, b0, c10);
      c11 = _mm256_fmadd_pd(v, b1, c11);
      v = _mm256_broadcast_sd(a2 + p);
      c20 = _mm256_fmadd_pd(v, b0, c20);
      c21 = _mm256_fmadd_pd(v, b1, c21);
      v = _mm256_broadcast_sd(a3 + p);
      c30 = _mm256_fmadd_pd(v, b0, c30);
      c31 = _mm256_fmadd_pd(v, b1, c31);
    }
    double* c0 = c;
    double* c1 = c + ldc;
    double* c2 = c + 2 * ldc;
    double* c3 = c + 3 * ldc;
    if (accumulate) {
      c00 = _mm256_add_pd(c00, _mm256_loadu_pd(c0));
      c01 = _mm256_add_pd(c01, _mm256_loadu_pd(c0 + 4));
      c10 = _mm256_add_pd(c10, _mm256_loadu_pd(c1));
      c11 = _mm256_add_pd(c11, _mm256_loadu_pd(c1 + 4));
      c20 = _mm256_add_pd(c20, _mm256_loadu_pd(c2));
      c21 = _mm256_add_pd(c21, _mm256_loadu_pd(c2 + 4));
      c30 = _mm256_add_pd(c30, _mm256_loadu_pd(c3));
      c31 = _mm256_add_pd(c31, _mm256_loadu_pd(c3 + 4));
    }
    _mm256_storeu_pd(c0, c00);
    _mm256_storeu_pd(c0 + 4, c01);
    _mm256_storeu_pd(c1, c10);
    _mm256_storeu_pd(c1 + 4, c11);
    _mm256_storeu_pd(c2, c20);
    _mm256_storeu_pd(c2 + 4, c21);
    _mm256_storeu_pd(c3, c30);
    _mm256_storeu_pd(c3 + 4, c31);
  }
};

HFMM_AVX2_TARGET
void avx2_gemm(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
               std::size_t n, std::size_t k, bool accumulate) {
  detail::gemm_driver<Avx2Micro>(a, lda, b, ldb, c, ldc, m, n, k, accumulate);
}

}  // namespace

bool avx2_cpu_supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const KernelBackend& avx2_backend() {
  static const KernelBackend backend{"avx2", avx2_gemm};
  return backend;
}

#else  // !HFMM_HAVE_AVX2_BACKEND

bool avx2_cpu_supported() { return false; }

const KernelBackend& avx2_backend() {
  static const KernelBackend backend{"avx2", nullptr};
  return backend;
}

#endif

}  // namespace hfmm::blas
