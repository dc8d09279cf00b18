#include "hfmm/blas/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "hfmm/blas/kernels.hpp"
#include "hfmm/util/timer.hpp"

namespace hfmm::blas {

// Each product is one std::fma (one vfmadd under -march=native), as in
// pkern's kick/drift, so the bits do not depend on how the optimizer
// contracts the loops.
void gemv(const double* a, std::size_t lda, const double* x, double* y,
          std::size_t m, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ row = a + i * lda;
    double acc = accumulate ? y[i] : 0.0;
    for (std::size_t j = 0; j < n; ++j) acc = std::fma(row[j], x[j], acc);
    y[i] = acc;
  }
}

void vecmat(const double* x, const double* b, std::size_t ldb, double* y,
            std::size_t k, std::size_t n, bool accumulate) {
  double* __restrict__ out = y;
  if (!accumulate) std::fill(out, out + n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const double xi = x[i];
    const double* __restrict__ row = b + i * ldb;
    for (std::size_t j = 0; j < n; ++j) out[j] = std::fma(xi, row[j], out[j]);
  }
}

void gemm(const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, std::size_t m, std::size_t n,
          std::size_t k, bool accumulate) {
  active_kernel().gemm(a, lda, b, ldb, c, ldc, m, n, k, accumulate);
}

double measure_gemm_flops(std::size_t m, std::size_t n, std::size_t k,
                          double min_seconds) {
  std::vector<double> a(m * k, 1.0), b(k * n, 1.0), c(m * n, 0.0);
  gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, false);  // warm up
  WallTimer t;
  std::uint64_t reps = 0;
  do {
    gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, false);
    ++reps;
  } while (t.seconds() < min_seconds);
  return static_cast<double>(reps * gemm_flops(m, n, k)) / t.seconds();
}

double measure_peak_flops(std::size_t size, double min_seconds) {
  return measure_gemm_flops(size, size, size, min_seconds);
}

}  // namespace hfmm::blas
