#pragma once
// Dense kernels used by the translation operators.
//
// Anderson's translations are K x K matrix actions on potential vectors
// (Section 3.3.3 of the paper): applied one box at a time they are BLAS-2
// (gemv); aggregated over boxes sharing a translation matrix they become
// BLAS-3 (gemm). The solver gathers every box that shares a matrix into one
// slab and applies one gemm to it, so the paper's multiple-instance gemm
// (CMSSL) needs no entry point of its own. The aggregation experiments
// (Table 3, Section 3.3.3) compare the two forms.
//
// Conventions: row-major storage, C[m x n] (+)= A[m x k] * B[k x n].

#include <cstddef>
#include <cstdint>
#include <span>

namespace hfmm::blas {

/// y (+)= A x.  A is m x n row-major with leading dimension lda.
/// If accumulate is false, y is overwritten.
void gemv(const double* a, std::size_t lda, const double* x, double* y,
          std::size_t m, std::size_t n, bool accumulate);

/// y (+)= x B: one row vector x[1 x k] times B[k x n] (ldb), row-major —
/// one box of the box-major product G * T^T, reading T^T in the same
/// orientation gemm does. Each y[j] accumulates x[i] B[i][j] for i = 0..k-1
/// in order, the sequence gemv applies to row j of B^T, so the two agree
/// bitwise. If accumulate is false, y is overwritten. y must not overlap x
/// or B.
void vecmat(const double* x, const double* b, std::size_t ldb, double* y,
            std::size_t k, std::size_t n, bool accumulate);

/// C (+)= A B.  A: m x k (lda), B: k x n (ldb), C: m x n (ldc), row-major.
/// Row independence: each row of C is computed by the same sequence of
/// operations whatever m is (full 4-row tiles and the < 4-row tail agree),
/// so a row's bits do not depend on how many rows share the call. The
/// solver's gathered translations rely on it for bitwise reproducibility
/// across worker counts (GemmTest.RowBitsIndependentOfRowCount).
void gemm(const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, std::size_t m, std::size_t n,
          std::size_t k, bool accumulate);

/// Floating-point operation counts (multiply+add counted separately, the
/// convention used in the paper's efficiency metric).
constexpr std::uint64_t gemv_flops(std::size_t m, std::size_t n) {
  return 2ull * m * n;
}
constexpr std::uint64_t gemm_flops(std::size_t m, std::size_t n,
                                   std::size_t k) {
  return 2ull * m * n * k;
}

/// Measured single-core peak flop rate (flops/s) from a resident gemm of the
/// given size. This calibrates the "efficiency of floating point operations"
/// metric the paper proposes for cross-machine comparison.
double measure_peak_flops(std::size_t size = 96, double min_seconds = 0.05);

/// Measured flop rate (flops/s) of the ACTIVE kernel backend (see
/// kernels.hpp) on a resident m x n x k gemm. bench_kernels pairs this with
/// select_kernel() to report per-kernel GFLOP/s in BENCH_kernels.json.
double measure_gemm_flops(std::size_t m, std::size_t n, std::size_t k,
                          double min_seconds = 0.05);

}  // namespace hfmm::blas
