// Unit tests for the dense kernels: gemv/vecmat/gemm against a naive
// reference, and the small factorizations.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "hfmm/blas/blas.hpp"
#include "hfmm/blas/kernels.hpp"
#include "hfmm/blas/linalg.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::blas {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

void naive_gemm(const double* a, const double* b, double* c, std::size_t m,
                std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] += s;
    }
}

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  std::vector<double> c(m * n, 0.0), ref(m * n, 0.0);
  gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, false);
  naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, AccumulateAddsToExisting) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m, k, 3);
  const auto b = random_matrix(k, n, 4);
  std::vector<double> c(m * n, 1.0), ref(m * n, 1.0);
  gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, true);
  naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{3, 5, 2}, Shape{4, 4, 4},
                      Shape{12, 12, 12}, Shape{13, 12, 12}, Shape{72, 72, 72},
                      Shape{100, 12, 12}, Shape{5, 7, 11}, Shape{64, 12, 72}));

TEST(GemvTest, MatchesNaive) {
  const std::size_t m = 12, n = 12;
  const auto a = random_matrix(m, n, 5);
  const auto x = random_matrix(n, 1, 6);
  std::vector<double> y(m, 0.5), ref(m, 0.5);
  gemv(a.data(), n, x.data(), y.data(), m, n, true);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) ref[i] += a[i * n + j] * x[j];
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(y[i], ref[i], 1e-13);
}

TEST(GemvTest, OverwriteMode) {
  const auto a = random_matrix(4, 4, 7);
  const auto x = random_matrix(4, 1, 8);
  std::vector<double> y(4, 99.0);
  gemv(a.data(), 4, x.data(), y.data(), 4, 4, false);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 4; ++j) s += a[i * 4 + j] * x[j];
    EXPECT_NEAR(y[i], s, 1e-13);
  }
}

// The solver stores each translation once, as T^T, and applies one box
// with vecmat; it must reproduce gemv on T bit for bit so every executor's
// output is unchanged.
TEST(VecmatTest, MatchesGemvOnTransposeBitwise) {
  for (const std::size_t k : {std::size_t{12}, std::size_t{72}}) {
    const std::vector<double> t = random_matrix(k, k, 40 + k);
    std::vector<double> tt(k * k);
    for (std::size_t j = 0; j < k; ++j)
      for (std::size_t i = 0; i < k; ++i) tt[i * k + j] = t[j * k + i];
    const std::vector<double> x = random_matrix(1, k, 41 + k);
    const std::vector<double> y0 = random_matrix(1, k, 42 + k);
    for (const bool accumulate : {true, false}) {
      std::vector<double> want = y0, got = y0;
      gemv(t.data(), k, x.data(), want.data(), k, k, accumulate);
      vecmat(x.data(), tt.data(), k, got.data(), k, k, accumulate);
      for (std::size_t j = 0; j < k; ++j)
        EXPECT_EQ(got[j], want[j])
            << "K " << k << ", accumulate " << accumulate << ", j " << j;
    }
  }
}

// Every m x n tail combination in 1..9 at a small and a large k: exercises
// the micro-kernel full tiles, the partial-width staging path, and the
// scalar row edge of the blocked driver in one sweep.
TEST(GemmTailTest, AllSmallShapesMatchNaive) {
  for (const std::size_t k : {1, 7, 12}) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n = 1; n <= 9; ++n) {
        const auto a = random_matrix(m, k, 100 * m + 10 * n + k);
        const auto b = random_matrix(k, n, 200 * m + 10 * n + k);
        for (const bool accumulate : {false, true}) {
          std::vector<double> c(m * n, 0.25), ref(m * n, 0.25);
          if (!accumulate) {
            std::fill(c.begin(), c.end(), -3.0);  // must be overwritten
            std::fill(ref.begin(), ref.end(), 0.0);
          }
          gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, accumulate);
          naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
          for (std::size_t i = 0; i < m * n; ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-12)
                << "m=" << m << " n=" << n << " k=" << k
                << " acc=" << accumulate;
        }
      }
    }
  }
}

TEST(GemmTest, RespectsLeadingDimensions) {
  // Submatrix product inside larger row-major buffers.
  const std::size_t m = 6, n = 10, k = 9, lda = 15, ldb = 17, ldc = 21;
  const auto abuf = random_matrix(m, lda, 31);
  const auto bbuf = random_matrix(k, ldb, 32);
  std::vector<double> cbuf(m * ldc, 0.5), ref(m * ldc, 0.5);
  gemm(abuf.data(), lda, bbuf.data(), ldb, cbuf.data(), ldc, m, n, k, true);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p)
        ref[i * ldc + j] += abuf[i * lda + p] * bbuf[p * ldb + j];
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(cbuf[i * ldc + j], ref[i * ldc + j], 1e-12);
  // Untouched tail columns beyond n stay as initialized.
  EXPECT_EQ(cbuf[n], 0.5);
}

// The solver gathers a varying number of boxes into each translation gemm
// (one chunk per worker), so its bitwise reproducibility across worker
// counts rests on this: every row of an m-row call
// equals, bit for bit, the same row computed alone — whether it lands in a
// full 4-row micro-kernel tile or in the < 4-row tail.
TEST(GemmTest, RowBitsIndependentOfRowCount) {
  const KernelKind before = active_kernel_kind();
  for (const KernelKind kind : {KernelKind::kPortable, KernelKind::kAvx2}) {
    if (!select_kernel(kind)) continue;
    for (const std::size_t k : {12, 72}) {
      const auto b = random_matrix(k, k, 61 + k);
      for (std::size_t m = 1; m <= 9; ++m) {
        const auto a = random_matrix(m, k, 70 + 10 * k + m);
        const auto c0 = random_matrix(m, k, 80 + 10 * k + m);
        for (const bool accumulate : {false, true}) {
          std::vector<double> c = c0;
          gemm(a.data(), k, b.data(), k, c.data(), k, m, k, k, accumulate);
          for (std::size_t r = 0; r < m; ++r) {
            std::vector<double> row(c0.begin() + r * k,
                                    c0.begin() + (r + 1) * k);
            gemm(a.data() + r * k, k, b.data(), k, row.data(), k, 1, k, k,
                 accumulate);
            for (std::size_t j = 0; j < k; ++j)
              ASSERT_EQ(std::memcmp(&c[r * k + j], &row[j], sizeof(double)),
                        0)
                  << to_string(kind) << " k=" << k << " m=" << m
                  << " row=" << r << " col=" << j << " acc=" << accumulate;
          }
        }
      }
    }
  }
  select_kernel(before);
}

// The portable and AVX2 backends must agree to rounding noise on every
// shape; both use the same panel packing and summation order, so the
// tolerance is ulp-scale, not truncation-scale.
TEST(KernelDispatchTest, PortableAndAvx2Agree) {
  if (!kernel_supported(KernelKind::kAvx2))
    GTEST_SKIP() << "no AVX2/FMA on this CPU";
  const KernelKind before = active_kernel_kind();
  for (const auto& [m, n, k] :
       {Shape{72, 72, 72}, Shape{100, 12, 12}, Shape{9, 9, 9},
        Shape{33, 17, 5}}) {
    const auto a = random_matrix(m, k, 51);
    const auto b = random_matrix(k, n, 52);
    std::vector<double> cp(m * n, 0.125), ca(m * n, 0.125);
    ASSERT_TRUE(select_kernel(KernelKind::kPortable));
    gemm(a.data(), k, b.data(), n, cp.data(), n, m, n, k, true);
    ASSERT_TRUE(select_kernel(KernelKind::kAvx2));
    gemm(a.data(), k, b.data(), n, ca.data(), n, m, n, k, true);
    for (std::size_t i = 0; i < m * n; ++i) {
      const double scale = std::max(1.0, std::abs(cp[i]));
      ASSERT_NEAR(cp[i], ca[i], 1e-14 * scale);
    }
  }
  select_kernel(before);
}

TEST(KernelDispatchTest, SelectionRoundTrips) {
  const KernelKind before = active_kernel_kind();
  EXPECT_TRUE(kernel_supported(KernelKind::kPortable));
  EXPECT_TRUE(select_kernel(KernelKind::kPortable));
  EXPECT_EQ(active_kernel_kind(), KernelKind::kPortable);
  EXPECT_STREQ(active_kernel().name, "portable");
  if (kernel_supported(KernelKind::kAvx2)) {
    EXPECT_TRUE(select_kernel(KernelKind::kAvx2));
    EXPECT_STREQ(active_kernel().name, "avx2");
  }
  select_kernel(before);
}

TEST(FlopCountTest, Formulas) {
  EXPECT_EQ(gemv_flops(3, 4), 24u);
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
}

TEST(PeakTest, MeasuresPositiveRate) {
  const double peak = measure_peak_flops(48, 0.01);
  EXPECT_GT(peak, 1e7);  // any machine manages 10 Mflop/s
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  // A = L L^T for a known L.
  std::vector<double> a{4, 2, 2, 2, 5, 3, 2, 3, 6};
  ASSERT_TRUE(cholesky(a.data(), 3));
  EXPECT_NEAR(a[0], 2.0, 1e-12);       // L00 = sqrt(4)
  EXPECT_NEAR(a[3], 1.0, 1e-12);       // L10 = 2/2
}

TEST(CholeskyTest, RejectsIndefinite) {
  std::vector<double> a{1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a.data(), 2));
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  const std::vector<double> a{4, 2, 2, 3};
  const std::vector<double> b{10, 8};
  std::vector<double> x(2);
  ASSERT_TRUE(solve_spd(a, 2, b.data(), x.data()));
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-12);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-12);
}

TEST(MinNormTest, SatisfiesConstraints) {
  // One constraint, three unknowns: w0 + w1 + w2 = 1.
  const std::vector<double> m{1, 1, 1};
  const double t = 1.0;
  std::vector<double> w(3);
  ASSERT_TRUE(min_norm_solve(m, 1, 3, &t, w.data()));
  EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
  // Minimum-norm solution is uniform.
  EXPECT_NEAR(w[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(w[1], 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hfmm::blas
