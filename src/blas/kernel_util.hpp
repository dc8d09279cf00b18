#pragma once
// Internal machinery shared by the kernel backends: aligned thread-local
// packing scratch, B panel packing, and the blocked gemm driver templated
// on the 4x8 micro-kernel. Not installed.

#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace hfmm::blas::detail {

inline constexpr std::size_t kMR = 4;  // rows of C per micro-kernel call
inline constexpr std::size_t kNR = 8;  // columns of C per micro-kernel call

/// 64-byte-aligned thread-local scratch, grown geometrically and reused
/// across calls (the K x K translation matrices make packing buffers small
/// and hot, so reuse matters more than footprint).
inline double* packed_scratch(std::size_t doubles) {
  struct AlignedBuf {
    double* p = nullptr;
    std::size_t cap = 0;
    ~AlignedBuf() { std::free(p); }
    double* ensure(std::size_t n) {
      if (n > cap) {
        std::free(p);
        std::size_t bytes = (n * sizeof(double) + 63) & ~std::size_t{63};
        p = static_cast<double*>(std::aligned_alloc(64, bytes));
        cap = n;
      }
      return p;
    }
  };
  thread_local AlignedBuf buf;
  return buf.ensure(doubles);
}

inline std::size_t padded_n(std::size_t n) {
  return (n + kNR - 1) / kNR * kNR;
}

/// Packs B[k x n] (leading dimension ldb) into kNR-wide column panels:
/// panel jp holds k consecutive rows of kNR doubles, zero-padded past n, so
/// the micro-kernel streams it with unit stride.
inline void pack_b_panels(const double* b, std::size_t ldb, std::size_t k,
                          std::size_t n, double* packed) {
  for (std::size_t jp = 0; jp < n; jp += kNR) {
    const std::size_t nr = (n - jp < kNR) ? (n - jp) : kNR;
    double* dst = packed + jp * k;
    const double* src = b + jp;
    for (std::size_t p = 0; p < k; ++p, dst += kNR, src += ldb) {
      std::memcpy(dst, src, nr * sizeof(double));
      for (std::size_t j = nr; j < kNR; ++j) dst[j] = 0.0;
    }
  }
}

/// Blocked multiply: B is packed into panels, then `Micro::run` computes one
/// full kMR x kNR tile of C with accumulators held in registers for the
/// whole k loop. Every row of C takes that one code path, so a row's bits do
/// not depend on how many rows share the call: partial tiles run the full
/// micro-kernel into an aligned staging tile, over the panel's zero padding
/// for a partial width and over `a_tail` (kMR x k scratch after the panels,
/// holding the < kMR row tail, zero-padded) for the last rows, and merge
/// what is real.
template <class Micro>
void gemm_driver(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  double* bp = packed_scratch((padded_n(n) + kMR) * (k > 0 ? k : 1));
  pack_b_panels(b, ldb, k, n, bp);
  double* a_tail = bp + padded_n(n) * k;
  const std::size_t m_full = m - m % kMR;
  if (m_full < m) {
    std::memset(a_tail, 0, kMR * k * sizeof(double));
    for (std::size_t r = 0; r < m - m_full; ++r)
      std::memcpy(a_tail + r * k, a + (m_full + r) * lda, k * sizeof(double));
  }
  for (std::size_t jp = 0; jp < n; jp += kNR) {
    const std::size_t nr = (n - jp < kNR) ? (n - jp) : kNR;
    const double* panel = bp + jp * k;
    for (std::size_t i = 0; i < m; i += kMR) {
      const std::size_t mr = (m - i < kMR) ? (m - i) : kMR;
      const double* ai = mr == kMR ? a + i * lda : a_tail;
      const std::size_t la = mr == kMR ? lda : k;
      if (mr == kMR && nr == kNR) {
        Micro::run(ai, la, panel, c + i * ldc + jp, ldc, k, accumulate);
        continue;
      }
      alignas(64) double tile[kMR * kNR];
      Micro::run(ai, la, panel, tile, kNR, k, false);
      for (std::size_t r = 0; r < mr; ++r) {
        double* crow = c + (i + r) * ldc + jp;
        const double* trow = tile + r * kNR;
        if (accumulate)
          for (std::size_t j = 0; j < nr; ++j) crow[j] += trow[j];
        else
          for (std::size_t j = 0; j < nr; ++j) crow[j] = trow[j];
      }
    }
  }
}

}  // namespace hfmm::blas::detail

namespace hfmm::blas {

struct KernelBackend;

// Backend tables defined in kernel_portable.cpp / kernel_avx2.cpp.
const KernelBackend& portable_backend();
const KernelBackend& avx2_backend();
bool avx2_cpu_supported();

}  // namespace hfmm::blas
