#pragma once
// Runtime-dispatched micro-kernel backends for the dense translation GEMMs.
//
// The paper's performance argument (Section 3, Table 1) rests on running the
// translation products at near-peak GEMM rate. We provide two register-
// blocked implementations behind one function table:
//   - "portable": plain C++ 4x8 micro-kernel the compiler can auto-vectorize
//     for whatever ISA it targets;
//   - "avx2": explicit AVX2/FMA intrinsics (x86-64 only; compile-time guarded
//     and emitted with a `target("avx2,fma")` attribute so the translation
//     unit builds on any x86-64 baseline).
// The active backend is chosen once at startup from cpuid, overridable with
// the environment variable HFMM_BLAS_KERNEL=auto|portable|avx2 (benchmarks
// use select_kernel() to force one side of an A/B comparison).
//
// Both backends share the same blocked driver: B is packed into 8-wide
// column panels in 64-byte-aligned thread-local scratch, then 4x8 panels of
// C are produced with all 32 accumulators live in registers across the whole
// k loop.

#include <cstddef>

namespace hfmm::blas {

enum class KernelKind { kPortable, kAvx2 };

const char* to_string(KernelKind kind);

/// Function table of one backend. Shapes follow blas.hpp conventions:
/// row-major, C[m x n] (+)= A[m x k] * B[k x n].
struct KernelBackend {
  const char* name;
  void (*gemm)(const double* a, std::size_t lda, const double* b,
               std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
               std::size_t n, std::size_t k, bool accumulate);
};

/// True when `kind` can run on this CPU (portable always can).
bool kernel_supported(KernelKind kind);

/// The backend table for `kind`. Valid to call even when unsupported (for
/// introspection); do not invoke its functions unless kernel_supported().
const KernelBackend& kernel_backend(KernelKind kind);

/// The backend all blas::gemm calls route through.
/// Initialized on first use: HFMM_BLAS_KERNEL if set (falling back with a
/// stderr warning when the requested ISA is missing), else the best
/// supported kernel.
const KernelBackend& active_kernel();
KernelKind active_kernel_kind();

/// Forces the active backend (for benchmarking / tests). Returns false and
/// leaves the selection unchanged when `kind` is unsupported on this CPU.
/// Not thread-safe against concurrent gemm calls.
bool select_kernel(KernelKind kind);

}  // namespace hfmm::blas
