#pragma once
// Runtime-dispatched particle-kernel backends: the near-field P2P pair
// kernel and the leaf-level P2M / L2P operators.
//
// PR 1 moved the far-field translation phases onto a register-blocked GEMM
// engine (see blas/kernels.hpp); after that the solver's time is dominated
// by the particle-facing scalar loops — one 1/sqrt per pair in the near
// field and a per-particle Legendre recurrence in L2P. This header gives
// those loops the same treatment: one function table per backend,
//   - "portable": plain C++ structured as fixed 4-wide lane arrays so the
//     compiler's SLP vectorizer emits whatever the target ISA offers;
//   - "avx2": explicit AVX2/FMA intrinsics (x86-64 only, function-level
//     target("avx2,fma") attributes, usable on any x86-64 baseline build);
//   - "avx512": the avx2 table with the Laplace p2p / p2p_symmetric pair
//     replaced by AVX-512F kernels eight sources wide, seeded in fp64 by
//     vrsqrt14pd (x86-64 only, target("avx512f,avx2,fma")).
// The active backend is chosen once at startup from cpuid (avx512, then
// avx2, then portable), overridable with HFMM_PKERN_KERNEL=auto|portable|avx2
// (mirrors HFMM_BLAS_KERNEL; auto is the only way to the avx512 table).
//
// The AVX2 P2P computes 1/sqrt(r2) as a vector rsqrt seed (the 12-bit
// _mm_rsqrt_ps estimate widened to double) followed by two Newton-Raphson
// refinements. Each refinement leaves a relative error of -(3/2)e^2, so
// |e| <= 1.5*2^-12 becomes ~2e-7 and then ~6e-14 — below the 1e-12
// acceptance bound, and one-sided, so summed box contributions stay within
// the per-pair bound instead of random-walking past it (see DESIGN.md). The
// AVX-512 seed (|e| <= 2^-14) lands at ~5e-17 after the same two steps.
//
// All kernels are batched over structure-of-arrays particle blocks: the
// coordinate sort (Section 3.2 of the paper) already delivers every leaf
// box as a contiguous slice of the x/y/z/q arrays, which is exactly the
// layout a vector unit wants. The scalar routines in baseline/direct.hpp
// and anderson/kernels.hpp remain the reference implementations the tests
// compare against.

#include <cstddef>
#include <cstdint>

#include "hfmm/util/vec3.hpp"

namespace hfmm::pkern {

enum class KernelKind { kPortable, kAvx2, kAvx512 };

const char* to_string(KernelKind kind);

/// Parameter block for the van der Waals (Lennard-Jones) P2P kernels, in
/// CHARMM convention: E_ij = eps_ij ((Rmin_ij/r)^12 - 2 (Rmin_ij/r)^6) with
/// a cuton/cutoff switching window. All distances appear squared so the
/// kernels never take a square root: `rmin2` / `eps` are ntypes x ntypes
/// row-major tables of Rmin_ij^2 and eps_ij (combining rules applied by the
/// caller), indexed [type_i * ntypes + type_j]. The derived switching
/// constants are precomputed once:
///   cm3o       = cutoff2 - 3 cuton2
///   inv_denom  = 1 / (cutoff2 - cuton2)^3
///   inv_denom6 = 6 inv_denom
/// so S(r2) = (cutoff2-r2)^2 (2 r2 + cm3o) inv_denom and
/// dS/dr2 = (cutoff2-r2)(cuton2-r2) inv_denom6 on cuton2 < r2 < cutoff2.
/// When `period` > 0 the pair displacement is wrapped to the minimum image
/// of a cubic box of that side (inv_period = 1/period) before r2.
struct VdwParams {
  const double* rmin2 = nullptr;
  const double* eps = nullptr;
  std::size_t ntypes = 0;
  double cuton2 = 0.0;
  double cutoff2 = 0.0;
  double cm3o = 0.0;
  double inv_denom = 0.0;
  double inv_denom6 = 0.0;
  double period = 0.0;
  double inv_period = 0.0;
};

/// Function table of one backend: only the kernels whose code differs by
/// ISA. All particle data is SoA; all outputs ACCUMULATE (+=) so callers can
/// sum several source boxes into one target.
struct KernelBackend {
  const char* name;

  /// 3-D Coulomb P2P: potential (and gradient when `grad != nullptr`) at
  /// targets [tb, te) due to sources [sb, se), accumulated into
  /// phi[0 .. te-tb) / grad[0 .. te-tb) (indexed by target - tb). The two
  /// ranges must be disjoint or identical; identical ranges skip the self
  /// pair. Interactions use 1/sqrt(r^2 + soft2).
  void (*p2p)(const double* x, const double* y, const double* z,
              const double* q, std::size_t tb, std::size_t te, std::size_t sb,
              std::size_t se, double* phi, Vec3* grad, double soft2);

  /// Symmetric P2P (the paper's Figure 10 trick): both directions of every
  /// (target, source) pair in one pass. Ranges must be disjoint. Outputs are
  /// laid out [te-tb target entries][se-sb source entries]; the gradient is
  /// SoA (gx/gy/gz, same layout) so the source-side accumulation stays a
  /// contiguous vector update — pass gx == nullptr for potential only.
  void (*p2p_symmetric)(const double* x, const double* y, const double* z,
                        const double* q, std::size_t tb, std::size_t te,
                        std::size_t sb, std::size_t se, double* phi,
                        double* gx, double* gy, double* gz, double soft2);

  /// P2M: g[i] += sum_k pq[k] / |sp_i - p_k| for the `k` sphere points
  /// (spx/spy/spz) against a leaf's particle block of size n.
  void (*p2m)(const double* spx, const double* spy, const double* spz,
              std::size_t k, const double* px, const double* py,
              const double* pz, const double* pq, std::size_t n, double* g);

  /// L2P: evaluates the truncated inner Poisson kernel of a sphere (radius
  /// `a`, centre c, unit directions sx/sy/sz, gw[i] = g_i * w_i) at n
  /// particles, accumulating phi[j] (+ grad[j] when grad != nullptr). The
  /// Legendre/power recurrences run across a register of particles instead
  /// of one at a time; particles within ~1e-13 a of the centre fall back to
  /// the scalar reference path.
  void (*l2p)(const double* sx, const double* sy, const double* sz,
              const double* gw, std::size_t k, int truncation, double a,
              double cx, double cy, double cz, const double* px,
              const double* py, const double* pz, std::size_t n, double* phi,
              Vec3* grad);

  /// Van der Waals P2P: switched Lennard-Jones energy (and gradient when
  /// `grad != nullptr`) at targets [tb, te) due to sources [sb, se),
  /// accumulated like `p2p`. `type` indexes the per-pair Rmin^2/eps tables
  /// in `vp`. Pairs at or beyond the cutoff contribute exactly zero. The
  /// backends carry a BITWISE contract: every operation is a correctly
  /// rounded sub/mul/div/round or an explicit FMA in the same sequence, so
  /// portable and avx2 results are identical to the last bit; the avx512
  /// table uses the avx2 entries.
  void (*p2p_vdw)(const double* x, const double* y, const double* z,
                  const std::int32_t* type, std::size_t tb, std::size_t te,
                  std::size_t sb, std::size_t se, double* phi, Vec3* grad,
                  const VdwParams& vp);

  /// Symmetric van der Waals P2P (Newton's third law): both sides of every
  /// (target, source) pair in one pass, same output layout and gx == nullptr
  /// convention as `p2p_symmetric`, same bitwise contract as `p2p_vdw`.
  void (*p2p_vdw_symmetric)(const double* x, const double* y, const double* z,
                            const std::int32_t* type, std::size_t tb,
                            std::size_t te, std::size_t sb, std::size_t se,
                            double* phi, double* gx, double* gy, double* gz,
                            const VdwParams& vp);
};

/// True when `kind` can run on this CPU (portable always can).
bool kernel_supported(KernelKind kind);

/// The backend table for `kind`. Valid to call even when unsupported (for
/// introspection); do not invoke its functions unless kernel_supported().
const KernelBackend& kernel_backend(KernelKind kind);

/// The backend all particle-kernel calls route through. Initialized on
/// first use: HFMM_PKERN_KERNEL if set (falling back with a stderr warning
/// when the requested ISA is missing), else the best supported kernel.
const KernelBackend& active_kernel();
KernelKind active_kernel_kind();

/// Forces the active backend (for benchmarking / tests). Returns false and
/// leaves the selection unchanged when `kind` is unsupported on this CPU.
/// Not thread-safe against concurrent kernel calls.
bool select_kernel(KernelKind kind);

}  // namespace hfmm::pkern
