// Backend selection: cpuid-probed default, HFMM_PKERN_KERNEL override, and
// the explicit select_kernel() hook the benchmarks and tests use for A/B
// comparisons. Mirrors blas/kernels.cpp.

#include "hfmm/pkern/kernels.hpp"

#include <cstdio>

#include "hfmm/util/env.hpp"
#include "kernel_util.hpp"

namespace hfmm::pkern {

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kPortable: return "portable";
    case KernelKind::kAvx2: return "avx2";
    case KernelKind::kAvx512: return "avx512";
  }
  return "?";
}

bool kernel_supported(KernelKind kind) {
  switch (kind) {
    case KernelKind::kPortable: return true;
    case KernelKind::kAvx2: return avx2_cpu_supported();
    case KernelKind::kAvx512: return avx512_cpu_supported();
  }
  return false;
}

const KernelBackend& kernel_backend(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAvx2: return avx2_backend();
    case KernelKind::kAvx512: return avx512_backend();
    case KernelKind::kPortable: break;
  }
  return portable_backend();
}

namespace {

KernelKind initial_kind() {
  static constexpr const char* kChoices[] = {"auto", "portable", "avx2"};
  switch (env::parse_choice("HFMM_PKERN_KERNEL", kChoices, 0)) {
    case 1: return KernelKind::kPortable;
    case 2:
      if (kernel_supported(KernelKind::kAvx2)) return KernelKind::kAvx2;
      std::fprintf(stderr,
                   "hfmm: HFMM_PKERN_KERNEL=avx2 but this CPU lacks AVX2/FMA; "
                   "using portable\n");
      return KernelKind::kPortable;
    default: break;
  }
  for (const KernelKind kind : {KernelKind::kAvx512, KernelKind::kAvx2})
    if (kernel_supported(kind)) return kind;
  return KernelKind::kPortable;
}

KernelKind& active_kind_ref() {
  static KernelKind kind = initial_kind();
  return kind;
}

}  // namespace

const KernelBackend& active_kernel() {
  return kernel_backend(active_kind_ref());
}

KernelKind active_kernel_kind() { return active_kind_ref(); }

bool select_kernel(KernelKind kind) {
  if (!kernel_supported(kind)) return false;
  active_kind_ref() = kind;
  return true;
}

}  // namespace hfmm::pkern
