#pragma once
// HFMM_* environment parsing, in one place.
//
// The library reads the environment only to pick an instruction-set backend:
// HFMM_BLAS_KERNEL (src/blas) and HFMM_PKERN_KERNEL (src/pkern). What a
// solve computes comes from its config structs alone. The contract:
//   * unset or empty variable -> the caller's fallback, silently;
//   * one of the documented choices -> that choice;
//   * anything else -> one stderr line naming the variable, the rejected
//     text and the expected choices, then the fallback. A malformed value is
//     NEVER silently reinterpreted.
// Call sites keep their own `static const` caching; parse_choice parses on
// every call and is safe to call concurrently (it only reads the
// environment and writes stderr).

#include <cstddef>
#include <span>

namespace hfmm::env {

/// Enumerated dial: returns the index of the matching choice, or
/// `fallback_index` (with a warning listing the choices) when the value
/// matches none of them.
std::size_t parse_choice(const char* name,
                         std::span<const char* const> choices,
                         std::size_t fallback_index);

}  // namespace hfmm::env
