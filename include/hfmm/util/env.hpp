#pragma once
// Typed HFMM_* environment parsing, in one place.
//
// Every dial the library reads from the environment (kernel backend
// overrides, hierarchy defaults, vdW window) goes through these helpers
// instead of hand-rolled getenv + strtod blocks scattered across
// subsystems. The contract is uniform:
//   * unset or empty variable -> the caller's fallback, silently;
//   * a well-formed value inside the documented domain -> that value;
//   * anything else -> one stderr line naming the variable, the rejected
//     text and the expected domain, then the fallback. A malformed value is
//     NEVER silently reinterpreted (a boolean set to "garbage" is rejected,
//     not read as "on").
// Call sites keep their own `static const` caching; these functions parse
// on every call and are safe to call concurrently (they only read the
// environment and write stderr).

#include <cstddef>
#include <span>

namespace hfmm::env {

/// Boolean dial. Accepts 0/1/true/false/on/off/yes/no (case-sensitive,
/// matching the documented spellings). Anything else warns and falls back.
bool parse_bool(const char* name, bool fallback);

/// Integer dial in [lo, hi]. `what` finishes the warning, e.g.
/// "a depth in [2, 10]".
long parse_int(const char* name, long fallback, long lo, long hi,
               const char* what);

/// Floating-point dial in [lo, hi] (finite). `what` as above.
double parse_double(const char* name, double fallback, double lo, double hi,
                    const char* what);

/// Enumerated dial: returns the index of the matching choice, or
/// `fallback_index` (with a warning listing the choices) when the value
/// matches none of them.
std::size_t parse_choice(const char* name,
                         std::span<const char* const> choices,
                         std::size_t fallback_index);

}  // namespace hfmm::env
