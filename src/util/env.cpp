#include "hfmm/util/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace hfmm::env {

namespace {

// nullptr when the variable is unset or empty — both mean "use fallback"
// everywhere, so they are collapsed here.
const char* raw(const char* name) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? nullptr : v;
}

void warn(const char* name, const char* value, const std::string& want) {
  std::fprintf(stderr, "hfmm: ignoring %s=\"%s\" (want %s)\n", name, value,
               want.c_str());
}

}  // namespace

std::size_t parse_choice(const char* name,
                         std::span<const char* const> choices,
                         std::size_t fallback_index) {
  const char* v = raw(name);
  if (v == nullptr) return fallback_index;
  for (std::size_t i = 0; i < choices.size(); ++i)
    if (std::strcmp(v, choices[i]) == 0) return i;
  std::string want;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i != 0) want += '|';
    want += choices[i];
  }
  warn(name, v, want);
  return fallback_index;
}

}  // namespace hfmm::env
