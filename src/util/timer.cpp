#include "hfmm/util/timer.hpp"

namespace hfmm {

double PhaseBreakdown::total_seconds() const {
  double t = 0.0;
  for (const auto& [name, s] : phases_)
    if (name != "comm") t += s.seconds;  // comm is an overlay, not a phase
  return t;
}

std::uint64_t PhaseBreakdown::total_flops() const {
  std::uint64_t f = 0;
  for (const auto& [name, s] : phases_)
    if (name != "comm") f += s.flops;
  return f;
}

PhaseBreakdown& PhaseBreakdown::operator+=(const PhaseBreakdown& o) {
  for (const auto& [name, s] : o.phases()) phases_[name] += s;
  return *this;
}

}  // namespace hfmm
