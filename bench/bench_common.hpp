#pragma once
// Shared helpers for the paper-reproduction bench harness.
//
// Every binary reproduces one table or figure (see DESIGN.md Section 4) and
// prints rows shaped like the paper's, plus the measured quantities we can
// obtain on this machine. Absolute numbers are not expected to match the
// 1996 CM-5E; the SHAPE of each comparison (who wins, by what factor, where
// crossovers fall) is the reproduction target (EXPERIMENTS.md records both).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "hfmm/blas/blas.hpp"
#include "hfmm/util/cli.hpp"
#include "hfmm/util/table.hpp"
#include "hfmm/util/timer.hpp"

namespace hfmm::bench {

/// Calibrated single-core peak (flops/s) for the paper's "efficiency of
/// floating point operations" metric. Cached across calls.
inline double peak_flops() {
  static const double peak = blas::measure_peak_flops(96, 0.1);
  return peak;
}

/// Efficiency of a measured phase relative to the calibrated peak.
inline double efficiency(std::uint64_t flops, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(flops) / seconds / peak_flops();
}

/// Median of a non-empty sample (the mean of the middle pair when even).
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The paper's second cross-machine metric: cycles per particle, using a
/// nominal clock so the numbers are scale-comparable with Table 1's.
inline double cycles_per_particle(double seconds, std::size_t n,
                                  double clock_hz = 3.0e9) {
  return seconds * clock_hz / static_cast<double>(n);
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

inline void check_unused(const Cli& cli) {
  for (const std::string& u : cli.unused())
    std::fprintf(stderr, "warning: unknown option --%s ignored\n", u.c_str());
}

}  // namespace hfmm::bench
