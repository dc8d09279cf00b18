#pragma once
// Wall-clock timing and a per-phase time/operation breakdown.
//
// The paper reports per-phase times (hierarchy traversal, near field, sort,
// ...) and the communication fraction; PhaseBreakdown is the accumulator that
// every executor writes into so benches can print the same rows.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace hfmm {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulated time, flop count, and data traffic for one phase.
/// `comm_bytes` counts off-processor traffic on the simulated machine.
/// `allocs` counts heap-growth events (buffer or plan (re)builds) charged to
/// the phase — a warm solve on a reused plan/workspace should report ~0.
struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t allocs = 0;
  /// Active-box occupancy of the phase: boxes the phase actually visited
  /// vs. the dense box count it would visit without sparse level sets.
  std::uint64_t boxes_active = 0;
  std::uint64_t boxes_total = 0;
  /// Particle pair interactions the phase evaluated (the "near" phase),
  /// surfaced in the bench JSON so pair-count regressions fail fast.
  std::uint64_t pairs = 0;
  /// Cost-model imbalance of the phase's worst stage: (max chunk cost) /
  /// (mean chunk cost), >= 1.0; 0 when the phase ran unweighted. Merged by
  /// max — one overloaded chunk anywhere is what bounds the speedup.
  double cost_imbalance = 0.0;
  /// On the "plan" phase: solve plans served by a shared plan cache (a hit
  /// built by another client) instead of being built by this solve.
  std::uint64_t plan_reuse = 0;
  /// Live ScopedPhaseTimer count on this phase (not merged by +=): lets
  /// nested timers on the same stats count wall time exactly once.
  int timing_depth = 0;

  PhaseStats& operator+=(const PhaseStats& o) {
    seconds += o.seconds;
    flops += o.flops;
    comm_bytes += o.comm_bytes;
    allocs += o.allocs;
    boxes_active += o.boxes_active;
    boxes_total += o.boxes_total;
    pairs += o.pairs;
    if (o.cost_imbalance > cost_imbalance) cost_imbalance = o.cost_imbalance;
    plan_reuse += o.plan_reuse;
    return *this;
  }
};

/// Named per-phase accumulator. Phase names used by the FMM pipeline:
/// "sort", "active" (sparse active-set derivation), "p2m", "upward",
/// "interactive", "downward", "l2p", "near",
/// "precompute", "plan" (per-depth solve-plan construction: supernode
/// gather plans + near-field interaction lists; zero seconds/allocs on a
/// warm solve), "workspace" (allocs = workspace buffer growth events this
/// solve), and "comm" (communication-only time, also folded into the owning
/// phase's seconds).
class PhaseBreakdown {
 public:
  PhaseStats& operator[](const std::string& phase) { return phases_[phase]; }
  const std::map<std::string, PhaseStats>& phases() const { return phases_; }

  double total_seconds() const;
  std::uint64_t total_flops() const;
  void clear() { phases_.clear(); }

  /// Merge another breakdown into this one (phase-wise sum).
  PhaseBreakdown& operator+=(const PhaseBreakdown& o);

 private:
  std::map<std::string, PhaseStats> phases_;
};

/// RAII helper: adds elapsed wall time to `stats.seconds` on destruction.
/// Nesting-safe: when timers on the SAME PhaseStats nest (a phase helper
/// that itself opens a phase timer), only the outermost one records its
/// elapsed time — inner timers would otherwise double-count the same wall
/// interval. Not for concurrent use on one PhaseStats; concurrent stages
/// report into per-worker stats that are merged afterwards (hfmm::exec).
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(PhaseStats& stats) : stats_(stats) {
    outermost_ = stats_.timing_depth++ == 0;
  }
  ~ScopedPhaseTimer() {
    --stats_.timing_depth;
    if (outermost_) stats_.seconds += timer_.seconds();
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  PhaseStats& stats_;
  WallTimer timer_;
  bool outermost_ = false;
};

}  // namespace hfmm
