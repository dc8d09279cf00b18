#pragma once
// Shared pieces of the hfmm benchmark: named metrics, sample statistics,
// wall-clock timing of repeated calls, and the span recorder of the traced
// run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> v);

/// The highest percentile of a sample that still has at least ten samples
/// beyond it: the 11th-largest value, at percentile 100 (n - 10) / n.
/// Samples of ten or fewer report their maximum at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
Tail tail(std::vector<double> v);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `fn` at least `min_reps` times and until `min_seconds` have passed,
/// returning the median seconds per call.
template <typename Fn>
double time_median(Fn&& fn, int min_reps, double min_seconds) {
  std::vector<double> t;
  const auto start = std::chrono::steady_clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         seconds_since(start) < min_seconds) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// Shortest round-trip decimal form of a finite double; "null" otherwise
/// (JSON has no NaN or infinity).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// In-memory span recorder. Spans nest by scope on the calling thread (the
/// benchmark records from its main thread only); each keeps its name, its
/// start and end, and the span that enclosed it. write() emits them as
/// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer* tracer, std::size_t id) : tracer_(tracer), id_(id) {}
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_;
  };

  /// Opens a span closed when the returned object leaves scope; a no-op on
  /// a disabled tracer.
  [[nodiscard]] Span span(std::string name);

  std::size_t size() const { return records_.size(); }

  /// Writes the recorded spans; returns false when the file cannot be
  /// written.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::size_t parent = 0;  ///< 1-based id of the enclosing span, 0 = none
  };
  void close(std::size_t id);
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< ids of the spans currently open
};

}  // namespace perfbench
