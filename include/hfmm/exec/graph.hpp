#pragma once
// hfmm::exec — the phase-graph execution layer.
//
// The paper's program is literally a sequence of data-parallel phases
// (coordinate sort, upward T1, interactive T2, downward T3, near field —
// Section 3, Figures 5-10). Instead of each execution mode hand-rolling
// that sequence, a solve is expressed once as a PhaseGraph: typed stages
// (Sort, P2M, UpwardLevel(l), InteractiveLevel(l), DownwardLevel(l), L2P,
// NearField, Accumulate) with explicit predecessor edges, run by a
// work-stealing-free scheduler on the existing ThreadPool.
//
// A stage owns an index range [0, range) that the scheduler splits into a
// fixed number of chunks (decided at build time, so the floating-point
// grouping — and therefore the result bits — never depends on scheduling).
// Two run modes:
//   * kInline — topological order on the calling thread; chunks of a stage
//     execute sequentially in index order. The sequential mode, and the
//     mode for stage bodies that internally fan out onto a pool themselves
//     (the simulated data-parallel machine).
//   * kConcurrent — the whole graph runs inside one ThreadPool region;
//     every pool worker loops over a ready queue (mutex-protected claim,
//     atomic dependency/chunk counters for completion). Independent stages
//     overlap: the near field runs concurrently with the entire far-field
//     chain, meeting it only at the accumulate stage.
//
// Stage bodies report flops/bytes into a per-worker PhaseStats (no shared
// counters on the hot path); per-stage wall seconds come from the recorded
// start/end timestamps and everything is merged into the caller's
// PhaseBreakdown exactly once at graph completion. The timestamps are also
// exposed as a StageTiming timeline so overlap is observable, not just
// asserted.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hfmm/util/thread_pool.hpp"
#include "hfmm/util/timer.hpp"

namespace hfmm::exec {

using NodeId = std::size_t;

/// One executed stage of a run: wall-clock interval (seconds relative to
/// the start of the graph run), chunk split, and which workers ran it.
struct StageTiming {
  std::string stage;          ///< stage name, e.g. "interactive:L3"
  std::string phase;          ///< breakdown phase it reports into
  double start_seconds = 0.0; ///< first chunk claimed
  double end_seconds = 0.0;   ///< last chunk finished
  std::size_t chunks = 0;     ///< fixed chunk split of the stage
  std::size_t workers = 0;    ///< distinct workers that executed chunks
  /// Cost-model imbalance of the chunk split: (max chunk cost) / (mean
  /// chunk cost), >= 1.0 for weighted stages, 0 for unweighted ones.
  double cost_imbalance = 0.0;
};

enum class RunMode {
  kInline,      ///< topological order on the calling thread
  kConcurrent,  ///< ready-queue scheduler across the pool's workers
};

/// A DAG of chunked stages. Build with add()/depend(), execute with run().
/// The graph is a per-solve object: bodies capture references to the
/// solve's plan/workspace/result and are invoked as
///   body(chunk, lo, hi, stats)
/// where [lo, hi) is the chunk's slice of [0, range), `chunk` its index
/// (stable across runs — usable as a scratch-slot key), and `stats` a
/// per-worker PhaseStats for flop/byte/alloc reporting (never seconds;
/// stage wall time is recorded by the scheduler).
class PhaseGraph {
 public:
  using ChunkBody = std::function<void(std::size_t chunk, std::size_t lo,
                                       std::size_t hi, PhaseStats& stats)>;

  PhaseGraph();
  ~PhaseGraph();
  PhaseGraph(const PhaseGraph&) = delete;
  PhaseGraph& operator=(const PhaseGraph&) = delete;

  /// Adds a stage over [0, range) split into min(range, max_chunks) chunks
  /// (max_chunks == 0 means one chunk per pool worker, decided at run()).
  /// Stages with a larger `priority` yield the ready queue to lower ones —
  /// the far-field critical path runs at 0, the near field fills idle
  /// workers at 1. Returns the node id used for depend().
  NodeId add(std::string name, std::string phase, std::size_t range,
             std::size_t max_chunks, ChunkBody body, int priority = 0);

  /// Adds a cost-weighted stage over [0, weights.size()): the range is
  /// split into at most min(weights.size(), max_chunks) contiguous chunks
  /// of near-equal total weight (per-item costs from the caller's cost
  /// model — near-field pair counts, translation counts), instead of equal
  /// item counts. The split is computed when the graph runs, from the
  /// weights alone, so it is independent of scheduling — results stay
  /// bitwise-reproducible. The achieved (max/mean) chunk-cost ratio is
  /// reported as StageTiming::cost_imbalance and max-merged into the
  /// phase's PhaseStats.
  NodeId add_weighted(std::string name, std::string phase,
                      std::span<const std::uint64_t> weights,
                      std::size_t max_chunks, ChunkBody body,
                      int priority = 0);

  /// Adds a single-chunk stage (serial body).
  NodeId add_serial(std::string name, std::string phase,
                    std::function<void(PhaseStats&)> body, int priority = 0);

  /// Declares that `node` cannot start before `pred` has completed.
  void depend(NodeId node, NodeId pred);

  std::size_t size() const { return nodes_.size(); }

  /// Executes the graph. Merges per-stage wall seconds and per-worker
  /// flop/byte/alloc counters into `breakdown`, and appends one StageTiming
  /// per stage (in node-insertion order) to `timeline` when non-null.
  /// Exceptions from stage bodies propagate (first one wins). The graph is
  /// single-use: run() may only be called once.
  void run(ThreadPool& pool, RunMode mode, PhaseBreakdown& breakdown,
           std::vector<StageTiming>* timeline = nullptr);

 private:
  struct Node;
  struct RunState;
  void run_inline(ThreadPool& pool, PhaseBreakdown& breakdown,
                  std::vector<StageTiming>* timeline);
  void run_concurrent(ThreadPool& pool, PhaseBreakdown& breakdown,
                      std::vector<StageTiming>* timeline);
  void finish(std::size_t workers, std::vector<PhaseBreakdown>& worker_stats,
              PhaseBreakdown& breakdown, std::vector<StageTiming>* timeline);

  // Pointer-stable storage: nodes hold atomics (immovable) and the header
  // only forward-declares Node.
  std::vector<std::unique_ptr<Node>> nodes_;
  bool ran_ = false;
};

/// Splits items [0, weights.size()) into at most `max_chunks` contiguous
/// chunks of near-equal total weight (greedy prefix targets; every chunk
/// gets at least one item). Returns the chunk bounds: bounds[c] .. bounds
/// [c+1] is chunk c, bounds.front() == 0, bounds.back() == weights.size().
/// Deterministic in the weights — the building block of add_weighted,
/// exposed for tests and for callers that need the split itself.
std::vector<std::size_t> weighted_split(
    std::span<const std::uint64_t> weights, std::size_t max_chunks);

}  // namespace hfmm::exec
