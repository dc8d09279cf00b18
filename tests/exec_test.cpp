// The phase-graph execution layer: chunk coverage, dependency edges, both
// run modes, error paths, and the recorded timeline. The randomized-DAG
// stress cases are the scheduler's main correctness net: every chunk must
// run exactly once and no stage may start before its predecessors finish,
// under a real multi-worker pool.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hfmm/exec/graph.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::exec {
namespace {

TEST(PhaseGraphTest, ChunksCoverRangeExactlyOnce) {
  ThreadPool pool(1);
  PhaseGraph g;
  std::vector<int> hits(101, 0);
  g.add("stage", "p", hits.size(), 7,
        [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
          for (std::size_t i = lo; i < hi; ++i) hits[i]++;
        });
  PhaseBreakdown bd;
  g.run(pool, RunMode::kInline, bd);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(PhaseGraphTest, InlineRunsLowestIdFirstTopologicalOrder) {
  ThreadPool pool(1);
  PhaseGraph g;
  std::vector<std::size_t> order;
  auto node = [&](std::size_t tag) {
    return g.add_serial("n" + std::to_string(tag), "p",
                        [&, tag](PhaseStats&) { order.push_back(tag); });
  };
  // Diamond with a cross edge: 0 -> {1, 2} -> 3, plus 1 -> 2.
  const NodeId a = node(0), b = node(1), c = node(2), d = node(3);
  g.depend(b, a);
  g.depend(c, a);
  g.depend(c, b);
  g.depend(d, b);
  g.depend(d, c);
  PhaseBreakdown bd;
  g.run(pool, RunMode::kInline, bd);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(PhaseGraphTest, SerialStageReportsIntoNamedPhase) {
  ThreadPool pool(1);
  PhaseGraph g;
  g.add_serial("s", "mine", [](PhaseStats& stats) {
    stats.flops += 42;
    stats.comm_bytes += 7;
  });
  PhaseBreakdown bd;
  g.run(pool, RunMode::kInline, bd);
  EXPECT_EQ(bd.phases().at("mine").flops, 42u);
  EXPECT_EQ(bd.phases().at("mine").comm_bytes, 7u);
  EXPECT_GE(bd.phases().at("mine").seconds, 0.0);
}

TEST(PhaseGraphTest, TimelineRecordsStagesInInsertionOrder) {
  ThreadPool pool(4);
  PhaseGraph g;
  const NodeId a = g.add("first", "p", 64, 0,
                         [](std::size_t, std::size_t, std::size_t,
                            PhaseStats&) {});
  const NodeId b = g.add_serial("second", "q", [](PhaseStats&) {});
  g.depend(b, a);
  PhaseBreakdown bd;
  std::vector<StageTiming> timeline;
  g.run(pool, RunMode::kConcurrent, bd, &timeline);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].stage, "first");
  EXPECT_EQ(timeline[1].stage, "second");
  EXPECT_EQ(timeline[0].phase, "p");
  EXPECT_GE(timeline[0].end_seconds, timeline[0].start_seconds);
  EXPECT_GE(timeline[0].workers, 1u);
  EXPECT_GE(timeline[0].chunks, 1u);
  // The edge forces "second" to start only after "first" has ended.
  EXPECT_GE(timeline[1].start_seconds, timeline[0].end_seconds);
}

TEST(PhaseGraphTest, CycleThrowsInline) {
  ThreadPool pool(1);
  PhaseGraph g;
  const NodeId a = g.add_serial("a", "p", [](PhaseStats&) {});
  const NodeId b = g.add_serial("b", "p", [](PhaseStats&) {});
  g.depend(a, b);
  g.depend(b, a);
  PhaseBreakdown bd;
  EXPECT_THROW(g.run(pool, RunMode::kInline, bd), std::logic_error);
}

TEST(PhaseGraphTest, CycleThrowsConcurrentBeforeDeadlock) {
  ThreadPool pool(4);
  PhaseGraph g;
  const NodeId a = g.add_serial("a", "p", [](PhaseStats&) {});
  const NodeId b = g.add_serial("b", "p", [](PhaseStats&) {});
  g.depend(a, b);
  g.depend(b, a);
  PhaseBreakdown bd;
  EXPECT_THROW(g.run(pool, RunMode::kConcurrent, bd), std::logic_error);
}

TEST(PhaseGraphTest, GraphIsSingleUse) {
  ThreadPool pool(1);
  PhaseGraph g;
  g.add_serial("a", "p", [](PhaseStats&) {});
  PhaseBreakdown bd;
  g.run(pool, RunMode::kInline, bd);
  EXPECT_THROW(g.run(pool, RunMode::kInline, bd), std::logic_error);
}

TEST(PhaseGraphTest, BodyExceptionPropagatesInline) {
  ThreadPool pool(1);
  PhaseGraph g;
  g.add_serial("boom", "p",
               [](PhaseStats&) { throw std::runtime_error("boom"); });
  PhaseBreakdown bd;
  EXPECT_THROW(g.run(pool, RunMode::kInline, bd), std::runtime_error);
}

TEST(PhaseGraphTest, BodyExceptionPropagatesConcurrent) {
  ThreadPool pool(4);
  PhaseGraph g;
  const NodeId a = g.add("boom", "p", 16, 0,
                         [](std::size_t c, std::size_t, std::size_t,
                            PhaseStats&) {
                           if (c == 1) throw std::runtime_error("boom");
                         });
  const NodeId b = g.add_serial("after", "p", [](PhaseStats&) {});
  g.depend(b, a);
  PhaseBreakdown bd;
  EXPECT_THROW(g.run(pool, RunMode::kConcurrent, bd), std::runtime_error);
}

TEST(PhaseGraphTest, DependRejectsBadIds) {
  PhaseGraph g;
  const NodeId a = g.add_serial("a", "p", [](PhaseStats&) {});
  EXPECT_THROW(g.depend(a, a), std::invalid_argument);
  EXPECT_THROW(g.depend(a, 99), std::invalid_argument);
  EXPECT_THROW(g.depend(99, a), std::invalid_argument);
}

// Randomized-DAG stress: nodes with random chunked ranges and random
// forward edges, run under a 4-worker pool. Validates the dependency
// counters (a stage observes all predecessor chunks complete before any of
// its own chunks runs) and exactly-once chunk execution.
class RandomDagStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagStress, EdgesRespectedAndChunksRunOnce) {
  Xoshiro256 rng(GetParam());
  ThreadPool pool(4);
  constexpr std::size_t kNodes = 48;

  PhaseGraph g;
  std::vector<std::atomic<std::size_t>> executed(kNodes);
  std::vector<std::size_t> expect_chunks(kNodes);
  std::atomic<bool> violation{false};
  std::vector<std::vector<NodeId>> preds(kNodes);

  for (NodeId id = 0; id < kNodes; ++id) {
    const std::size_t range = 1 + static_cast<std::size_t>(rng.uniform() * 64);
    const std::size_t max_chunks =
        1 + static_cast<std::size_t>(rng.uniform() * 8);
    expect_chunks[id] = std::min(range, max_chunks);
    std::string name = "n";
    name.append(std::to_string(id));
    g.add(std::move(name), "p", range, max_chunks,
          [&, id](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
            // Every predecessor must already have all its chunks done.
            for (const NodeId pr : preds[id])
              if (executed[pr].load(std::memory_order_acquire) !=
                  expect_chunks[pr])
                violation.store(true, std::memory_order_relaxed);
            (void)lo;
            (void)hi;
            executed[id].fetch_add(1, std::memory_order_acq_rel);
          },
          static_cast<int>(rng.uniform() * 3));  // mixed priorities
  }
  // Random forward edges keep the graph acyclic.
  for (NodeId to = 1; to < kNodes; ++to)
    for (NodeId from = 0; from < to; ++from)
      if (rng.uniform() < 0.08) {
        g.depend(to, from);
        preds[to].push_back(from);
      }

  PhaseBreakdown bd;
  std::vector<StageTiming> timeline;
  g.run(pool, RunMode::kConcurrent, bd, &timeline);

  EXPECT_FALSE(violation.load());
  for (NodeId id = 0; id < kNodes; ++id)
    EXPECT_EQ(executed[id].load(), expect_chunks[id]) << "node " << id;
  // The recorded intervals must also respect every edge.
  ASSERT_EQ(timeline.size(), kNodes);
  for (NodeId to = 0; to < kNodes; ++to)
    for (const NodeId from : preds[to])
      EXPECT_GE(timeline[to].start_seconds, timeline[from].end_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagStress,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// A chunked reduction run both ways must produce identical slot contents:
// the chunk split is fixed at build time, so scheduling cannot change which
// indices land in which slot.
TEST(PhaseGraphTest, ConcurrentMatchesInlineChunkAssignment) {
  constexpr std::size_t kRange = 1000, kChunks = 13;
  auto run = [&](RunMode mode, ThreadPool& pool) {
    PhaseGraph g;
    std::vector<double> slots(kChunks, 0.0);
    g.add("sum", "p", kRange, kChunks,
          [&](std::size_t chunk, std::size_t lo, std::size_t hi,
              PhaseStats&) {
            for (std::size_t i = lo; i < hi; ++i)
              slots[chunk] += static_cast<double>(i) * 1e-3;
          });
    PhaseBreakdown bd;
    g.run(pool, mode, bd);
    return slots;
  };
  ThreadPool seq(1), par(4);
  EXPECT_EQ(run(RunMode::kInline, seq), run(RunMode::kConcurrent, par));
}

}  // namespace
}  // namespace hfmm::exec
