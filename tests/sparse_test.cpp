// Active-box hierarchy (DESIGN.md Section 13): active-set derivation,
// cost-model chunk splitting, the data-parallel masking rule, and the
// active-set executor on clustered input. The oracle for a clustered input
// is the same input with a q = 0 particle at the centre of every empty
// leaf: the padding makes every box active, so every gather runs full
// length with exact-zero fields where the input has none, and the real
// particles' fields must agree within tolerance (only the grouping of the
// gathered products differs).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "hfmm/core/solver.hpp"
#include "hfmm/dp/multigrid.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm {
namespace {

// ---------------------------------------------------------------- active set

tree::Hierarchy make_hier(int depth) { return tree::Hierarchy(Box3{}, depth); }

TEST(ActiveSetTest, SingleOccupiedLeaf) {
  const tree::Hierarchy hier = make_hier(3);
  const tree::BoxCoord leaf{5, 2, 7};
  const std::uint32_t flat =
      static_cast<std::uint32_t>(hier.flat_index(3, leaf));
  tree::ActiveLevels act;
  tree::build_active_levels(hier, std::vector<std::uint32_t>{flat}, act);

  ASSERT_EQ(act.depth, 3);
  tree::BoxCoord c = leaf;
  for (int l = 3; l >= 0; --l) {
    EXPECT_EQ(act.levels[l].count(), 1u) << "level " << l;
    EXPECT_EQ(act.levels[l].boxes[0], hier.flat_index(l, c)) << "level " << l;
    EXPECT_EQ(act.levels[l].dense_to_active[hier.flat_index(l, c)], 0);
    c = tree::Hierarchy::parent_of(c);
  }
  EXPECT_EQ(act.total_active(), 4u);
  // Everything else is inactive.
  int inactive = 0;
  for (std::int32_t v : act.levels[3].dense_to_active) inactive += (v < 0);
  EXPECT_EQ(inactive, 511);
}

TEST(ActiveSetTest, ParentClosureOnRandomSubset) {
  const tree::Hierarchy hier = make_hier(4);
  std::vector<std::uint32_t> occupied;
  // A deterministic scattered subset, unsorted and with duplicates.
  for (std::uint32_t i = 0; i < 4096; i += 37) occupied.push_back(i % 4096);
  occupied.push_back(occupied.front());
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);

  for (int l = 1; l <= 4; ++l) {
    const auto& lvl = act.levels[l];
    // Ascending unique flat indices — the fixed reduction order.
    for (std::size_t i = 1; i < lvl.boxes.size(); ++i)
      EXPECT_LT(lvl.boxes[i - 1], lvl.boxes[i]);
    for (const std::uint32_t flat : lvl.boxes) {
      const tree::BoxCoord c = hier.coord_of(l, flat);
      const std::size_t pflat =
          hier.flat_index(l - 1, tree::Hierarchy::parent_of(c));
      EXPECT_TRUE(act.levels[l - 1].active(pflat))
          << "level " << l << " box " << flat << " has inactive parent";
    }
  }
  // Every active internal box has at least one active child.
  for (int l = 0; l < 4; ++l)
    for (const std::uint32_t flat : act.levels[l].boxes) {
      const tree::BoxCoord c = hier.coord_of(l, flat);
      bool any = false;
      for (int o = 0; o < 8; ++o)
        any |= act.levels[l + 1].active(
            hier.flat_index(l + 1, tree::Hierarchy::child_of(c, o)));
      EXPECT_TRUE(any) << "level " << l << " box " << flat;
    }
}

TEST(ActiveSetTest, FullyOccupiedIsAllActive) {
  const tree::Hierarchy hier = make_hier(2);
  std::vector<std::uint32_t> occupied(64);
  std::iota(occupied.begin(), occupied.end(), 0u);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);
  for (int l = 0; l <= 2; ++l) {
    EXPECT_TRUE(act.level_all_active(l));
    EXPECT_DOUBLE_EQ(act.occupancy(l), 1.0);
  }
  EXPECT_EQ(act.total_active(), act.total_dense());
}

TEST(ActiveSetTest, DepthZeroAndOne) {
  {
    const tree::Hierarchy hier = make_hier(0);
    tree::ActiveLevels act;
    tree::build_active_levels(hier, std::vector<std::uint32_t>{0}, act);
    ASSERT_EQ(act.depth, 0);
    EXPECT_EQ(act.levels[0].count(), 1u);
  }
  {
    const tree::Hierarchy hier = make_hier(1);
    tree::ActiveLevels act;
    tree::build_active_levels(hier, std::vector<std::uint32_t>{3, 6}, act);
    ASSERT_EQ(act.depth, 1);
    EXPECT_EQ(act.levels[1].count(), 2u);
    EXPECT_EQ(act.levels[0].count(), 1u);
    EXPECT_EQ(act.levels[1].dense_to_active[3], 0);
    EXPECT_EQ(act.levels[1].dense_to_active[6], 1);
    EXPECT_FALSE(act.levels[1].active(0));
  }
}

TEST(ActiveSetTest, EmptyOccupiedListYieldsEmptyLevels) {
  const tree::Hierarchy hier = make_hier(2);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, {}, act);
  for (int l = 0; l <= 2; ++l) EXPECT_EQ(act.levels[l].count(), 0u);
  EXPECT_EQ(act.total_active(), 0u);
}

TEST(ActiveSetTest, WarmRebuildNoHeapGrowth) {
  const tree::Hierarchy hier = make_hier(3);
  std::vector<std::uint32_t> occupied;
  for (std::uint32_t i = 0; i < 512; i += 11) occupied.push_back(i);
  tree::ActiveLevels act;
  tree::build_active_levels(hier, occupied, act);
  const std::size_t bytes = act.capacity_bytes();
  tree::build_active_levels(hier, occupied, act);
  EXPECT_EQ(act.capacity_bytes(), bytes);
}

// --------------------------------------------------- cost-model chunk split

TEST(WeightedSplitTest, BoundsInvariants) {
  const std::vector<std::uint64_t> w{5, 1, 1, 1, 8, 1, 1, 1, 1, 5};
  for (std::size_t cap : {1u, 2u, 3u, 4u, 10u, 50u}) {
    const auto b = exec::weighted_split(w, cap);
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), w.size());
    for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
    EXPECT_LE(b.size() - 1, std::min<std::size_t>(cap, w.size()));
  }
}

TEST(WeightedSplitTest, SkewedWeightsBalanceCost) {
  // One dominating item: with 4 chunks the split must isolate it rather
  // than cut the range into equal quarters.
  std::vector<std::uint64_t> w(16, 1);
  w[3] = 1000;
  const auto b = exec::weighted_split(w, 4);
  std::uint64_t max_cost = 0;
  for (std::size_t c = 0; c + 1 < b.size(); ++c) {
    std::uint64_t cost = 0;
    for (std::size_t i = b[c]; i < b[c + 1]; ++i) cost += w[i];
    max_cost = std::max(max_cost, cost);
  }
  // The dominating item's chunk carries at most the item plus a few unit
  // neighbors — far below an equal-count split's 1000 + 3.
  EXPECT_LE(max_cost, 1003u);
  std::size_t chunk_of_3 = 0;
  for (std::size_t c = 0; c + 1 < b.size(); ++c)
    if (b[c] <= 3 && 3 < b[c + 1]) chunk_of_3 = b[c + 1] - b[c];
  EXPECT_LE(chunk_of_3, 4u);
}

TEST(WeightedSplitTest, ZeroWeightsStillCoverRange) {
  const std::vector<std::uint64_t> w(7, 0);
  const auto b = exec::weighted_split(w, 3);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 7u);
}

TEST(WeightedSplitTest, Deterministic) {
  std::vector<std::uint64_t> w;
  for (std::uint64_t i = 0; i < 100; ++i) w.push_back((i * 2654435761u) % 97);
  EXPECT_EQ(exec::weighted_split(w, 8), exec::weighted_split(w, 8));
}

TEST(PhaseGraphTest, WeightedStageCoversRangeAndReportsImbalance) {
  std::vector<std::uint64_t> weights(64, 1);
  weights[10] = 200;  // force a visible imbalance
  std::vector<std::atomic<int>> visits(64);
  exec::PhaseGraph g;
  g.add_weighted("work", "near", weights, 8,
                 [&](std::size_t, std::size_t lo, std::size_t hi,
                     PhaseStats& stats) {
                   for (std::size_t i = lo; i < hi; ++i)
                     visits[i].fetch_add(1, std::memory_order_relaxed);
                   stats.flops += hi - lo;
                 });
  ThreadPool pool(4);
  PhaseBreakdown breakdown;
  std::vector<exec::StageTiming> timeline;
  g.run(pool, exec::RunMode::kConcurrent, breakdown, &timeline);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  EXPECT_EQ(breakdown.phases().at("near").flops, 64u);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_GE(timeline[0].cost_imbalance, 1.0);
  EXPECT_GE(breakdown.phases().at("near").cost_imbalance, 1.0);
}

// -------------------------------------------------- masked multigrid moves

class MaskedEmbedTest : public ::testing::TestWithParam<dp::EmbedMethod> {};

TEST_P(MaskedEmbedTest, MaskedMovesMatchDenseAndCutTraffic) {
  dp::Machine machine({2, 2, 2});
  const dp::BlockLayout leaf(8, machine.config());
  const int level = 3;
  const dp::BlockLayout ll = dp::layout_for_level(leaf, level);
  const std::int32_t n = ll.boxes_per_side();

  // Active set: one corner octant of the level. dense_to_active carries the
  // active ordinals; the moves only test for >= 0.
  std::vector<std::int32_t> active(static_cast<std::size_t>(n) * n * n, -1);
  std::int32_t next = 0;
  for (std::int32_t z = 0; z < n / 2; ++z)
    for (std::int32_t y = 0; y < n / 2; ++y)
      for (std::int32_t x = 0; x < n / 2; ++x)
        active[(static_cast<std::size_t>(z) * n + y) * n + x] = next++;

  // An active-consistent level grid: values on active boxes, zero elsewhere
  // (exactly the invariant the solver maintains — inactive far fields are
  // exactly zero).
  dp::DistGrid temp(ll, 2);
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        if (active[(static_cast<std::size_t>(z) * n + y) * n + x] < 0)
          continue;
        auto v = temp.at_global({x, y, z});
        v[0] = 1.0 + x + 10.0 * y + 100.0 * z;
        v[1] = 0.5 * v[0];
      }

  dp::MultigridArray dense_mg(leaf, 3, 2), masked_mg(leaf, 3, 2);
  dense_mg.fill(0.0);
  masked_mg.fill(0.0);
  machine.reset_stats();
  dp::multigrid_embed(machine, temp, level, dense_mg, GetParam());
  const auto dense_stats = machine.stats();
  machine.reset_stats();
  dp::multigrid_embed(machine, temp, level, masked_mg, GetParam(), active);
  const auto masked_stats = machine.stats();

  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        const auto a = dense_mg.at(level, {x, y, z});
        const auto b = masked_mg.at(level, {x, y, z});
        EXPECT_EQ(a[0], b[0]) << x << "," << y << "," << z;
        EXPECT_EQ(a[1], b[1]) << x << "," << y << "," << z;
      }
  EXPECT_LT(masked_stats.off_vu_bytes + masked_stats.local_bytes,
            dense_stats.off_vu_bytes + dense_stats.local_bytes);

  // Extraction: masked extract of the masked embed equals the dense
  // round-trip on every box (inactive boxes read back the zeros they held).
  dp::DistGrid back_dense(ll, 2), back_masked(ll, 2);
  dp::multigrid_extract(machine, dense_mg, level, back_dense, GetParam());
  dp::multigrid_extract(machine, masked_mg, level, back_masked, GetParam(),
                        active);
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x)
        EXPECT_EQ(back_dense.at_global({x, y, z})[0],
                  back_masked.at_global({x, y, z})[0]);
}

INSTANTIATE_TEST_SUITE_P(Methods, MaskedEmbedTest,
                         ::testing::Values(dp::EmbedMethod::kGeneralSend,
                                           dp::EmbedMethod::kLocalCopy),
                         [](const auto& info) {
                           return info.param == dp::EmbedMethod::kGeneralSend
                                      ? "general_send"
                                      : "local_copy";
                         });

// ------------------------------------------------------- solver agreement

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

core::FmmConfig sparse_config(int depth) {
  core::FmmConfig cfg;
  cfg.depth = depth;
  cfg.supernodes = true;
  cfg.with_gradient = true;
  return cfg;
}

// Compares the first a.phi.size() particles of `b` against `a`, phi and
// grad, each within `rel` of a's largest magnitude.
void expect_close(const core::FmmResult& a, const core::FmmResult& b,
                  double rel) {
  const std::size_t n = a.phi.size();
  ASSERT_GE(b.phi.size(), n);
  double scale = 0.0;
  for (const double v : a.phi) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(a.phi[i], b.phi[i], rel * scale) << i;
  ASSERT_EQ(a.grad.size(), n);
  ASSERT_GE(b.grad.size(), n);
  double gscale = 0.0;
  for (const Vec3& g : a.grad)
    gscale = std::max({gscale, std::abs(g.x), std::abs(g.y), std::abs(g.z)});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a.grad[i].x, b.grad[i].x, rel * gscale) << i;
    EXPECT_NEAR(a.grad[i].y, b.grad[i].y, rel * gscale) << i;
    EXPECT_NEAR(a.grad[i].z, b.grad[i].z, rel * gscale) << i;
  }
}

// `p` plus two corner anchors at (0,0,0) and (1,1,1), which pin the solver's
// root cube (it comes from the particle bounds) to the unit box's.
ParticleSet anchored(const ParticleSet& p) {
  ParticleSet out(p.size() + 2);
  for (std::size_t i = 0; i < p.size(); ++i)
    out.set(i, p.position(i), p.charge(i));
  out.set(p.size(), {0.0, 0.0, 0.0}, 1.0);
  out.set(p.size() + 1, {1.0, 1.0, 1.0}, 1.0);
  return out;
}

// `p` (anchored) plus one q = 0 particle at the centre of every leaf it
// leaves empty at `depth`. The padding changes no potential of p's
// particles, shares p's root cube, and fills every leaf, so every box of
// every level is active and every gather runs full length with exact-zero
// fields where p has none: the oracle for the solve of p, which skips its
// inactive boxes and gathers only active sources.
ParticleSet padded(const ParticleSet& p, int depth) {
  const tree::Hierarchy hier(tree::cube_containing(p.bounds()), depth);
  std::vector<bool> occupied(hier.boxes_at(depth), false);
  for (std::size_t i = 0; i < p.size(); ++i)
    occupied[hier.flat_index(depth, hier.leaf_of(p.position(i)))] = true;
  std::vector<Vec3> centres;
  for (std::size_t f = 0; f < occupied.size(); ++f)
    if (!occupied[f])
      centres.push_back(hier.center(depth, hier.coord_of(depth, f)));
  ParticleSet out(p.size() + centres.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    out.set(i, p.position(i), p.charge(i));
  for (std::size_t j = 0; j < centres.size(); ++j)
    out.set(p.size() + j, centres[j], 0.0);
  return out;
}

// Solves anchored input `p` and its padding under `cfg` and compares the
// real particles at 1e-11.
void expect_matches_padded(const core::FmmConfig& cfg, const ParticleSet& p) {
  const ParticleSet full = padded(p, cfg.depth);
  core::FmmSolver active(cfg);
  core::FmmSolver all_active(cfg);
  const core::FmmResult rs = active.solve(p);
  const core::FmmResult rd = all_active.solve(full);
  EXPECT_LT(rs.active_boxes, rd.active_boxes);
  expect_close(rs, rd, 1e-11);
}

TEST(SparseSolveTest, AutoStaysDenseAndBitwiseOnUniform) {
  // A solve's bits do not depend on what the solver ran before: a solver
  // that just solved Plummer input (short gathers, a small active set)
  // reproduces a fresh solver's result on uniform input exactly.
  const ParticleSet p = make_uniform(4000, Box3{}, 11);
  core::FmmSolver fresh(sparse_config(3));
  const core::FmmResult rf = fresh.solve(p);
  EXPECT_EQ(rf.active_boxes, 585u);  // every box of levels 0..3
  core::FmmSolver reused(sparse_config(3));
  EXPECT_LT(reused.solve(make_plummer(4000, Box3{}, 12)).active_boxes, 585u);
  const core::FmmResult rr = reused.solve(p);
  EXPECT_TRUE(bitwise_equal(rf.phi, rr.phi));
  EXPECT_TRUE(bitwise_equal(rf.grad, rr.grad));
}

TEST(SparseSolveTest, AutoSelectsSparseOnPlummer) {
  const ParticleSet p = make_plummer(3000, Box3{}, 12);
  core::FmmSolver solver(sparse_config(4));
  const core::FmmResult r = solver.solve(p);
  ASSERT_EQ(r.level_occupancy.size(), 5u);
  EXPECT_LT(r.level_occupancy[4], 0.9);
  EXPECT_LT(r.active_boxes, 4096u + 512 + 64 + 8 + 1);
}

TEST(SparseSolveTest, SparseMatchesDenseOnClustered) {
  for (const core::ExecutionMode mode :
       {core::ExecutionMode::kSequential, core::ExecutionMode::kThreads}) {
    core::FmmConfig cfg = sparse_config(4);
    cfg.mode = mode;
    expect_matches_padded(cfg, anchored(make_plummer(3000, Box3{}, 21)));
    expect_matches_padded(cfg,
                          anchored(make_two_clusters(3000, Box3{}, 22)));
    cfg.depth = 3;
    expect_matches_padded(cfg, anchored(make_plummer(1500, Box3{}, 17)));
  }
}

TEST(SparseSolveTest, AlmostAllParticlesInOneLeaf) {
  // Everything except the two corner anchors sits inside one depth-3 leaf.
  // Three occupied leaves — the extreme clustering edge case: nearly every
  // level is almost empty.
  const ParticleSet p = anchored(
      make_uniform(300, Box3{{0.50, 0.50, 0.50}, {0.56, 0.56, 0.56}}, 14));
  core::FmmSolver sparse(sparse_config(3));
  const core::FmmResult rs = sparse.solve(p);
  // At most 3 active boxes per level (cluster leaf may straddle at most a
  // couple of leaves; the anchors add one each), far below the dense 585.
  EXPECT_LE(rs.active_boxes, 4u * 3u);
  expect_matches_padded(sparse_config(3), p);
}

TEST(SparseSolveTest, WarmSparseSolveBitwiseAndZeroGrowth) {
  const ParticleSet p = make_plummer(2500, Box3{}, 15);
  core::FmmSolver solver(sparse_config(4));
  const core::FmmResult cold = solver.solve(p);
  const core::FmmResult warm = solver.solve(p);
  EXPECT_TRUE(bitwise_equal(cold.phi, warm.phi));
  EXPECT_EQ(warm.workspace_allocs, 0u);
  // A fresh solver reproduces the same bits — chunk splits depend only on
  // the cost model, never on scheduling.
  core::FmmSolver fresh(sparse_config(4));
  EXPECT_TRUE(bitwise_equal(cold.phi, fresh.solve(p).phi));
}

// A sequential solve gathers each matrix's rows into one gemm per stage; a
// threaded one splits them over one chunk per worker. Every row must still
// come out bit for bit the same.
TEST(SparseSolveTest, SequentialAndThreadedSparseAgreeBitwise) {
  for (const ParticleSet& p :
       {make_uniform(3000, Box3{}, 16), make_plummer(2000, Box3{}, 16)}) {
    for (const bool supernodes : {true, false}) {
      core::FmmConfig cfg = sparse_config(4);
      cfg.supernodes = supernodes;
      cfg.mode = core::ExecutionMode::kSequential;
      core::FmmSolver seq(cfg);
      cfg.mode = core::ExecutionMode::kThreads;
      core::FmmSolver thr(cfg);
      const core::FmmResult rs = seq.solve(p);
      const core::FmmResult rt = thr.solve(p);
      EXPECT_TRUE(bitwise_equal(rs.phi, rt.phi)) << "supernodes " << supernodes;
      EXPECT_TRUE(bitwise_equal(rs.grad, rt.grad))
          << "supernodes " << supernodes;
    }
  }
}

TEST(SparseSolveTest, DataParallelMaskedMatchesPaddedDense) {
  // The DP executor keeps its dense compute loops; on clustered input its
  // occupancy rule masks the multigrid moves of all-zero inactive sections.
  // The padded input fills every leaf, so its moves are unmasked: values
  // agree while the masked solve counts less communication.
  const ParticleSet p = anchored(make_plummer(1500, Box3{}, 17));
  core::FmmConfig cfg = sparse_config(3);
  cfg.mode = core::ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  core::FmmSolver masked(cfg);
  core::FmmSolver dense(cfg);
  const core::FmmResult rm = masked.solve(p);
  const core::FmmResult rd = dense.solve(padded(p, 3));
  expect_close(rm, rd, 1e-11);
  // With the default kLocalCopy embedding every VU-aligned level moves
  // locally, so the mask's savings land in local bytes.
  EXPECT_LT(rm.comm.local_bytes, rd.comm.local_bytes);
}

TEST(SparseSolveTest, NearFieldCostImbalanceReported) {
  const ParticleSet p = make_plummer(3000, Box3{}, 18);
  core::FmmSolver solver(sparse_config(4));
  const core::FmmResult r = solver.solve(p);
  const auto& near = r.breakdown.phases().at("near");
  EXPECT_GE(near.cost_imbalance, 1.0);
  EXPECT_GT(near.boxes_total, near.boxes_active);
  const auto& active = r.breakdown.phases().at("active");
  EXPECT_GT(active.boxes_total, 0u);
}

}  // namespace
}  // namespace hfmm
