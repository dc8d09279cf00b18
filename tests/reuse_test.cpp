// Plan/workspace reuse semantics: a solver's first solve builds the
// translation set, the per-depth plan, and the workspace; subsequent solves
// with an unchanged configuration must reuse all three — bitwise-identical
// results, zero plan construction, and zero workspace heap growth.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <tuple>

#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/util/particles.hpp"

namespace hfmm::core {
namespace {

FmmConfig base_config(ExecutionMode mode) {
  FmmConfig cfg;
  cfg.depth = 3;
  cfg.mode = mode;
  cfg.with_gradient = true;
  return cfg;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0);
}

class ReuseModes : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ReuseModes, ConsecutiveSolvesBitwiseIdentical) {
  FmmSolver solver(base_config(GetParam()));
  const ParticleSet p = make_uniform(1500, Box3{}, 17);
  const FmmResult first = solver.solve(p);
  const FmmResult second = solver.solve(p);
  EXPECT_TRUE(bitwise_equal(first.phi, second.phi));
  EXPECT_TRUE(bitwise_equal(first.grad, second.grad));
}

// Graph-executor determinism: under every aggregation mode (and with
// supernodes on/off), repeated solves — warm on one solver and cold on a
// fresh one — must be bitwise identical. The chunk split of every stage is
// fixed when the phase graph is built, so scheduling cannot change the
// floating-point grouping.
TEST_P(ReuseModes, DeterministicAcrossAggregationModes) {
  const ParticleSet p = make_uniform(1200, Box3{}, 57);
  for (const AggregationMode agg :
       {AggregationMode::kGemv, AggregationMode::kGemm}) {
    for (const bool sn : {false, true}) {
      FmmConfig cfg = base_config(GetParam());
      cfg.aggregation = agg;
      cfg.supernodes = sn;
      FmmSolver solver(cfg);
      const FmmResult first = solver.solve(p);
      const FmmResult warm = solver.solve(p);
      EXPECT_TRUE(bitwise_equal(first.phi, warm.phi))
          << to_string(agg) << " sn=" << sn;
      EXPECT_TRUE(bitwise_equal(first.grad, warm.grad))
          << to_string(agg) << " sn=" << sn;
      FmmSolver fresh(cfg);
      EXPECT_TRUE(bitwise_equal(first.phi, fresh.solve(p).phi))
          << to_string(agg) << " sn=" << sn << " (fresh solver)";
    }
  }
}

// Every mode's solve runs through the phase graph and reports a per-stage
// timeline covering the paper's pipeline.
TEST_P(ReuseModes, TimelineCoversPipelineStages) {
  FmmSolver solver(base_config(GetParam()));
  const ParticleSet p = make_uniform(1000, Box3{}, 71);
  const FmmResult r = solver.solve(p);
  ASSERT_FALSE(r.timeline.empty());
  std::set<std::string> phases;
  for (const auto& t : r.timeline) {
    phases.insert(t.phase);
    EXPECT_GE(t.end_seconds, t.start_seconds) << t.stage;
    EXPECT_GE(t.workers, 1u) << t.stage;
    EXPECT_GE(t.chunks, 1u) << t.stage;
  }
  for (const char* ph : {"sort", "p2m", "upward", "interactive", "downward",
                         "l2p", "near", "accumulate"})
    EXPECT_TRUE(phases.count(ph)) << ph;
}

TEST_P(ReuseModes, WarmSolveReusesPlan) {
  FmmSolver solver(base_config(GetParam()));
  const ParticleSet p = make_uniform(1000, Box3{}, 23);
  EXPECT_FALSE(solver.plan_ready(p.size()));
  const FmmResult cold = solver.solve(p);
  EXPECT_FALSE(cold.plan_reused);
  EXPECT_GE(cold.breakdown.phases().at("plan").allocs, 1u);
  EXPECT_TRUE(solver.plan_ready(p.size()));

  const FmmResult warm = solver.solve(p);
  EXPECT_TRUE(warm.plan_reused);
  EXPECT_EQ(warm.breakdown.phases().at("plan").allocs, 0u);
  EXPECT_EQ(warm.breakdown.phases().at("plan").seconds, 0.0);
  EXPECT_EQ(warm.breakdown.phases().at("precompute").seconds, 0.0);
}

TEST_P(ReuseModes, WarmSolveZeroWorkspaceGrowth) {
  FmmSolver solver(base_config(GetParam()));
  const ParticleSet p = make_uniform(1500, Box3{}, 31);
  const FmmResult cold = solver.solve(p);
  EXPECT_GT(cold.workspace_allocs, 0u);  // the cold solve grows the buffers
  const FmmResult warm = solver.solve(p);
  EXPECT_EQ(warm.workspace_allocs, 0u);
}

TEST_P(ReuseModes, WorkspaceSurvivesChangeInN) {
  FmmConfig cfg = base_config(GetParam());
  cfg.depth = -1;  // automatic depth, so N drives plan selection
  FmmSolver solver(cfg);
  const ParticleSet small = make_uniform(300, Box3{}, 41);
  const ParticleSet large = make_uniform(6000, Box3{}, 43);
  ASSERT_NE(solver.depth_for(small.size()), solver.depth_for(large.size()))
      << "test needs two N that select different depths";

  const FmmResult first_small = solver.solve(small);
  const FmmResult first_large = solver.solve(large);  // deeper plan built
  EXPECT_FALSE(first_large.plan_reused);
  // Shallower again: the solver's cache kept the first plan.
  const FmmResult second_small = solver.solve(small);
  EXPECT_TRUE(second_small.plan_reused);

  // Returning to a previously seen N must reproduce the results exactly;
  // a fresh solver is the oracle.
  FmmSolver fresh(cfg);
  const FmmResult oracle = fresh.solve(small);
  EXPECT_TRUE(bitwise_equal(second_small.phi, oracle.phi));
  EXPECT_TRUE(bitwise_equal(second_small.grad, oracle.grad));

  // And once the depth stabilizes, warmth returns.
  const FmmResult warm = solver.solve(small);
  EXPECT_TRUE(warm.plan_reused);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReuseModes,
                         ::testing::Values(ExecutionMode::kSequential,
                                           ExecutionMode::kThreads,
                                           ExecutionMode::kDataParallel),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (char& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// Clustered inputs leave most boxes inactive; the reuse guarantees must
// hold there too: warm solves are bitwise identical and grow no workspace
// heap. (Run standalone as the reuse_test_clustered CI fixture.)
TEST(ClusteredReuse, WarmSparseSolveBitwiseIdenticalClustered) {
  FmmConfig cfg = base_config(ExecutionMode::kThreads);
  cfg.depth = 4;
  cfg.supernodes = true;
  FmmSolver solver(cfg);
  const ParticleSet p = make_plummer(2500, Box3{}, 19);
  const FmmResult cold = solver.solve(p);
  const FmmResult warm = solver.solve(p);
  EXPECT_TRUE(bitwise_equal(cold.phi, warm.phi));
  EXPECT_TRUE(bitwise_equal(cold.grad, warm.grad));
  EXPECT_EQ(warm.workspace_allocs, 0u);
  // Re-sorting the same particles rebuilds the same active sets; a fresh
  // solver is the oracle for full determinism.
  FmmSolver fresh(cfg);
  EXPECT_TRUE(bitwise_equal(cold.phi, fresh.solve(p).phi));
}

TEST(ClusteredReuse, AlternatingDistributionsKeepWarmPathClustered) {
  // Alternating uniform (every box active) and Plummer (a small active
  // set) solves on one solver: each must reproduce its own bits, and after
  // the first round-trip neither grows the workspace further.
  FmmConfig cfg = base_config(ExecutionMode::kThreads);
  cfg.depth = 3;
  FmmSolver solver(cfg);
  const ParticleSet u = make_uniform(2000, Box3{}, 29);
  const ParticleSet c = make_plummer(2000, Box3{}, 31);
  const FmmResult u1 = solver.solve(u);
  const FmmResult c1 = solver.solve(c);
  const FmmResult u2 = solver.solve(u);
  const FmmResult c2 = solver.solve(c);
  EXPECT_TRUE(bitwise_equal(u1.phi, u2.phi));
  EXPECT_TRUE(bitwise_equal(c1.phi, c2.phi));
  EXPECT_EQ(u2.workspace_allocs, 0u);
  EXPECT_EQ(c2.workspace_allocs, 0u);
}

// A multi-step integrator run on one (warm) solver must match stepping with
// a fresh solver per force evaluation bit for bit: every solve rebuilds the
// sort and structures from the moved particles, and the warm path reuses
// only plan and workspace buffers, performing the identical arithmetic.
// Uniform input on the threaded executor (the plain test below); Plummer
// input on the same executor (the parameterized one).
struct StepCase {
  const char* name;
  ExecutionMode mode;
  bool plummer;
};

void PrintTo(const StepCase& c, std::ostream* os) { *os << c.name; }

void expect_warm_stepping_matches_fresh(const StepCase& c) {
  FmmConfig cfg = base_config(c.mode);
  cfg.depth = 3;
  const double dt = 1e-3;
  const std::size_t n = 800;
  const auto initial = [&] {
    return c.plummer ? make_plummer(n, Box3{}, 7) : make_uniform(n, Box3{}, 7);
  };

  FmmSolver warm_solver(cfg);
  LeapfrogIntegrator warm(warm_solver, ForceLaw::kGravity, dt);
  SimulationState ws;
  ws.particles = initial();
  ws.velocity.assign(n, Vec3{});
  warm.initialize(ws);

  SimulationState fs;
  fs.particles = initial();
  fs.velocity.assign(n, Vec3{});
  {
    FmmSolver fresh(cfg);
    LeapfrogIntegrator one_shot(fresh, ForceLaw::kGravity, dt);
    one_shot.initialize(fs);
  }

  const int steps = 4;
  warm.run(ws, steps);
  for (int s = 0; s < steps; ++s) {
    // Rebuild the integrator around a brand-new solver each step: every
    // force evaluation is a cold solve.
    FmmSolver fresh(cfg);
    LeapfrogIntegrator one_shot(fresh, ForceLaw::kGravity, dt);
    // Re-seed its force cache from the current state without advancing.
    one_shot.initialize(fs);
    one_shot.step(fs);
  }

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ws.particles.position(i).x, fs.particles.position(i).x);
    EXPECT_EQ(ws.particles.position(i).y, fs.particles.position(i).y);
    EXPECT_EQ(ws.particles.position(i).z, fs.particles.position(i).z);
    EXPECT_EQ(ws.velocity[i].x, fs.velocity[i].x);
    EXPECT_EQ(ws.velocity[i].y, fs.velocity[i].y);
    EXPECT_EQ(ws.velocity[i].z, fs.velocity[i].z);
  }

  const ForceStats& stats = warm.force_stats();
  EXPECT_EQ(stats.evaluations, 1u + steps);
  EXPECT_EQ(stats.warm_evaluations, static_cast<std::uint64_t>(steps));
}

TEST(IntegratorReuse, MultiStepMatchesFreshSolverPerStep) {
  expect_warm_stepping_matches_fresh(
      {"uniform", ExecutionMode::kThreads, false});
}

class IntegratorReuseExecutors : public ::testing::TestWithParam<StepCase> {};

TEST_P(IntegratorReuseExecutors, MultiStepMatchesFreshSolverPerStep) {
  expect_warm_stepping_matches_fresh(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Executors, IntegratorReuseExecutors,
    ::testing::Values(
        StepCase{"sparse_plummer", ExecutionMode::kThreads, true}),
    [](const ::testing::TestParamInfo<StepCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hfmm::core
