// Integration tests: the full FMM pipeline against direct summation, across
// execution modes, aggregation modes, separations, supernodes, and particle
// distributions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hfmm/anderson/translations.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/quadrature/sphere_rule.hpp"
#include "hfmm/util/errors.hpp"
#include "solver_internal.hpp"

namespace hfmm::core {
namespace {

FmmConfig base_config() {
  FmmConfig cfg;
  cfg.depth = 3;
  return cfg;
}

double solve_and_compare(const FmmConfig& cfg, const ParticleSet& p,
                         FmmResult* out = nullptr) {
  FmmSolver solver(cfg);
  FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  const ErrorNorms e = compare_fields(r.phi, d.phi);
  if (out != nullptr) *out = std::move(r);
  return e.rms_rel;
}

using ModeAgg = std::tuple<ExecutionMode, AggregationMode>;

class ExecutionMatrix : public ::testing::TestWithParam<ModeAgg> {};

TEST_P(ExecutionMatrix, MatchesDirectSummation) {
  const auto [mode, agg] = GetParam();
  FmmConfig cfg = base_config();
  cfg.mode = mode;
  cfg.aggregation = agg;
  const ParticleSet p = make_uniform(1200, Box3{}, 61);
  EXPECT_LT(solve_and_compare(cfg, p), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    ModesTimesAggregation, ExecutionMatrix,
    ::testing::Combine(::testing::Values(ExecutionMode::kSequential,
                                         ExecutionMode::kThreads,
                                         ExecutionMode::kDataParallel),
                       ::testing::Values(AggregationMode::kGemv,
                                         AggregationMode::kGemm)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(FmmSolverTest, AllModesAgreeWithEachOther) {
  const ParticleSet p = make_uniform(900, Box3{}, 62);
  std::vector<std::vector<double>> results;
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    FmmConfig cfg = base_config();
    cfg.mode = mode;
    FmmSolver solver(cfg);
    results.push_back(solver.solve(p).phi);
  }
  // Identical algorithm, different executors: agreement to rounding noise.
  for (std::size_t m = 1; m < results.size(); ++m) {
    const ErrorNorms e = compare_fields(results[m], results[0]);
    EXPECT_LT(e.max_rel, 1e-9) << "mode " << m;
  }
}

// The aggregation mode only picks the BLAS call applied to each gathered
// slab. On Plummer input many gathers skip inactive sources, so the slabs
// are short and uneven; they must still match the per-row gemv reference.
TEST(FmmSolverTest, AggregationModesAgreeExactlyInStructure) {
  for (const ParticleSet& p :
       {make_uniform(700, Box3{}, 63), make_plummer(1500, Box3{}, 63)}) {
    std::vector<std::vector<double>> results;
    for (const AggregationMode agg :
         {AggregationMode::kGemv, AggregationMode::kGemm}) {
      FmmConfig cfg = base_config();
      cfg.aggregation = agg;
      FmmSolver solver(cfg);
      results.push_back(solver.solve(p).phi);
    }
    for (std::size_t m = 1; m < results.size(); ++m) {
      const ErrorNorms e = compare_fields(results[m], results[0]);
      EXPECT_LT(e.max_rel, 1e-10);
    }
  }
}

class SeparationTest : public ::testing::TestWithParam<int> {};

TEST_P(SeparationTest, WorksAndConverges) {
  FmmConfig cfg = base_config();
  cfg.separation = GetParam();
  const ParticleSet p = make_uniform(800, Box3{}, 64);
  // d = 1 is less accurate than d = 2 but must still produce a sane field.
  EXPECT_LT(solve_and_compare(cfg, p), GetParam() == 1 ? 2e-2 : 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Separations, SeparationTest, ::testing::Values(1, 2));

TEST(FmmSolverTest, SupernodesSlightlyLessAccurateMuchCheaper) {
  const ParticleSet p = make_uniform(1500, Box3{}, 65);
  FmmConfig plain = base_config();
  FmmConfig super = base_config();
  super.supernodes = true;
  FmmResult rp, rs;
  const double ep = solve_and_compare(plain, p, &rp);
  const double es = solve_and_compare(super, p, &rs);
  EXPECT_LT(ep, 1e-3);
  EXPECT_LT(es, 3e-3);           // "slightly decreased accuracy" (Section 2.3)
  EXPECT_LT(es, 20 * ep + 1e-9);
  // 189 vs 875 translations per box: at least 3x fewer interactive flops.
  EXPECT_LT(rs.breakdown["interactive"].flops * 3,
            rp.breakdown["interactive"].flops);
}

// Guards the supernode gather-plan rewrite: every aggregation mode must
// produce the same supernode physics, and the supernode approximation must
// stay within solver tolerance of the plain interactive field.
class SupernodeAggregation : public ::testing::TestWithParam<AggregationMode> {
};

TEST_P(SupernodeAggregation, AgreesWithPlainSolverAndAcrossModes) {
  for (const ParticleSet& p :
       {make_uniform(1100, Box3{}, 78), make_plummer(1500, Box3{}, 78)}) {
    FmmConfig super = base_config();
    super.supernodes = true;
    super.aggregation = GetParam();
    FmmConfig plain = base_config();
    plain.aggregation = GetParam();
    FmmSolver ssol(super), psol(plain);
    const FmmResult rs = ssol.solve(p);
    const FmmResult rp = psol.solve(p);
    // Supernodes change the approximation slightly (Section 2.3), not the
    // physics: the two solvers agree to solver tolerance...
    EXPECT_LT(compare_fields(rs.phi, rp.phi).rms_rel, 3e-3);
    // ...and the mode only changes the BLAS call, not the arithmetic
    // result, including gathers that skip inactive sources.
    FmmConfig ref_cfg = super;
    ref_cfg.aggregation = AggregationMode::kGemv;
    FmmSolver ref_solver(ref_cfg);
    const FmmResult ref = ref_solver.solve(p);
    EXPECT_LT(compare_fields(rs.phi, ref.phi).max_rel, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, SupernodeAggregation,
                         ::testing::Values(AggregationMode::kGemv,
                                           AggregationMode::kGemm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FmmSolverTest, SupernodeDeepHierarchyStaysAccurate) {
  // Depth 4 exercises gather-plan rectangles clipped on every face.
  FmmConfig cfg;
  cfg.depth = 4;
  cfg.supernodes = true;
  cfg.aggregation = AggregationMode::kGemm;
  const ParticleSet p = make_uniform(3000, Box3{}, 79);
  EXPECT_LT(solve_and_compare(cfg, p), 3e-3);
}

TEST(FmmSolverTest, GradientMatchesDirect) {
  FmmConfig cfg = base_config();
  cfg.with_gradient = true;
  const ParticleSet p = make_uniform(800, Box3{}, 66);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, true);
  const ErrorNorms e = compare_fields(r.grad, d.grad);
  EXPECT_LT(e.rms_rel, 2e-2);
}

TEST(FmmSolverTest, HigherOrderIsMoreAccurate) {
  const ParticleSet p = make_uniform(600, Box3{}, 67);
  double prev = 1.0;
  for (const int order : {5, 9}) {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_for_order(order);
    const double err = solve_and_compare(cfg, p);
    EXPECT_LT(err, prev);
    prev = err;
  }
  EXPECT_LT(prev, 3e-5);
}

TEST(FmmSolverTest, PaperAccuracyHeadlines) {
  // Abstract: "four and seven digits of accuracy" for D = 5 and D = 14.
  const ParticleSet p = make_uniform(2000, Box3{}, 68);
  {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_d5_k12();
    const double err = solve_and_compare(cfg, p);
    EXPECT_GT(digits(err), 3.3);  // ~4 digits
  }
  {
    FmmConfig cfg = base_config();
    cfg.params = anderson::params_for_order(14);
    const double err = solve_and_compare(cfg, p);
    EXPECT_GT(digits(err), 6.0);  // ~7 digits
  }
}

// Without supernodes the first T2 stage's sources are ready before the
// upward chain ends, yet both take scratch from the same per-chunk arena, so
// the graph must still order them. Threaded solves, each on a fresh solver
// (cold scratch, so stages grow their buffers) and then warm, must match
// the sequential solve bit for bit.
TEST(FmmSolverTest, ThreadedNoSupernodesMatchesSequentialBitwise) {
  const ParticleSet p = make_uniform(2000, Box3{}, 68);
  FmmConfig cfg = base_config();
  cfg.supernodes = false;
  cfg.mode = ExecutionMode::kSequential;
  const FmmResult ref = FmmSolver(cfg).solve(p);
  cfg.mode = ExecutionMode::kThreads;
  for (int rep = 0; rep < 20; ++rep) {
    FmmSolver solver(cfg);
    for (int warm = 0; warm < 2; ++warm) {
      const FmmResult r = solver.solve(p);
      ASSERT_EQ(r.phi.size(), ref.phi.size());
      for (std::size_t i = 0; i < ref.phi.size(); ++i)
        ASSERT_EQ(r.phi[i], ref.phi[i])
            << "rep " << rep << ", warm " << warm << ", particle " << i;
    }
  }
}

// Each solver keeps one matrix per symmetry orbit of the matrices its
// executor applies (DESIGN.md Section 11). At K = 72 the supernode set (8
// T1 + 8 T3 + the 1002 matrices the supernode lists reference) has 158
// orbits under the rule's 8 symmetries, and the union set (8 + 8 + the 1206
// union T2 offsets: no supernodes, or data-parallel mode, which never
// applies supernode matrices) has 205.
TEST(FmmSolverTest, PrecomputeHoldsOnlyTheAppliedMatrices) {
  const auto bytes = [](ExecutionMode mode, bool supernodes) {
    FmmConfig cfg;
    cfg.params = anderson::params_d14_k72();
    cfg.mode = mode;
    cfg.supernodes = supernodes;
    return FmmSolver(cfg).precompute();
  };
  const std::size_t supernode_set = 158 * 72 * 72 * sizeof(double);
  const std::size_t union_set = 205 * 72 * 72 * sizeof(double);
  EXPECT_EQ(supernode_set, 6552576u);
  EXPECT_EQ(union_set, 8501760u);
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    EXPECT_EQ(bytes(mode, true), supernode_set);
    EXPECT_EQ(bytes(mode, false), union_set);
  }
  EXPECT_EQ(bytes(ExecutionMode::kDataParallel, true), union_set);
  EXPECT_EQ(bytes(ExecutionMode::kDataParallel, false), union_set);
}

// One matrix stands for each symmetry orbit (DESIGN.md Section 11): every
// member, built directly, equals the orbit's stored matrix with its points
// relabelled by the member's permutation, to rounding; each use of a stage
// lies in exactly one orbit; and the DP executor's per-offset lookups name
// the same matrix and permutation. Three rules with different groups, both
// matrix sets.
TEST(TranslationOrbitTest, MembersArePermutedRepresentatives) {
  using internal::MatrixRef;
  using internal::MatrixSet;
  using internal::Orbit;
  using internal::OrbitUse;
  using internal::TranslationData;
  struct Case {
    anderson::Params params;
    std::size_t symmetries, supernode_stored, union_stored;
  };
  const Case cases[] = {{anderson::params_d5_k12(), 24, 49, 67},
                        {anderson::params_d14_k72(), 8, 158, 205},
                        {anderson::params_for_order(9), 8, 137, 191}};
  for (const Case& c : cases) {
    const anderson::Params& params = c.params;
    const std::size_t k = params.k();
    EXPECT_EQ(quadrature::symmetries(params.rule).size(), c.symmetries);
    for (const bool supernodes : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "K = " << k << ", supernodes " << supernodes);
      FmmConfig cfg;
      cfg.params = params;
      cfg.supernodes = supernodes;
      const auto data = TranslationData::build(cfg);
      const TranslationData& trans = *data;
      const std::size_t stored =
          supernodes ? c.supernode_stored : c.union_stored;
      EXPECT_EQ(trans.resident_bytes(), stored * k * k * sizeof(double));
      ASSERT_EQ(trans.set,
                supernodes ? MatrixSet::kSupernode : MatrixSet::kUnion);

      // Stage 0: T1, 1: T3, 2: T2 over union offsets or supernode entries.
      const auto geometry = [&](int stage, const OrbitUse& use) {
        if (stage == 0) return anderson::t1_geometry(params, use.octant);
        if (stage == 1) return anderson::t3_geometry(params, use.octant);
        if (!supernodes)
          return anderson::t2_geometry(params,
                                       trans.union_offsets[use.entry].o);
        const tree::SupernodeEntry& e =
            trans.supernode_lists[use.octant][use.entry];
        return e.source_level_up == 1
                   ? anderson::supernode_geometry(params, use.octant, e.offset)
                   : anderson::t2_geometry(params, e.offset);
      };
      std::set<const double*> matrices;
      std::vector<double> direct(k * k);
      double worst = 0.0;
      const std::vector<Orbit>* stages[] = {&trans.t1_orbits,
                                            &trans.t3_orbits,
                                            &trans.t2_orbits};
      for (int stage = 0; stage < 3; ++stage) {
        std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
        for (const Orbit& orbit : *stages[stage]) {
          EXPECT_TRUE(matrices.insert(orbit.matrix).second)
              << "stage " << stage << " repeats a stored matrix";
          for (const OrbitUse& use : orbit.uses) {
            ++seen[{use.octant, use.entry}];
            anderson::build_translation_into(params, geometry(stage, use),
                                             /*transposed=*/true, direct);
            double scale = 0.0, diff = 0.0;
            for (std::size_t a = 0; a < k; ++a)
              for (std::size_t b = 0; b < k; ++b) {
                const double d = direct[use.perm[a] * k + use.perm[b]];
                scale = std::max(scale, std::abs(d));
                diff = std::max(diff, std::abs(d - orbit.matrix[a * k + b]));
              }
            worst = std::max(worst, diff / scale);
            // The DP executor's lookups agree with the orbit walk.
            MatrixRef ref;
            if (stage == 0) ref = trans.t1[use.octant];
            if (stage == 1) ref = trans.t3[use.octant];
            if (stage == 2 && !supernodes)
              ref = trans.t2[tree::offset_cube_index(
                  trans.union_offsets[use.entry].o, cfg.separation)];
            if (ref.matrix != nullptr) {
              EXPECT_EQ(ref.matrix, orbit.matrix);
              EXPECT_EQ(ref.perm, use.perm);
            }
          }
        }
        // Every use of the stage exactly once.
        std::size_t uses = 8;
        if (stage == 2) {
          uses = 0;
          if (!supernodes) {
            uses = trans.union_offsets.size();
            EXPECT_EQ(uses, 1206u);
          }
          for (int o = 0; supernodes && o < 8; ++o)
            uses += trans.supernode_lists[o].size();
        }
        EXPECT_EQ(seen.size(), uses) << "stage " << stage;
        for (const auto& [use, count] : seen) {
          EXPECT_EQ(count, 1) << "stage " << stage;
          const auto [octant, entry] = use;
          if (stage < 2) {
            EXPECT_LT(octant, 8u);
            EXPECT_EQ(entry, 0u);
          } else if (!supernodes) {
            EXPECT_EQ(octant, 0u);
            EXPECT_LT(entry, uses);
          } else {
            ASSERT_LT(octant, 8u);
            EXPECT_LT(entry, trans.supernode_lists[octant].size());
          }
        }
      }
      EXPECT_EQ(matrices.size(), stored);
      EXPECT_LE(worst, 1e-13);
    }
  }
}

// One NaN or infinity in the input would turn every potential into NaN;
// every executor rejects it up front, naming the first bad particle.
TEST(FmmSolverTest, RejectsNonFiniteInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    std::size_t index;
    int field;  // 0..2 = x, y, z; 3 = charge
    double value;
    const char* message;
  };
  const Bad cases[] = {
      {5, 0, nan, "particle 5 has a non-finite x"},
      {17, 3, inf, "particle 17 has a non-finite charge"},
      {3999, 2, -inf, "particle 3999 has a non-finite z"},
      {7, 0, 1e160, "particle 7 has its x coordinate outside [-2^500, 2^500]"}};
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    for (const Bad& bad : cases) {
      ParticleSet p = make_uniform(4000, Box3{}, 9);
      const std::span<double> fields[] = {p.x(), p.y(), p.z(), p.q()};
      fields[bad.field][bad.index] = bad.value;
      FmmConfig cfg = base_config();
      cfg.mode = mode;
      FmmSolver solver(cfg);
      try {
        solver.solve(p);
        ADD_FAILURE() << "accepted " << bad.message;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(bad.message), std::string::npos)
            << e.what();
      }
    }
  }
}

// The accepted coordinate range ends at 2^500 (about 3.27e150); an outlier
// just inside it still gives finite outputs that match direct summation.
TEST(FmmSolverTest, OutlierAtTheCoordinateLimitMatchesDirectSummation) {
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    for (const double outlier : {3.2e150, -3.2e150}) {
      ParticleSet p = make_uniform(3000, Box3{}, 69);
      p.x()[1234] = outlier;
      FmmConfig cfg = base_config();
      cfg.mode = mode;
      cfg.with_gradient = true;
      const FmmResult r = FmmSolver(cfg).solve(p);
      for (std::size_t i = 0; i < p.size(); ++i) {
        ASSERT_TRUE(std::isfinite(r.phi[i])) << i;
        ASSERT_TRUE(std::isfinite(r.grad[i].x) && std::isfinite(r.grad[i].y) &&
                    std::isfinite(r.grad[i].z))
            << i;
      }
      const baseline::DirectResult d = baseline::direct_all(p, true);
      EXPECT_LT(compare_fields(r.phi, d.phi).rms_rel, 1e-3)
          << to_string(mode) << ", outlier " << outlier;
      EXPECT_LT(compare_fields(r.grad, d.grad).rms_rel, 2e-2)
          << to_string(mode) << ", outlier " << outlier;
    }
  }
}

// All particles at one point give particle bounds of zero extent; the root
// cube must still have a positive side, or every leaf index is 0 / 0. With
// softening the potentials are finite, and they must equal direct
// summation (n - 1 times 1 / softening each) in every mode, wherever the
// point sits.
TEST(FmmSolverTest, CoincidentInputsMatchDirectSummation) {
  const double softening = 1e-3;
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    for (const double v : {0.0, 0.5, 1e6, 1e20}) {
      for (const std::size_t n : {1u, 2u, 9u, 100u}) {
        ParticleSet p(n);
        for (std::size_t i = 0; i < n; ++i) p.set(i, {v, v, v}, 1.0);
        FmmConfig cfg;
        cfg.mode = mode;
        cfg.kernel.softening = softening;
        const FmmResult r = FmmSolver(cfg).solve(p);
        const baseline::DirectResult d =
            baseline::direct_all(p, false, &ThreadPool::global(), softening);
        ASSERT_EQ(r.phi.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_NEAR(r.phi[i], d.phi[i], 1e-12 * std::abs(d.phi[i]))
              << to_string(mode) << ", point " << v << ", n " << n
              << ", particle " << i;
      }
    }
  }
}

class DistributionTest : public ::testing::TestWithParam<int> {};

// Every executor on every input, including the degenerate collinear and
// coplanar ones.
TEST_P(DistributionTest, AccurateOnNonuniformInputs) {
  ParticleSet p;
  switch (GetParam()) {
    case 0: p = make_plummer(1000, Box3{}, 69); break;
    case 1: p = make_two_clusters(1000, Box3{}, 70); break;
    case 2: p = make_plasma(1000, Box3{}, 71); break;
    case 3:  // collinear: the line y = z = 0.5
      p = make_uniform(1000, Box3{}, 77);
      for (double& y : p.y()) y = 0.5;
      for (double& z : p.z()) z = 0.5;
      break;
    case 4:  // coplanar: the plane z = 0.5
      p = make_uniform(1000, Box3{}, 78);
      for (double& z : p.z()) z = 0.5;
      break;
  }
  const baseline::DirectResult d = baseline::direct_all(p, false);
  for (const ExecutionMode mode :
       {ExecutionMode::kSequential, ExecutionMode::kThreads,
        ExecutionMode::kDataParallel}) {
    FmmConfig cfg = base_config();
    cfg.mode = mode;
    FmmSolver solver(cfg);
    const FmmResult r = solver.solve(p);
    // Plasma fields pass through zero; use the error relative to the mean
    // magnitude (the paper's Table 1 metric) instead of pointwise relative.
    const ErrorNorms e = compare_fields(r.phi, d.phi);
    EXPECT_LT(e.rel_to_mean, 5e-2) << to_string(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistributionTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(FmmSolverTest, AutomaticDepthMatchesOccupancyRule) {
  FmmConfig cfg;
  cfg.particles_per_leaf = 16.0;
  FmmSolver solver(cfg);
  EXPECT_EQ(solver.depth_for(16 * 512), 3);
  EXPECT_EQ(solver.depth_for(100), 2);  // floor at depth 2
}

TEST(FmmSolverTest, EmptyAndTinyInputs) {
  FmmConfig cfg;
  FmmSolver solver(cfg);
  const FmmResult empty = solver.solve(ParticleSet{});
  EXPECT_TRUE(empty.phi.empty());

  ParticleSet two(2);
  two.set(0, {0.2, 0.2, 0.2}, 1.0);
  two.set(1, {0.8, 0.8, 0.8}, 1.0);
  const FmmResult r = solver.solve(two);
  const double dist = (two.position(0) - two.position(1)).norm();
  EXPECT_NEAR(r.phi[0], 1.0 / dist, 5e-3 / dist);
}

TEST(FmmSolverTest, BreakdownCoversAllPhases) {
  FmmConfig cfg = base_config();
  const ParticleSet p = make_uniform(500, Box3{}, 72);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  for (const char* phase :
       {"sort", "p2m", "upward", "interactive", "l2p", "near"})
    EXPECT_TRUE(r.breakdown.phases().count(phase)) << phase;
  EXPECT_GT(r.breakdown.total_flops(), 0u);
}

TEST(FmmSolverTest, DataParallelModeCountsCommunication) {
  FmmConfig cfg = base_config();
  cfg.mode = ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  const ParticleSet p = make_uniform(800, Box3{}, 73);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  EXPECT_GT(r.comm.off_vu_bytes, 0u);
  EXPECT_GT(r.comm.messages, 0u);
  EXPECT_GT(r.breakdown.phases().at("comm").seconds, 0.0);
}

class DpHaloStrategyTest : public ::testing::TestWithParam<dp::HaloStrategy> {
};

TEST_P(DpHaloStrategyTest, AllHaloStrategiesGiveSamePhysics) {
  FmmConfig cfg = base_config();
  cfg.mode = ExecutionMode::kDataParallel;
  cfg.machine = {2, 2, 2};
  cfg.halo = GetParam();
  const ParticleSet p = make_uniform(600, Box3{}, 74);
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  EXPECT_LT(compare_fields(r.phi, d.phi).rms_rel, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DpHaloStrategyTest,
    ::testing::Values(dp::HaloStrategy::kGhostSections,
                      dp::HaloStrategy::kSubgridSnake,
                      dp::HaloStrategy::kLinearizedCshift),
    [](const auto& info) {
      std::string s = dp::to_string(info.param);
      for (char& c : s)
        if (c == '-' || c == '/') c = '_';
      return s;
    });

TEST(FmmSolverTest, DpEmbedMethodsAgree) {
  const ParticleSet p = make_uniform(500, Box3{}, 75);
  std::vector<std::vector<double>> phis;
  for (const dp::EmbedMethod m :
       {dp::EmbedMethod::kLocalCopy, dp::EmbedMethod::kGeneralSend}) {
    FmmConfig cfg = base_config();
    cfg.mode = ExecutionMode::kDataParallel;
    cfg.embed = m;
    FmmSolver solver(cfg);
    phis.push_back(solver.solve(p).phi);
  }
  EXPECT_LT(compare_fields(phis[1], phis[0]).max_rel, 1e-12);
}

TEST(FmmSolverTest, ConfigValidation) {
  FmmConfig cfg;
  cfg.separation = 0;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
  cfg = FmmConfig{};
  cfg.depth = 1;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
  cfg = FmmConfig{};
  cfg.supernodes = true;
  cfg.separation = 1;
  EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument);
  // Values that would otherwise turn every potential NaN, or need GBs of
  // flat per-box arrays (depth > 8). Checked without solving: a solve at
  // such a depth would need 2 GB or more.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double soft : {nan, inf}) {
    cfg = FmmConfig{};
    cfg.kernel.softening = soft;
    EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument) << soft;
  }
  for (const int depth : {9, 10, 11, 40}) {
    cfg = FmmConfig{};
    cfg.depth = depth;
    EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument) << depth;
  }
  cfg = FmmConfig{};
  cfg.depth = 8;
  EXPECT_NO_THROW(cfg.validate());
  for (const double occupancy : {nan, inf}) {
    cfg = FmmConfig{};
    cfg.particles_per_leaf = occupancy;
    EXPECT_THROW(FmmSolver{cfg}, std::invalid_argument) << occupancy;
  }
}

TEST(FmmSolverTest, ResultsInOriginalParticleOrder) {
  // Tag particles by charge and verify phi lines up after the unsort.
  ParticleSet p = make_uniform(300, Box3{}, 76);
  FmmConfig cfg = base_config();
  FmmSolver solver(cfg);
  const FmmResult r = solver.solve(p);
  const baseline::DirectResult d = baseline::direct_all(p, false);
  for (std::size_t i = 0; i < 300; i += 37)
    EXPECT_NEAR(r.phi[i], d.phi[i], 5e-3 * std::abs(d.phi[i]));
}

}  // namespace
}  // namespace hfmm::core
