// Unit tests for the util module: vectors, RNG, particles, morton keys,
// tables, CLI, error norms, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "hfmm/util/cli.hpp"
#include "hfmm/util/env.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/util/morton.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/rng.hpp"
#include "hfmm/util/table.hpp"
#include "hfmm/util/thread_pool.hpp"
#include "hfmm/util/timer.hpp"
#include "hfmm/util/vec3.hpp"

namespace hfmm {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(2.0 * a, (Vec3{2, 4, 6}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(Vec3Test, CrossProduct) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(x.cross(y), (Vec3{0, 0, 1}));
  EXPECT_EQ(y.cross(x), (Vec3{0, 0, -1}));
  // a x a = 0
  const Vec3 a{2, -3, 7};
  EXPECT_EQ(a.cross(a), (Vec3{0, 0, 0}));
}

TEST(Vec3Test, NormalizedHandlesZero) {
  EXPECT_EQ((Vec3{0, 0, 0}).normalized(), (Vec3{0, 0, 0}));
  const Vec3 v = Vec3{3, 4, 0}.normalized();
  EXPECT_NEAR(v.norm(), 1.0, 1e-15);
}

TEST(Vec3Test, IndexingMatchesComponents) {
  Vec3 v{7, 8, 9};
  EXPECT_DOUBLE_EQ(v[0], 7);
  EXPECT_DOUBLE_EQ(v[1], 8);
  EXPECT_DOUBLE_EQ(v[2], 9);
  v[1] = -1;
  EXPECT_DOUBLE_EQ(v.y, -1);
}

TEST(RngTest, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Xoshiro256 rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(RngTest, NormalMoments) {
  Xoshiro256 rng(13);
  double sum = 0, sum2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.normal();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 2e-2);
  EXPECT_NEAR(sum2 / n, 1.0, 3e-2);
}

TEST(ParticleTest, ResizeAndAccess) {
  ParticleSet p(3);
  p.set(0, {1, 2, 3}, 4.0);
  p.set(2, {-1, -2, -3}, 0.5);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.position(0), (Vec3{1, 2, 3}));
  EXPECT_DOUBLE_EQ(p.charge(2), 0.5);
}

TEST(ParticleTest, BoundsTight) {
  ParticleSet p(2);
  p.set(0, {0, -1, 5}, 1);
  p.set(1, {2, 3, -4}, 1);
  const Box3 b = p.bounds();
  EXPECT_EQ(b.lo, (Vec3{0, -1, -4}));
  EXPECT_EQ(b.hi, (Vec3{2, 3, 5}));
}

TEST(ParticleTest, PermuteReordersAllAttributes) {
  ParticleSet p(3);
  p.set(0, {0, 0, 0}, 10);
  p.set(1, {1, 1, 1}, 11);
  p.set(2, {2, 2, 2}, 12);
  const std::uint32_t perm[] = {2, 0, 1};
  p.permute(perm);
  EXPECT_EQ(p.position(0), (Vec3{2, 2, 2}));
  EXPECT_DOUBLE_EQ(p.charge(0), 12);
  EXPECT_DOUBLE_EQ(p.charge(1), 10);
  EXPECT_DOUBLE_EQ(p.charge(2), 11);
}

TEST(ParticleTest, PermuteRejectsWrongSize) {
  ParticleSet p(3);
  const std::uint32_t perm[] = {0, 1};
  EXPECT_THROW(p.permute(perm), std::invalid_argument);
}

class DistributionTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributionTest, ParticlesInsideBox) {
  const Box3 box{{-1, -2, -3}, {5, 4, 3}};
  ParticleSet p;
  switch (GetParam()) {
    case 0: p = make_uniform(500, box, 1); break;
    case 1: p = make_plummer(500, box, 2); break;
    case 2: p = make_two_clusters(500, box, 3); break;
    case 3: p = make_plasma(500, box, 4); break;
  }
  ASSERT_EQ(p.size(), 500u);
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_TRUE(box.contains(p.position(i))) << "particle " << i;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(ParticleTest, PlasmaIsNeutral) {
  const ParticleSet p = make_plasma(1000, Box3{}, 5);
  EXPECT_DOUBLE_EQ(p.total_charge(), 0.0);
}

TEST(ParticleTest, PlummerMassNormalized) {
  const ParticleSet p = make_plummer(777, Box3{}, 6, 2.5);
  EXPECT_NEAR(p.total_charge(), 2.5, 1e-12);
}

TEST(ParticleTest, GeneratorsDeterministicInSeed) {
  const ParticleSet a = make_uniform(100, Box3{}, 42);
  const ParticleSet b = make_uniform(100, Box3{}, 42);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
    EXPECT_EQ(a.charge(i), b.charge(i));
  }
}

class MortonRoundtrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MortonRoundtrip, EncodeDecode) {
  const std::uint32_t base = GetParam();
  for (std::uint32_t dx = 0; dx < 3; ++dx) {
    const std::uint32_t x = base + dx, y = base * 3 + 1, z = base * 7 + 2;
    const auto key = morton_encode(x & 0x1fffff, y & 0x1fffff, z & 0x1fffff);
    const auto c = morton_decode(key);
    EXPECT_EQ(c.ix, x & 0x1fffff);
    EXPECT_EQ(c.iy, y & 0x1fffff);
    EXPECT_EQ(c.iz, z & 0x1fffff);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, MortonRoundtrip,
                         ::testing::Values(0u, 1u, 7u, 255u, 1023u, 65535u,
                                           (1u << 20) - 3));

TEST(MortonTest, OrderingGroupsOctants) {
  // The top bits of the key identify the octant at the coarsest level.
  EXPECT_LT(morton_encode(0, 0, 0), morton_encode(1, 0, 0));
  EXPECT_LT(morton_encode(1, 0, 0), morton_encode(0, 1, 0));
  EXPECT_LT(morton_encode(0, 1, 0), morton_encode(0, 0, 1));
}

TEST(MortonTest, KeysAreDense) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t z = 0; z < 4; ++z)
    for (std::uint32_t y = 0; y < 4; ++y)
      for (std::uint32_t x = 0; x < 4; ++x) keys.insert(morton_encode(x, y, z));
  EXPECT_EQ(keys.size(), 64u);
  EXPECT_EQ(*keys.rbegin(), 63u);
}

TEST(TableTest, FormatsAlignedRows) {
  Table t({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  std::ostringstream os;
  os << t;
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(TableTest, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::percent(0.345, 1), "34.5%");
}

TEST(CliTest, ParsesOptionsAndFlags) {
  const char* argv[] = {"prog", "--n", "100", "--verbose", "--x=2.5"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get("n", std::int64_t{0}), 100);
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_DOUBLE_EQ(cli.get("x", 0.0), 2.5);
  EXPECT_EQ(cli.get("missing", std::string("def")), "def");
}

TEST(CliTest, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, argv), std::invalid_argument);
}

TEST(CliTest, TracksUnusedOptions) {
  const char* argv[] = {"prog", "--used", "1", "--typo", "2"};
  Cli cli(5, argv);
  (void)cli.get("used", std::int64_t{0});
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ErrorsTest, ExactFieldsGiveZeroError) {
  const std::vector<double> a{1, 2, 3};
  const ErrorNorms e = compare_fields(a, a);
  EXPECT_EQ(e.max_abs, 0.0);
  EXPECT_EQ(e.max_rel, 0.0);
  EXPECT_EQ(e.rms_rel, 0.0);
}

TEST(ErrorsTest, KnownRelativeError) {
  const std::vector<double> approx{1.01, 2.0};
  const std::vector<double> exact{1.0, 2.0};
  const ErrorNorms e = compare_fields(approx, exact);
  EXPECT_NEAR(e.max_rel, 0.01, 1e-12);
}

TEST(ErrorsTest, VectorFieldNorms) {
  const std::vector<Vec3> approx{{1, 0, 0}};
  const std::vector<Vec3> exact{{0, 0, 0}};
  const ErrorNorms e = compare_fields(approx, exact);
  EXPECT_DOUBLE_EQ(e.max_abs, 1.0);
}

TEST(ErrorsTest, SizeMismatchThrows) {
  const std::vector<double> a{1}, b{1, 2};
  EXPECT_THROW(compare_fields(std::span<const double>(a),
                              std::span<const double>(b)),
               std::invalid_argument);
}

TEST(ErrorsTest, DigitsMonotone) {
  EXPECT_NEAR(digits(1e-4), 4.0, 1e-9);
  EXPECT_GT(digits(1e-7), digits(1e-4));
  EXPECT_EQ(digits(0.0), 16.0);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunksPartitionRange) {
  ThreadPool pool(3);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard g(m);
    chunks.push_back({lo, hi});
  });
  std::size_t total = 0;
  for (const auto& [lo, hi] : chunks) total += hi - lo;
  EXPECT_EQ(total, 100u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [&](std::size_t i) {
                                   if (i == 3)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int x = 0;
  pool.parallel_for(0, 5, [&](std::size_t) { ++x; });
  EXPECT_EQ(x, 5);
}

TEST(PhaseBreakdownTest, TotalsExcludeCommOverlay) {
  PhaseBreakdown b;
  b["near"].seconds = 1.0;
  b["near"].flops = 100;
  b["comm"].seconds = 0.5;  // overlay, not a phase
  EXPECT_DOUBLE_EQ(b.total_seconds(), 1.0);
  EXPECT_EQ(b.total_flops(), 100u);
}

TEST(PhaseBreakdownTest, MergeAccumulates) {
  PhaseBreakdown a, b;
  a["p2m"].flops = 10;
  b["p2m"].flops = 5;
  b["l2p"].seconds = 2.0;
  a += b;
  EXPECT_EQ(a["p2m"].flops, 15u);
  EXPECT_DOUBLE_EQ(a["l2p"].seconds, 2.0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  double work = 0;
  for (int i = 0; i < 100000; ++i) work += i;
  volatile double sink = work;  // keep the loop alive
  EXPECT_GE(t.seconds(), 0.0);
  (void)sink;
}

// Regression: timers nested on the same PhaseStats used to each add their
// own elapsed time, double-counting the shared wall interval. Only the
// outermost timer may record.
TEST(TimerTest, NestedPhaseTimersCountWallTimeOnce) {
  PhaseStats stats;
  auto spin = [] {
    WallTimer t;
    double work = 0;
    while (t.seconds() < 2e-3)
      for (int i = 0; i < 1000; ++i) work += i;
    volatile double sink = work;
    (void)sink;
  };
  WallTimer wall;
  {
    ScopedPhaseTimer outer(stats);
    spin();
    {
      ScopedPhaseTimer inner(stats);  // same stats: must not double-count
      spin();
      ScopedPhaseTimer inner2(stats);
      spin();
    }
    spin();
  }
  const double elapsed = wall.seconds();
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_LE(stats.seconds, elapsed * 1.0001);
  EXPECT_EQ(stats.timing_depth, 0);
  // A later sibling timer accumulates on top, still without inflation.
  WallTimer wall2;
  {
    ScopedPhaseTimer again(stats);
    spin();
  }
  EXPECT_LE(stats.seconds, (elapsed + wall2.seconds()) * 1.0001);
}

// ---------------------------------------------------------------------------
// Environment parsing (util/env.hpp): the backend selectors' HFMM_* reader. setenv/unsetenv are process-global, so each test uses its own
// variable name and restores the unset state.
// ---------------------------------------------------------------------------

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(EnvTest, ChoiceMatchesExactlyOrFallsBack) {
  static constexpr const char* kChoices[] = {"auto", "portable", "avx2"};
  EXPECT_EQ(env::parse_choice("HFMM_TEST_UNSET_CHOICE", kChoices, 0), 0u);
  {
    EnvGuard g("HFMM_TEST_CHOICE", "portable");
    EXPECT_EQ(env::parse_choice("HFMM_TEST_CHOICE", kChoices, 0), 1u);
  }
  {
    EnvGuard g("HFMM_TEST_CHOICE", "Portable");  // case-sensitive
    EXPECT_EQ(env::parse_choice("HFMM_TEST_CHOICE", kChoices, 0), 0u);
  }
  {
    EnvGuard g("HFMM_TEST_CHOICE", "avx512");
    EXPECT_EQ(env::parse_choice("HFMM_TEST_CHOICE", kChoices, 2), 2u);
  }
  {
    EnvGuard g("HFMM_TEST_CHOICE", "");  // empty reads as unset
    EXPECT_EQ(env::parse_choice("HFMM_TEST_CHOICE", kChoices, 2), 2u);
  }
}

}  // namespace
}  // namespace hfmm
