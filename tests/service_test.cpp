// Solver-as-a-service (DESIGN.md Section 17): the shared plan cache, the
// SolverService scheduler, and the C-linkage facade.
//
// Covers:
//   * SharedMap semantics — hit/miss counters, one build per key, also
//     under concurrent gets, builds outside the lock, and a failed build
//     retried,
//   * PlanCache sharing — one build per (config, depth), translation data
//     shared across depths,
//   * service-vs-solo bitwise identity for both executors and kernels,
//     solo and inside randomized mixed batches,
//   * warm-path guarantees — cached-plan solves report plan_reused with
//     zero workspace heap growth, pooled clients are reused,
//   * admission rules — data-parallel requests and bad configs rejected
//     atomically, before any pooled client is taken,
//   * claim order — measured requests costliest first, unmeasured ones
//     (fresh clients) ahead of them,
//   * the C API — round trip against the C++ solver, versioned-struct
//     validation, and error-code mapping.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hfmm/anderson/params.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/hfmm_c.h"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/service/service.hpp"
#include "hfmm/service/shared_map.hpp"
#include "hfmm/util/errors.hpp"
#include "hfmm/util/particles.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm {
namespace {

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

// --- SharedMap -----------------------------------------------------------

TEST(SharedMapTest, CountsHitsAndMisses) {
  service::SharedMap<int, int> cache;
  auto [a, hit_a] = cache.get_or_build(1, [] { return std::make_shared<int>(10); });
  EXPECT_FALSE(hit_a);
  auto [b, hit_b] = cache.get_or_build(1, [] { return std::make_shared<int>(99); });
  EXPECT_TRUE(hit_b);
  EXPECT_EQ(*b, 10);  // the factory must not run on a hit
  EXPECT_EQ(a.get(), b.get());
  cache.get_or_build(2, [] { return std::make_shared<int>(20); });
  cache.get_or_build(3, [] { return std::make_shared<int>(30); });
  EXPECT_EQ(cache.size(), 3u);
  const service::SharedMapStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
}

// Run under TSan by the `service` lane of tools/check.sh: threads racing
// for the same keys build each one once and all get the same value.
TEST(SharedMapTest, ConcurrentGetsBuildEachKeyOnce) {
  service::SharedMap<int, int> cache;
  std::atomic<int> builds{0};
  constexpr int kThreads = 4, kKeys = 3, kRounds = 50;
  std::vector<std::vector<const int*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto build = [&] {
          builds.fetch_add(1);
          return std::make_shared<int>(r);
        };
        seen[t].push_back(cache.get_or_build(r % kKeys, build).first.get());
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), kKeys);
  const service::SharedMapStats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads * kRounds - kKeys));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

// A build holds no lock: while key 1's factory is blocked, a get of key 2
// returns, and a get of key 1 waits for the one build and counts as a hit.
// Every wait is bounded, so a map that serializes builds fails here
// instead of hanging.
TEST(SharedMapTest, OtherKeysProceedWhileOneBuilds) {
  using namespace std::chrono_literals;
  service::SharedMap<int, int> cache;
  std::promise<void> started, release;
  std::future<void> has_started = started.get_future();
  std::shared_future<void> released = release.get_future().share();
  std::thread slow([&] {
    cache.get_or_build(1, [&] {
      started.set_value();
      released.wait_for(30s);
      return std::make_shared<int>(10);
    });
  });
  EXPECT_EQ(has_started.wait_for(30s), std::future_status::ready);
  auto other = std::async(std::launch::async, [&] {
    return cache.get_or_build(2, [] { return std::make_shared<int>(20); });
  });
  auto same = std::async(std::launch::async, [&] {
    return cache.get_or_build(1, [] { return std::make_shared<int>(99); });
  });
  EXPECT_EQ(other.wait_for(5s), std::future_status::ready)
      << "key 2 waited for key 1's build";
  release.set_value();
  slow.join();
  const auto [v2, hit2] = other.get();
  EXPECT_EQ(*v2, 20);
  EXPECT_FALSE(hit2);
  const auto [v1, hit1] = same.get();
  EXPECT_EQ(*v1, 10);  // key 1 was built once
  EXPECT_TRUE(hit1);
  const service::SharedMapStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
}

// A factory that throws leaves no entry: the exception reaches the caller,
// and the next get of the key builds again.
TEST(SharedMapTest, ThrowingFactoryIsRetriedOnTheNextGet) {
  service::SharedMap<int, int> cache;
  EXPECT_THROW(cache.get_or_build(1,
                                  []() -> std::shared_ptr<int> {
                                    throw std::runtime_error("build failed");
                                  }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  const auto [v, hit] =
      cache.get_or_build(1, [] { return std::make_shared<int>(7); });
  EXPECT_FALSE(hit);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// --- PlanCache -----------------------------------------------------------

TEST(PlanCacheTest, SamePlanKeyHitsDifferentDepthMisses) {
  service::PlanCache cache;
  core::FmmConfig cfg;
  bool hit = false;
  auto p3a = cache.plan(cfg, 3, &hit);
  EXPECT_FALSE(hit);
  auto p3b = cache.plan(cfg, 3, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p3a.get(), p3b.get());  // one immutable plan, shared
  auto p4 = cache.plan(cfg, 4, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p3a.get(), p4.get());
  const service::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.plan_misses, 2u);
  // Both depths share one translation set: built once, hit once.
  EXPECT_EQ(s.trans_misses, 1u);
  EXPECT_GE(s.trans_hits, 1u);
  // The cache keeps both plans, and each still hits.
  EXPECT_EQ(cache.size(), 2u);
  auto p3c = cache.plan(cfg, 3, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p3a.get(), p3c.get());
  auto p4b = cache.plan(cfg, 4, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p4.get(), p4b.get());
}

// The data-parallel executor walks the union T2 offsets even with
// supernodes on, so it gets its own translation entry: a threaded solver on
// the same cache must not hand it the supernode set, nor take the union set.
TEST(PlanCacheTest, DataParallelAndThreadedGetDifferentTranslations) {
  auto cache = std::make_shared<service::PlanCache>();
  const ParticleSet p = make_uniform(1500, Box3{}, 12);
  const baseline::DirectResult direct = baseline::direct_all(p, false);
  for (const core::ExecutionMode mode :
       {core::ExecutionMode::kDataParallel, core::ExecutionMode::kThreads}) {
    core::FmmConfig cfg;
    cfg.supernodes = true;
    cfg.mode = mode;
    core::FmmSolver solver(cfg, cache);
    const core::FmmResult r = solver.solve(p);
    EXPECT_LT(compare_fields(r.phi, direct.phi).rms_rel, 1e-3);
  }
  EXPECT_EQ(cache->stats().trans_misses, 2u);
}

// A short-range plan's near lists depend on the cutoff, so two vdW tenants
// that differ only there (same depth) must not share one: each batch result
// matches its solo solve, and the cache built two plans.
TEST(PlanCacheTest, VdwTenantsDifferingOnlyInCutoffGetTheirOwnPlans) {
  ParticleSet p = make_uniform(2000, Box3{}, 17);
  p.ensure_types();
  std::vector<core::FmmConfig> configs(2);
  configs[0].kernel.type = core::KernelType::kVanDerWaals;
  configs[0].kernel.vdw_rmin = {0.05};
  configs[0].depth = 3;
  configs[1] = configs[0];
  // Leaf side 1/8: the 0.06 cutoff keeps the 27 touching boxes, 0.15 also
  // the boxes two apart along one axis.
  configs[1].kernel.vdw_cutoff = 0.15;
  service::SolverService svc;
  const std::vector<service::SolveRequest> batch{{configs[0], &p},
                                                 {configs[1], &p}};
  const std::vector<service::SolveOutcome> out = svc.solve_batch(batch);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::FmmResult solo = core::FmmSolver(configs[i]).solve(p);
    EXPECT_TRUE(bitwise_equal(solo.phi, out[i].result.phi)) << "tenant " << i;
  }
  EXPECT_EQ(svc.stats().plan_cache.plan_misses, 2u);
}

// --- SolverService: bitwise identity to solo solves ----------------------

// One case per input shape and kernel: uniform inputs make every box
// active, clustered ones leave most boxes inactive.
struct ExecutorCase {
  bool clustered;
  bool vdw;
  const char* name;
};

core::FmmConfig case_config(const ExecutorCase& c) {
  core::FmmConfig cfg;
  cfg.with_gradient = true;
  if (c.vdw) {
    cfg.kernel.type = core::KernelType::kVanDerWaals;
    cfg.kernel.vdw_rmin = {0.11, 0.14};
    cfg.kernel.vdw_epsilon = {1.0, 0.55};
    cfg.kernel.vdw_cuton = 0.16;
    cfg.kernel.vdw_cutoff = 0.22;
  }
  return cfg;
}

ParticleSet case_particles(const ExecutorCase& c, std::uint64_t seed) {
  // vdW solves carry per-particle types.
  ParticleSet p = c.clustered ? make_two_clusters(700, Box3{}, seed)
                              : make_uniform(700, Box3{}, seed);
  if (c.vdw) {
    p.ensure_types();
    for (std::size_t i = 0; i < p.size(); ++i)
      p.set_type(i, static_cast<std::int32_t>(i % 2));
  }
  return p;
}

const ExecutorCase kExecutorCases[] = {
    {false, false, "uniform_laplace"},
    {true, false, "clustered_laplace"},
    {false, true, "uniform_vdw"},
    {true, true, "clustered_vdw"},
};

TEST(ServiceTest, BitwiseIdenticalToSoloAcrossModesAndKernels) {
  service::SolverService svc;
  for (const ExecutorCase& c : kExecutorCases) {
    SCOPED_TRACE(c.name);
    const core::FmmConfig cfg = case_config(c);
    const ParticleSet p = case_particles(c, 91);
    core::FmmSolver solo(cfg);
    const core::FmmResult ref = solo.solve(p);
    const service::SolveOutcome out = svc.solve(cfg, p);
    EXPECT_TRUE(bitwise_equal(ref.phi, out.result.phi));
    EXPECT_TRUE(bitwise_equal(ref.grad, out.result.grad));
    EXPECT_EQ(ref.depth, out.result.depth);
  }
}

TEST(ServiceTest, MixedBatchMatchesSoloSolves) {
  service::SolverService svc;
  std::vector<core::FmmConfig> configs;
  std::vector<ParticleSet> particles;
  for (const ExecutorCase& c : kExecutorCases) {
    configs.push_back(case_config(c));
    particles.push_back(case_particles(c, 123));
  }
  std::vector<service::SolveRequest> batch(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    batch[i] = {configs[i], &particles[i]};
  const std::vector<service::SolveOutcome> outcomes = svc.solve_batch(batch);
  ASSERT_EQ(outcomes.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(kExecutorCases[i].name);
    core::FmmSolver solo(configs[i]);
    const core::FmmResult ref = solo.solve(particles[i]);
    EXPECT_TRUE(bitwise_equal(ref.phi, outcomes[i].result.phi));
    EXPECT_TRUE(bitwise_equal(ref.grad, outcomes[i].result.grad));
    EXPECT_GE(outcomes[i].queue_seconds, 0.0);
  }
}

// Randomized stress: repeated mixed batches with duplicate configurations,
// exercising pool reuse and concurrent cache access. Run under TSan by the
// `service` lane of tools/check.sh. Determinism across the two rounds is
// the first assertion: identical inputs must produce identical bits
// regardless of which pooled client or cached plan served them. The second
// is the warm path: round 2 finds every client pooled, every plan built
// and every workspace sized, and the tenants of one workload share one
// plan build.
TEST(ServiceTest, RepeatedRandomizedBatchesAreDeterministic) {
  service::SolverService svc;
  std::vector<core::FmmConfig> configs;
  std::vector<ParticleSet> particles;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const ExecutorCase& c :
         {kExecutorCases[0], kExecutorCases[1], kExecutorCases[2]}) {
      configs.push_back(case_config(c));
      particles.push_back(case_particles(c, 500 + seed));
    }
  }
  std::vector<service::SolveRequest> batch(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i)
    batch[i] = {configs[i], &particles[i]};
  const auto round1 = svc.solve_batch(batch);
  const auto round2 = svc.solve_batch(batch);
  ASSERT_EQ(round1.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(round1[i].result.phi, round2[i].result.phi));
    EXPECT_TRUE(bitwise_equal(round1[i].result.grad, round2[i].result.grad));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(round2[i].client_reused);
    EXPECT_TRUE(round2[i].result.plan_reused);
    EXPECT_EQ(round2[i].result.workspace_allocs, 0u);
  }
  // The configs differ only in kernel, so a plan is one (kernel, depth).
  std::set<std::pair<core::KernelType, int>> plans;
  for (std::size_t i = 0; i < batch.size(); ++i)
    plans.insert({configs[i].kernel.type,
                  core::depth_for(configs[i], particles[i].size())});
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.plan_cache.plan_misses, plans.size());
  EXPECT_EQ(s.solves, 2 * batch.size());
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GE(s.clients_reused, batch.size());
}

// --- SolverService: warm-path and admission guarantees -------------------

TEST(ServiceTest, WarmSolveReusesPlanAndGrowsNoWorkspace) {
  service::SolverService svc;
  core::FmmConfig cfg;
  cfg.depth = 3;
  const ParticleSet p = make_uniform(1200, Box3{}, 7);
  const service::SolveOutcome cold = svc.solve(cfg, p);
  EXPECT_FALSE(cold.client_reused);
  EXPECT_GT(cold.result.workspace_allocs, 0u);
  const service::SolveOutcome warm = svc.solve(cfg, p);
  EXPECT_TRUE(warm.client_reused);
  EXPECT_TRUE(warm.result.plan_reused);
  EXPECT_EQ(warm.result.workspace_allocs, 0u);
  EXPECT_TRUE(bitwise_equal(cold.result.phi, warm.result.phi));
}

// Two clients of one workload pay for one plan build: the second client's
// FIRST solve already reports plan_reused (the cache served it).
TEST(ServiceTest, SecondClientOfSameWorkloadReusesCachedPlan) {
  service::SolverService svc;
  core::FmmConfig cfg;
  cfg.depth = 3;
  const ParticleSet p = make_uniform(900, Box3{}, 21);
  std::vector<service::SolveRequest> batch = {{cfg, &p}, {cfg, &p}};
  const auto outcomes = svc.solve_batch(batch);
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.plan_cache.plan_misses, 1u);
  EXPECT_GE(s.plan_cache.plan_hits, 1u);
  EXPECT_EQ(s.clients_created, 2u);
  EXPECT_TRUE(bitwise_equal(outcomes[0].result.phi, outcomes[1].result.phi));
}

// Tenants that differ only in kernel.softening must never share a pooled
// client: alternating them through one service, each result must equal its
// own solo sequential solve bit for bit (the service runs its clients
// sequentially).
TEST(ServiceTest, SofteningSeparatesPooledClients) {
  service::SolverService svc;
  const ParticleSet p = make_uniform(2000, Box3{}, 13);
  core::FmmConfig plain;
  core::FmmConfig soft = plain;
  soft.kernel.softening = 0.05;
  const auto solo = [&](core::FmmConfig cfg) {
    cfg.mode = core::ExecutionMode::kSequential;
    core::FmmSolver solver(cfg);
    return solver.solve(p);
  };
  const core::FmmResult plain_ref = solo(plain);
  const core::FmmResult soft_ref = solo(soft);
  ASSERT_FALSE(bitwise_equal(plain_ref.phi, soft_ref.phi));
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    EXPECT_TRUE(bitwise_equal(plain_ref.phi, svc.solve(plain, p).result.phi));
    EXPECT_TRUE(bitwise_equal(soft_ref.phi, svc.solve(soft, p).result.phi));
  }
}

TEST(ServiceTest, DataParallelRequestsAreRejected) {
  service::SolverService svc;
  core::FmmConfig cfg;
  cfg.mode = core::ExecutionMode::kDataParallel;
  const ParticleSet p = make_uniform(100, Box3{}, 3);
  EXPECT_THROW(svc.solve(cfg, p), std::invalid_argument);
  const service::ServiceStats s = svc.stats();
  EXPECT_EQ(s.solves, 0u);  // rejected before any work
}

TEST(ServiceTest, NonFiniteRequestRejectsBatchBeforeAnySolve) {
  service::SolverService svc;
  const core::FmmConfig cfg;
  const ParticleSet good = make_uniform(500, Box3{}, 4);
  ParticleSet bad = good;
  bad.x()[7] = std::numeric_limits<double>::quiet_NaN();
  // A coordinate beyond the accepted range of +-2^500.
  ParticleSet far = good;
  far.y()[11] = -1e160;
  // A vdW request with a type id outside its two-type table.
  const core::FmmConfig vdw = case_config({false, true, "vdw"});
  ParticleSet bad_type = good;
  bad_type.set_type(9, 2);
  const struct {
    service::SolveRequest request;
    const char* message;
  } cases[] = {
      {{cfg, &bad}, "request 1: particle 7"},
      {{cfg, &far}, "request 1: particle 11 has its y coordinate outside"},
      {{vdw, &bad_type}, "request 1: particle 9 has type id 2"}};
  for (const auto& c : cases) {
    const service::SolveRequest batch[] = {{cfg, &good}, c.request};
    try {
      svc.solve_batch(batch);
      ADD_FAILURE() << "accepted " << c.message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(svc.stats().solves, 0u);  // the good request did not run either
}

// A bad config is rejected before any client leaves the pool, so the warm
// clients of the batch's good requests survive the rejection.
TEST(ServiceTest, InvalidConfigRejectsBatchBeforeAcquiringClients) {
  service::SolverService svc;
  core::FmmConfig good;
  good.depth = 3;
  const ParticleSet p = make_uniform(600, Box3{}, 41);
  svc.solve(good, p);  // warm one client
  const std::uint64_t created = svc.stats().clients_created;
  core::FmmConfig bad = good;
  bad.separation = 0;
  const service::SolveRequest batch[] = {{good, &p}, {bad, &p}};
  EXPECT_THROW(svc.solve_batch(batch), std::invalid_argument);
  const service::SolveOutcome next = svc.solve(good, p);
  EXPECT_TRUE(next.client_reused);
  EXPECT_EQ(svc.stats().clients_created, created);
}

// A batch claims its requests by their clients' measured seconds. A
// clustered request, whose solve costs far more than the uniform ones
// beside it at the same N, then starts first although it comes last. The
// batch holds two more requests than the pool has workers, so in request
// order the clustered request would be claimed only after two solves had
// finished, behind every other request. A request records its queue time
// just after its claim, so a worker descheduled in between can reorder the
// records: two of three warm batches must show the clustered request in
// the first wave.
TEST(ServiceTest, WarmBatchClaimsItsCostliestRequestFirst) {
  const std::size_t workers = ThreadPool::global().size();
  core::FmmConfig cfg;
  cfg.kernel.type = core::KernelType::kVanDerWaals;
  std::vector<ParticleSet> particles;
  for (std::size_t i = 0; i <= workers; ++i)
    particles.push_back(make_uniform(4000, Box3{}, 300 + i));
  // Every particle of the ball meets every other (leaf side 1/8 at N =
  // 4000); a uniform particle meets ~200.
  particles.push_back(
      make_uniform(4000, Box3{{0.47, 0.47, 0.47}, {0.53, 0.53, 0.53}}, 399));
  std::vector<service::SolveRequest> batch;
  for (const ParticleSet& p : particles) batch.push_back({cfg, &p});
  const std::size_t clustered = batch.size() - 1;

  service::SolverService svc;
  svc.solve_batch(batch);
  int first_wave = 0;
  for (int round = 0; round < 3; ++round) {
    const std::vector<service::SolveOutcome> warm = svc.solve_batch(batch);
    std::size_t claimed_before = 0;
    for (std::size_t i = 0; i < clustered; ++i)
      if (warm[i].queue_seconds < warm[clustered].queue_seconds)
        ++claimed_before;
    if (claimed_before < workers) ++first_wave;
  }
  EXPECT_GE(first_wave, 2);
}

// A client that has not solved yet has no measurement, so it is claimed
// ahead of every measured request however cheap its solve: a new vdW
// tenant joining warm K = 12 tenants starts in the first wave, although it
// comes last and its near-field-only solve is cheaper than theirs. The
// batch holds one more K = 12 request than the pool has workers. Each
// round brings a tenant with a new cutoff, hence a fresh client; two of
// three must show it in the first wave (see
// WarmBatchClaimsItsCostliestRequestFirst).
TEST(ServiceTest, FreshClientIsClaimedInTheFirstWave) {
  const std::size_t workers = ThreadPool::global().size();
  const core::FmmConfig k12;
  std::vector<ParticleSet> particles;
  for (std::size_t i = 0; i <= workers + 1; ++i)
    particles.push_back(make_uniform(4000, Box3{}, 600 + i));
  std::vector<service::SolveRequest> batch;
  for (std::size_t i = 0; i <= workers; ++i)
    batch.push_back({k12, &particles[i]});
  service::SolverService svc;
  svc.solve_batch(batch);  // every K = 12 client has now solved once

  const std::size_t fresh = batch.size();
  int first_wave = 0;
  for (int round = 0; round < 3; ++round) {
    core::FmmConfig vdw;
    vdw.kernel.type = core::KernelType::kVanDerWaals;
    vdw.kernel.vdw_cutoff = 0.06 + 0.001 * round;
    std::vector<service::SolveRequest> mixed = batch;
    mixed.push_back({vdw, &particles.back()});
    const std::vector<service::SolveOutcome> out = svc.solve_batch(mixed);
    ASSERT_FALSE(out[fresh].client_reused);
    std::size_t claimed_before = 0;
    for (std::size_t i = 0; i < fresh; ++i)
      if (out[i].queue_seconds < out[fresh].queue_seconds) ++claimed_before;
    if (claimed_before < workers) ++first_wave;
  }
  EXPECT_GE(first_wave, 2);
}

// --- C API ---------------------------------------------------------------

struct CApiFixture {
  std::vector<double> x, y, z, q, phi;
  explicit CApiFixture(const ParticleSet& p)
      : x(p.size()), y(p.size()), z(p.size()), q(p.size()), phi(p.size()) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      x[i] = p.position(i).x;
      y[i] = p.position(i).y;
      z[i] = p.position(i).z;
      q[i] = p.charge(i);
    }
  }
  hfmm_request request(const hfmm_plan* plan) {
    hfmm_request req{};
    req.plan = plan;
    req.n = x.size();
    req.x = x.data();
    req.y = y.data();
    req.z = z.data();
    req.q = q.data();
    req.phi = phi.data();
    return req;
  }
};

TEST(CApiTest, RoundTripMatchesCxxSolverBitwise) {
  const ParticleSet p = make_uniform(600, Box3{}, 31);
  core::FmmConfig ref_cfg;
  ref_cfg.mode = core::ExecutionMode::kSequential;
  core::FmmSolver solo(ref_cfg);
  const core::FmmResult ref = solo.solve(p);

  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  hfmm_plan* plan = nullptr;
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, p.size(), &plan), HFMM_OK);

  CApiFixture fix(p);
  hfmm_request req = fix.request(plan);
  hfmm_solve_info info{};
  info.struct_size = sizeof(info);
  ASSERT_EQ(hfmm_solve(ctx, &req, &info), HFMM_OK);
  EXPECT_TRUE(bitwise_equal(ref.phi, fix.phi));
  EXPECT_EQ(info.depth, ref.depth);
  // hfmm_plan_create pinned the plan, so even the FIRST solve through the
  // context is plan-construction free.
  EXPECT_NE(info.plan_reused, 0);
  EXPECT_GE(info.queue_seconds, 0.0);

  // Warm solve: no workspace growth, same bits.
  hfmm_solve_info warm{};
  warm.struct_size = sizeof(warm);
  ASSERT_EQ(hfmm_solve(ctx, &req, &warm), HFMM_OK);
  EXPECT_NE(warm.plan_reused, 0);
  EXPECT_EQ(warm.workspace_allocs, 0u);
  EXPECT_TRUE(bitwise_equal(ref.phi, fix.phi));

  hfmm_context_stats stats{};
  stats.struct_size = sizeof(stats);
  ASSERT_EQ(hfmm_context_stats_query(ctx, &stats), HFMM_OK);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.clients_created, 1u);
  EXPECT_EQ(stats.clients_reused, 1u);

  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

TEST(CApiTest, VdwSolveWithTypesAndGradient) {
  const std::size_t n = 500;
  ParticleSet p = make_uniform(n, Box3{}, 47);
  std::vector<std::int32_t> types(n);
  p.ensure_types();
  for (std::size_t i = 0; i < n; ++i) {
    types[i] = static_cast<std::int32_t>(i % 2);
    p.set_type(i, types[i]);
  }
  core::FmmConfig ref_cfg;
  ref_cfg.with_gradient = true;
  ref_cfg.kernel.type = core::KernelType::kVanDerWaals;
  ref_cfg.kernel.vdw_rmin = {0.11, 0.14};
  ref_cfg.kernel.vdw_epsilon = {1.0, 0.55};
  ref_cfg.kernel.vdw_cuton = 0.16;
  ref_cfg.kernel.vdw_cutoff = 0.22;
  core::FmmSolver solo(ref_cfg);
  const core::FmmResult ref = solo.solve(p);

  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  cfg.kernel = HFMM_KERNEL_VDW;
  cfg.with_gradient = 1;
  const double rmin[2] = {0.11, 0.14};
  const double eps[2] = {1.0, 0.55};
  cfg.vdw_ntypes = 2;
  cfg.vdw_rmin = rmin;
  cfg.vdw_epsilon = eps;
  cfg.vdw_cuton = 0.16;
  cfg.vdw_cutoff = 0.22;
  hfmm_plan* plan = nullptr;
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, n, &plan), HFMM_OK);

  CApiFixture fix(p);
  std::vector<double> gx(n), gy(n), gz(n);
  hfmm_request req = fix.request(plan);
  req.type = types.data();
  req.gx = gx.data();
  req.gy = gy.data();
  req.gz = gz.data();
  hfmm_solve_info info{};
  info.struct_size = sizeof(info);
  ASSERT_EQ(hfmm_solve(ctx, &req, &info), HFMM_OK);
  EXPECT_TRUE(bitwise_equal(ref.phi, fix.phi));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ref.grad[i].x, gx[i]);
    EXPECT_EQ(ref.grad[i].y, gy[i]);
    EXPECT_EQ(ref.grad[i].z, gz[i]);
  }
  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

TEST(CApiTest, BatchSolveFillsEveryRequest) {
  const ParticleSet a = make_uniform(400, Box3{}, 5);
  const ParticleSet b = make_uniform(300, Box3{}, 6);
  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  hfmm_plan* plan = nullptr;
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, 400, &plan), HFMM_OK);
  CApiFixture fa(a), fb(b);
  hfmm_request reqs[2] = {fa.request(plan), fb.request(plan)};
  hfmm_solve_info infos[2] = {};
  infos[0].struct_size = infos[1].struct_size = sizeof(hfmm_solve_info);
  ASSERT_EQ(hfmm_solve_batch(ctx, reqs, 2, infos), HFMM_OK);
  core::FmmConfig ref_cfg;
  core::FmmSolver s1(ref_cfg), s2(ref_cfg);
  EXPECT_TRUE(bitwise_equal(s1.solve(a).phi, fa.phi));
  EXPECT_TRUE(bitwise_equal(s2.solve(b).phi, fb.phi));
  hfmm_context_stats stats{};
  stats.struct_size = sizeof(stats);
  ASSERT_EQ(hfmm_context_stats_query(ctx, &stats), HFMM_OK);
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.batches, 1u);
  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

TEST(CApiTest, ErrorMappingAndVersioning) {
  EXPECT_EQ(hfmm_abi_version(), HFMM_ABI_VERSION);
  EXPECT_STREQ(hfmm_version(), "3.0.0");
  EXPECT_STREQ(hfmm_status_string(HFMM_OK), "ok");
  EXPECT_STREQ(hfmm_status_string(HFMM_ERROR_UNSUPPORTED), "unsupported");

  EXPECT_EQ(hfmm_context_create(nullptr), HFMM_ERROR_INVALID_ARGUMENT);
  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);

  hfmm_config cfg;
  hfmm_config_init(&cfg);
  hfmm_plan* plan = nullptr;

  cfg.order = 7;  // no quadrature rule for this order
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan), HFMM_ERROR_UNSUPPORTED);
  EXPECT_EQ(plan, nullptr);  // out-param untouched on failure

  hfmm_config_init(&cfg);
  cfg.struct_size = 12;  // wrong ABI size
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan),
            HFMM_ERROR_INVALID_ARGUMENT);

  hfmm_config_init(&cfg);
  cfg.kernel = HFMM_KERNEL_VDW;  // vdW without the parameter arrays
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan),
            HFMM_ERROR_INVALID_ARGUMENT);

  // Bad vdW spec caught by config validation behind the boundary.
  hfmm_config_init(&cfg);
  cfg.kernel = HFMM_KERNEL_VDW;
  const double rmin[1] = {0.1};
  const double eps[1] = {1.0};
  cfg.vdw_ntypes = 1;
  cfg.vdw_rmin = rmin;
  cfg.vdw_epsilon = eps;
  cfg.vdw_cuton = 0.3;
  cfg.vdw_cutoff = 0.2;  // cuton >= cutoff
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan),
            HFMM_ERROR_INVALID_ARGUMENT);

  // Laplace fields caught by the same validation: a NaN softening, and a
  // depth past the deepest hierarchy (no hint, so no plan is built).
  hfmm_config_init(&cfg);
  cfg.softening = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan),
            HFMM_ERROR_INVALID_ARGUMENT);
  hfmm_config_init(&cfg);
  cfg.depth = 11;
  EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 0, &plan),
            HFMM_ERROR_INVALID_ARGUMENT);
  EXPECT_EQ(plan, nullptr);

  // Request validation: missing output buffer.
  hfmm_config_init(&cfg);
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, 10, &plan), HFMM_OK);
  double xyzq[10] = {0};
  hfmm_request req{};
  req.plan = plan;
  req.n = 10;
  req.x = xyzq;
  req.y = xyzq;
  req.z = xyzq;
  req.q = xyzq;
  req.phi = nullptr;
  EXPECT_EQ(hfmm_solve(ctx, &req, nullptr), HFMM_ERROR_INVALID_ARGUMENT);

  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

// An explicit vdW depth whose leaf side falls below half the cutoff would
// drop pairs within it: with cutoff 0.06 in the default unit box depth 5
// (side 1/32) is the deepest accepted, and depth 6 is an invalid argument.
TEST(CApiTest, VdwDepthPastTheCutoffCoverageIsInvalid) {
  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  cfg.kernel = HFMM_KERNEL_VDW;
  const double rmin[1] = {0.02};
  const double eps[1] = {1.0};
  cfg.vdw_ntypes = 1;
  cfg.vdw_rmin = rmin;
  cfg.vdw_epsilon = eps;
  cfg.vdw_cuton = 0.04;
  cfg.vdw_cutoff = 0.06;
  hfmm_plan* plan = nullptr;
  for (const int depth : {6, 7}) {
    cfg.depth = depth;
    EXPECT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan),
              HFMM_ERROR_INVALID_ARGUMENT)
        << "depth " << depth;
    EXPECT_EQ(plan, nullptr);
  }
  cfg.depth = 5;
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, 100, &plan), HFMM_OK);
  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

TEST(CApiTest, NonFiniteInputsAreInvalidArguments) {
  hfmm_context* ctx = nullptr;
  ASSERT_EQ(hfmm_context_create(&ctx), HFMM_OK);
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  hfmm_plan* plan = nullptr;
  ASSERT_EQ(hfmm_plan_create(ctx, &cfg, 600, &plan), HFMM_OK);
  const ParticleSet p = make_uniform(600, Box3{}, 31);
  const double inf = std::numeric_limits<double>::infinity();
  CApiFixture nan_x(p), inf_q(p), neg_inf_z(p), far_x(p);
  nan_x.x[5] = std::numeric_limits<double>::quiet_NaN();
  inf_q.q[17] = inf;
  neg_inf_z.z[599] = -inf;
  far_x.x[3] = 1e160;  // beyond the accepted range of +-2^500
  for (CApiFixture* f : {&nan_x, &inf_q, &neg_inf_z, &far_x}) {
    const hfmm_request req = f->request(plan);
    EXPECT_EQ(hfmm_solve(ctx, &req, nullptr), HFMM_ERROR_INVALID_ARGUMENT);
  }
  // n = 2^32 over one-element buffers: rejected before any array is read
  // (the sanitizer lanes would flag a read past them).
  if constexpr (sizeof(size_t) > sizeof(std::uint32_t)) {
    double one[1] = {0.5}, out[1] = {0.0};
    hfmm_request huge{};
    huge.plan = plan;
    huge.n = static_cast<size_t>(std::uint64_t{1} << 32);
    huge.x = huge.y = huge.z = huge.q = one;
    huge.phi = out;
    EXPECT_EQ(hfmm_solve(ctx, &huge, nullptr), HFMM_ERROR_INVALID_ARGUMENT);
  }
  // A type id outside a vdW plan's two-type table.
  hfmm_config vdw;
  hfmm_config_init(&vdw);
  vdw.kernel = HFMM_KERNEL_VDW;
  const double rmin[2] = {0.11, 0.14};
  const double eps[2] = {1.0, 0.55};
  vdw.vdw_ntypes = 2;
  vdw.vdw_rmin = rmin;
  vdw.vdw_epsilon = eps;
  vdw.vdw_cuton = 0.16;
  vdw.vdw_cutoff = 0.22;
  hfmm_plan* vdw_plan = nullptr;
  ASSERT_EQ(hfmm_plan_create(ctx, &vdw, 600, &vdw_plan), HFMM_OK);
  CApiFixture typed(p);
  std::vector<std::int32_t> types(p.size(), 0);
  types[42] = 2;
  hfmm_request req = typed.request(vdw_plan);
  req.type = types.data();
  EXPECT_EQ(hfmm_solve(ctx, &req, nullptr), HFMM_ERROR_INVALID_ARGUMENT);
  hfmm_plan_destroy(vdw_plan);
  hfmm_context_stats stats{};
  stats.struct_size = sizeof(hfmm_context_stats);
  ASSERT_EQ(hfmm_context_stats_query(ctx, &stats), HFMM_OK);
  EXPECT_EQ(stats.solves, 0u);
  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
}

}  // namespace
}  // namespace hfmm
