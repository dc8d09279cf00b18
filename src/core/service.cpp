#include "hfmm/service/service.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "hfmm/exec/graph.hpp"
#include "hfmm/service/shared_map.hpp"
#include "hfmm/util/thread_pool.hpp"
#include "hfmm/util/timer.hpp"
#include "solver_internal.hpp"

namespace hfmm::service {

namespace {

// Canonical identity of a pooled client: every FmmConfig field that can
// change the bits of a solve (or the shape of the warm workspace). Two
// requests with equal signatures may share a client solver; the admission
// path forces mode to sequential first, so the execution mode never
// appears here.
std::string client_signature(const core::FmmConfig& c) {
  char buf[768];  // 12 %a doubles at ~24 chars each plus the int fields
  std::size_t vdw_hash = 0;
  for (const double r : c.kernel.vdw_rmin)
    vdw_hash = hash_combine(vdw_hash, std::bit_cast<std::uint64_t>(r));
  for (const double e : c.kernel.vdw_epsilon)
    vdw_hash = hash_combine(vdw_hash, std::bit_cast<std::uint64_t>(e));
  std::snprintf(
      buf, sizeof buf,
      "k%zu;t%d;o%a;i%a;d%d;ppl%a;sep%d;sn%d;g%d;agg%d;"
      "kt%d;soft%a;vc%a;vf%a;vp%d;vbox%a,%a,%a,%a,%a,%a;vh%zx",
      c.params.k(), c.params.truncation, c.params.outer_ratio,
      c.params.inner_ratio, c.depth, c.particles_per_leaf, c.separation,
      static_cast<int>(c.supernodes), static_cast<int>(c.with_gradient),
      static_cast<int>(c.aggregation),
      static_cast<int>(c.kernel.type),
      c.kernel.softening, c.kernel.vdw_cuton, c.kernel.vdw_cutoff,
      static_cast<int>(c.kernel.vdw_periodic), c.kernel.vdw_box.lo.x,
      c.kernel.vdw_box.lo.y, c.kernel.vdw_box.lo.z, c.kernel.vdw_box.hi.x,
      c.kernel.vdw_box.hi.y, c.kernel.vdw_box.hi.z, vdw_hash);
  return std::string(buf);
}

core::FmmConfig admitted_config(const core::FmmConfig& config) {
  if (config.mode == core::ExecutionMode::kDataParallel)
    throw std::invalid_argument(
        "SolverService: data-parallel requests cannot be admitted (the "
        "simulated machine fans out onto the global pool itself); run them "
        "on a solitary FmmSolver");
  core::FmmConfig admitted = config;
  // Sequential clients execute inline on the claiming scheduler worker —
  // no pool nesting — and are bitwise-identical to threaded solo solves by
  // the fixed-chunk guarantee.
  admitted.mode = core::ExecutionMode::kSequential;
  return admitted;
}

// A pooled client solver and the wall seconds and size of its last solve,
// which price the next request it serves (see solve_batch).
struct Client {
  std::unique_ptr<core::FmmSolver> solver;
  double last_seconds = 0.0;
  std::size_t last_n = 0;  // 0: fresh, or its last solve had no particles
};

}  // namespace

struct SolverService::Impl {
  std::shared_ptr<PlanCache> cache = std::make_shared<PlanCache>();
  std::mutex mu;  // guards pool + counters
  // Idle clients by configuration signature. Acquired for the duration of
  // one request; growth is bounded by the peak number of concurrent
  // requests per configuration.
  std::unordered_map<std::string, std::vector<Client>> pool;
  ServiceStats counters;

  // Pops an idle client for `sig` or builds one; `reused` reports which.
  Client acquire(const std::string& sig, const core::FmmConfig& admitted,
                 bool& reused) {
    {
      std::lock_guard<std::mutex> lock(mu);
      auto it = pool.find(sig);
      if (it != pool.end() && !it->second.empty()) {
        // FIFO: clients come back in request order, so when a batch of
        // same-signature tenants repeats, every tenant reclaims the client
        // whose workspace its own data already sized — LIFO would swap
        // clients between tenants and regrow workspaces each round.
        Client client = std::move(it->second.front());
        it->second.erase(it->second.begin());
        ++counters.clients_reused;
        reused = true;
        return client;
      }
      ++counters.clients_created;
    }
    reused = false;
    // Construction outside the lock: plan resolution happens lazily at
    // solve time, but translation building in the ctor path would stall
    // every other acquire.
    return {std::make_unique<core::FmmSolver>(admitted, cache)};
  }

  void release(const std::string& sig, Client client) {
    std::lock_guard<std::mutex> lock(mu);
    pool[sig].push_back(std::move(client));
  }
};

SolverService::SolverService() : impl_(std::make_unique<Impl>()) {}

SolverService::~SolverService() = default;

SolveOutcome SolverService::solve(const core::FmmConfig& config,
                                  const ParticleSet& particles) {
  const SolveRequest request{config, &particles};
  std::vector<SolveOutcome> out = solve_batch({&request, 1});
  return std::move(out.front());
}

std::vector<SolveOutcome> SolverService::solve_batch(
    std::span<const SolveRequest> requests) {
  const std::size_t nreq = requests.size();
  std::vector<SolveOutcome> outcomes(nreq);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->counters.batches;
  }
  if (nreq == 0) return outcomes;

  // Validate + canonicalize every request before any work is scheduled, so
  // a bad config or a non-finite input rejects the batch atomically.
  std::vector<core::FmmConfig> admitted(nreq);
  std::vector<std::string> sigs(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    if (requests[i].particles == nullptr)
      throw std::invalid_argument("SolverService: request without particles");
    admitted[i] = admitted_config(requests[i].config);
    admitted[i].validate();
    core::internal::validate_particles(
        *requests[i].particles, admitted[i].kernel,
        "SolverService: request " + std::to_string(i));
    sigs[i] = client_signature(admitted[i]);
  }

  // One client per in-flight request: same-signature requests get distinct
  // pooled instances (each owns its workspace), acquired up front so the
  // graph bodies never touch the pool map.
  std::vector<Client> clients(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    bool reused = false;
    clients[i] = impl_->acquire(sigs[i], admitted[i], reused);
    outcomes[i].client_reused = reused;
  }

  // Claim order: costliest first, ties by request index. Node insertion
  // order is the concurrent scheduler's claim order at equal priority, so
  // the most expensive solves start first and the short ones pack the tail
  // — the classic LPT heuristic. A request costs its client's last wall
  // seconds scaled by N / N_last; a client that has not solved yet is
  // unmeasured and goes first, so a cold batch runs in request order. Each
  // request is still its own sequential solve, so no result bit depends on
  // the order.
  std::vector<double> cost(nreq, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < nreq; ++i) {
    const Client& c = clients[i];
    if (c.last_n > 0)
      cost[i] = c.last_seconds *
                static_cast<double>(requests[i].particles->size()) /
                static_cast<double>(c.last_n);
  }
  std::vector<std::size_t> order(nreq);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });

  // The batch DAG: one serial node per request, no cross edges — fully
  // interleaved on the pool workers. Each body is an entire (sequential,
  // inline) solve; per-request phase stats live in that request's
  // result.breakdown, and the service-level breakdown below only carries
  // scheduler wall time.
  WallTimer queue_clock;
  exec::PhaseGraph g;
  for (const std::size_t i : order) {
    g.add_serial("request:" + std::to_string(i), "service",
                 [&, i](PhaseStats&) {
                   outcomes[i].queue_seconds = queue_clock.seconds();
                   WallTimer solve_clock;
                   outcomes[i].result =
                       clients[i].solver->solve(*requests[i].particles);
                   clients[i].last_seconds = solve_clock.seconds();
                   clients[i].last_n = requests[i].particles->size();
                 });
  }
  PhaseBreakdown breakdown;
  ThreadPool& pool = ThreadPool::global();
  try {
    g.run(pool, exec::RunMode::kConcurrent, breakdown, nullptr);
  } catch (...) {
    // Return every client to the pool before propagating — a failed batch
    // must not leak the others' warm workspaces.
    for (std::size_t i = 0; i < nreq; ++i)
      if (clients[i].solver) impl_->release(sigs[i], std::move(clients[i]));
    throw;
  }
  for (std::size_t i = 0; i < nreq; ++i)
    impl_->release(sigs[i], std::move(clients[i]));
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->counters.solves += nreq;
  }
  return outcomes;
}

const std::shared_ptr<PlanCache>& SolverService::plan_cache() const {
  return impl_->cache;
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ServiceStats s = impl_->counters;
  s.plan_cache = impl_->cache->stats();
  return s;
}

}  // namespace hfmm::service
