#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <numeric>
#include <random>
#include <stdexcept>

#include "hfmm/anderson/params.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/core/integrator.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/service/service.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace perfbench {

using namespace hfmm;
using Clock = std::chrono::steady_clock;

namespace {

// Set-up is repeated and its median reported: one build of translations,
// plans and workspaces is too noisy to gate on (the first set-ups of a
// process can run 3x slower while the host backs fresh memory).
constexpr int kSetupReps = 5;
// The tail metric needs at least eleven samples to leave ten beyond it.
constexpr std::size_t kMinSamples = 11;

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Checks each operation's outputs outside the timed interval: every value
/// finite, and the potentials at randomly sampled targets within the
/// configuration's tolerance of direct summation. The error of a set of
/// targets is sqrt(sum num / sum den): for Laplace num = relative error^2
/// and den = 1 (the RMS relative error; potentials of positive masses never
/// vanish), for van der Waals num = |phi - ref|^2 and den = ref^2 (energies
/// can cancel to ~0, so the ratio of norms).
class Gate {
 public:
  explicit Gate(std::uint64_t seed) : rng_(seed ^ 0x9e3779b97f4a7c15ull) {}

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Records an operation that threw or produced no checkable output.
  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    note(what);
  }

  /// One operation's potentials `phi` (original order) of `config` on
  /// `particles`; `others_finite` says whether the operation's other
  /// outputs (forces, and the positions and velocities they moved) are.
  void check(const std::string& config_id, const core::FmmConfig& config,
             const ParticleSet& particles, std::span<const double> phi,
             bool others_finite, std::size_t samples) {
    ++attempted_;
    const std::size_t n = particles.size();
    if (phi.size() != n) {
      ++failed_;
      note(config_id + ": result has " + std::to_string(phi.size()) +
           " potentials for " + std::to_string(n) + " particles");
      return;
    }
    const auto finite = [](double v) { return std::isfinite(v); };
    if (!others_finite || !std::all_of(phi.begin(), phi.end(), finite)) {
      ++failed_;
      note(config_id + ": non-finite output");
      return;
    }
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::vector<std::size_t> target(samples);
    for (std::size_t& t : target) t = pick(rng_);
    const std::vector<double> ref = reference(config, particles, target);

    const bool vdw = config.kernel.type == core::KernelType::kVanDerWaals;
    Acc op;
    for (std::size_t s = 0; s < samples; ++s) {
      const double d = phi[target[s]] - ref[s];
      if (vdw) {
        op.num += d * d;
        op.den += ref[s] * ref[s];
      } else {
        const double e = d / ref[s];
        op.num += e * e;
        op.den += 1.0;
      }
    }
    op.samples = samples;
    Acc& acc = by_config_[config_id];
    acc.num += op.num;
    acc.den += op.den;
    acc.samples += op.samples;
    const double tol = tolerance(config);
    if (!(op.error() <= tol)) {
      ++failed_;
      note(config_id + ": sampled error " + json_number(op.error()) +
           " above tolerance " + json_number(tol));
    }
  }

  /// Worst configuration's error over every sampled target of the run.
  double rel_err() const {
    double worst = 0.0;
    for (const auto& [id, acc] : by_config_) worst = std::max(worst, acc.error());
    return worst;
  }

  /// Run-record fields: per-configuration error and sample count, and the
  /// first failure messages.
  void record(Report& rep) const {
    std::string errs = "{";
    for (const auto& [id, acc] : by_config_) {
      if (errs.size() > 1) errs += ", ";
      errs += json_string(id) + ": {\"rel_err\": " + json_number(acc.error()) +
              ", \"targets\": " + std::to_string(acc.samples) + "}";
    }
    rep.record.emplace_back("gate", errs + "}");
    std::string notes = "[";
    for (const std::string& m : notes_)
      notes += (notes.size() > 1 ? ", " : "") + json_string(m);
    rep.record.emplace_back("gate_failures", notes + "]");
  }

 private:
  struct Acc {
    double num = 0.0, den = 0.0;
    std::size_t samples = 0;
    double error() const {
      return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
    }
  };

  // Tolerances on one operation's sampled error, ~10x the typical error of
  // each configuration so a few unlucky targets cannot trip them: K = 12
  // with supernodes runs at ~1e-3 on clustered input, K = 72 at ~1e-6; van
  // der Waals is exact up to rounding (the near field covers every pair
  // inside the cutoff).
  static double tolerance(const core::FmmConfig& config) {
    if (config.kernel.type == core::KernelType::kVanDerWaals) return 1e-10;
    return config.params.k() >= 72 ? 1e-5 : 1e-2;
  }

  // Direct summation at the sampled targets, over all other particles:
  // baseline::direct_ranges (Laplace) or the portable pkern p2p_vdw, each
  // with source ranges disjoint from the target.
  static std::vector<double> reference(const core::FmmConfig& config,
                                       const ParticleSet& p,
                                       const std::vector<std::size_t>& target) {
    std::vector<double> ref(target.size(), 0.0);
    const std::size_t n = p.size();
    if (config.kernel.type == core::KernelType::kVanDerWaals) {
      const VdwTable table(config.kernel);
      const pkern::KernelBackend& portable =
          pkern::kernel_backend(pkern::KernelKind::kPortable);
      // Every van der Waals input of the benchmark carries atom types.
      const double *x = p.x().data(), *y = p.y().data(), *z = p.z().data();
      const std::int32_t* type = p.type().data();
      ThreadPool::global().parallel_for(0, target.size(), [&](std::size_t s) {
        const std::size_t i = target[s];
        portable.p2p_vdw(x, y, z, type, i, i + 1, 0, i, &ref[s], nullptr,
                         table.params);
        portable.p2p_vdw(x, y, z, type, i, i + 1, i + 1, n, &ref[s], nullptr,
                         table.params);
      });
    } else {
      const double soft = config.kernel.softening;
      ThreadPool::global().parallel_for(0, target.size(), [&](std::size_t s) {
        const std::size_t i = target[s];
        baseline::direct_ranges(p, i, i + 1, 0, i, &ref[s], nullptr, soft);
        baseline::direct_ranges(p, i, i + 1, i + 1, n, &ref[s], nullptr, soft);
      });
    }
    return ref;
  }

  void note(const std::string& what) {
    if (notes_.size() < 8) notes_.push_back(what);
  }

  std::mt19937_64 rng_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Acc> by_config_;
  std::vector<std::string> notes_;
};

/// Hands the memory of a torn-down set-up back to the system. Set-up is
/// repeated only to time it; without this, blocks freed in one pool
/// thread's malloc arena and reallocated in another's stack up, and
/// peak_rss_mb jumps by up to 160 MB on some runs.
void release_freed_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// End-to-end metrics of a closed loop: `times` holds the warm iterations
/// (one leapfrog step or one batch), each completing `solves_per_iter`
/// solves.
void loop_metrics(Report& rep, const std::vector<double>& times,
                  double solves_per_iter, const std::vector<double>& setup,
                  const Gate& gate) {
  const Tail t = tail(times);
  const double busy = std::accumulate(times.begin(), times.end(), 0.0);
  rep.metrics = {
      {"step_s", median(times), "s"},
      {"step_tail_s", t.value, "s"},
      {"solves_per_s", solves_per_iter * static_cast<double>(times.size()) / busy,
       "1/s"},
      {"setup_s", median(setup), "s"},
      {"rel_err", gate.rel_err(), "1"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const auto series = [](const std::vector<double>& v) {
    std::string s = "[";
    for (const double x : v) s += (s.size() > 1 ? ", " : "") + json_number(x);
    return s + "]";
  };
  rep.record.emplace_back("steps_s", series(times));
  rep.record.emplace_back("setups_s", series(setup));
  rep.record.emplace_back("step_samples", std::to_string(times.size()));
  rep.record.emplace_back("step_tail_percentile", json_number(t.percentile));
  rep.record.emplace_back("setup_samples", std::to_string(setup.size()));
}

/// The traced run's loop metrics: every other iteration ran inside a span,
/// the rest without, so the difference of their medians is the tracing
/// overhead under identical conditions.
void trace_metrics(std::vector<Metric>& out, const std::vector<double>& plain,
                   const std::vector<double>& traced) {
  out.push_back({"trace.step_s", median(traced), "s"});
  out.push_back({"trace.overhead_s", median(traced) - median(plain), "s"});
}

/// Keeps a closed loop going until it has measured `seconds` of iterations
/// and at least kMinSamples of them, with a wall-clock cap so a slow host
/// still ends the run in time.
struct LoopClock {
  LoopClock(double seconds, bool smoke)
      : seconds(seconds),
        min_samples(smoke ? 3 : kMinSamples),
        cap(2.0 * seconds + 30.0),
        start(Clock::now()) {}
  bool more(double measured, std::size_t samples) const {
    if (seconds_since(start) > cap) return false;
    return measured < seconds || samples < min_samples;
  }
  double seconds;
  std::size_t min_samples;
  double cap;
  Clock::time_point start;
};

// ---------------------------------------------------------------------------
// Timestep loops: uniform-laplace, plummer-laplace
// ---------------------------------------------------------------------------

struct TimestepSpec {
  std::size_t n, smoke_n;
  bool plummer;
  // Small against the dynamical time of each input (masses sum to 1), so
  // the particle distribution, and with it the cost of a step, stays the
  // same however many steps a run completes.
  double dt;
};

core::FmmConfig timestep_config() {
  core::FmmConfig cfg;
  cfg.params = anderson::params_d5_k12();
  cfg.supernodes = true;
  cfg.with_gradient = true;
  cfg.mode = core::ExecutionMode::kThreads;
  cfg.kernel.type = core::KernelType::kLaplace3d;
  cfg.kernel.softening = 1e-3;
  return cfg;
}

// The service-mix tenants (four configurations, two tenants each).
struct TenantSpec {
  const char* id;
  bool two_clusters;
  int order;  // integration order D: 5 (K = 12) or 14 (K = 72)
  bool vdw;
};

constexpr TenantSpec kTenants[] = {
    {"laplace-k12-uniform", false, 5, false},
    {"laplace-k72-uniform", false, 14, false},
    {"laplace-k12-two-clusters", true, 5, false},
    {"vdw-uniform", false, 5, true},
};
constexpr std::size_t kTenantsPerConfig = 2;

core::FmmConfig tenant_config(const TenantSpec& t) {
  core::FmmConfig cfg;
  cfg.params =
      t.order == 14 ? anderson::params_d14_k72() : anderson::params_d5_k12();
  cfg.supernodes = true;
  cfg.with_gradient = false;
  // The service admits every request in sequential mode; setting it here
  // lets the solo solves of the probes reproduce the admitted config.
  cfg.mode = core::ExecutionMode::kSequential;
  cfg.kernel.type =
      t.vdw ? core::KernelType::kVanDerWaals : core::KernelType::kLaplace3d;
  cfg.kernel.softening = 0.0;
  cfg.kernel.vdw_rmin = {0.02, 0.016};
  cfg.kernel.vdw_epsilon = {1.0, 0.5};
  cfg.kernel.vdw_cuton = 0.04;
  cfg.kernel.vdw_cutoff = 0.06;
  cfg.kernel.vdw_periodic = false;
  cfg.kernel.vdw_box = Box3{};
  return cfg;
}

/// Moves particles 0 and 1 to opposite corners of the unit cube. A Laplace
/// solve derives its root cube from the particle bounds, so this pins the
/// hierarchy's grid to the input's cluster centres for every seed; without
/// it the seed's extreme particles shift the grid against a cluster core and
/// move the near-pair count (and the step time) by +-15%.
void pin_root_cube(ParticleSet& p) {
  p.set(0, {0.0, 0.0, 0.0}, p.charge(0));
  p.set(1, {1.0, 1.0, 1.0}, p.charge(1));
}

/// Plummer sphere in the unit cube (total mass 1, scale radius 0.05,
/// truncated at 0.475 like make_plummer) with stratified radii: particle
/// i's enclosed-mass fraction comes from the i-th of n equal strata, so the
/// radial profile, which sets the near-field cost and much of the error,
/// is the same for every seed; directions are uniform.
ParticleSet plummer_sphere(std::size_t n, std::uint64_t seed) {
  constexpr double a = 0.05, rmax = 0.475;
  const double mmax = std::pow(rmax * rmax / (rmax * rmax + a * a), 1.5);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  ParticleSet p(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double m = mmax * (static_cast<double>(i) + u(rng)) / n;
    const double r = a / std::sqrt(std::pow(m, -2.0 / 3.0) - 1.0);
    const double cos_t = 2.0 * u(rng) - 1.0;
    const double sin_t = std::sqrt(std::max(0.0, 1.0 - cos_t * cos_t));
    const double phi = 2.0 * std::numbers::pi * u(rng);
    p.set(i,
          {0.5 + r * sin_t * std::cos(phi), 0.5 + r * sin_t * std::sin(phi),
           0.5 + r * cos_t},
          1.0 / static_cast<double>(n));
  }
  return p;
}

std::uint64_t tenant_seed(std::uint64_t seed, std::size_t tenant) {
  // splitmix64 of (seed, tenant): each tenant its own stream.
  std::uint64_t z = seed * 0x100000001b3ull + tenant + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

ParticleSet tenant_particles(const TenantSpec& t, std::size_t n,
                             std::uint64_t seed) {
  ParticleSet p = t.two_clusters ? make_two_clusters(n, Box3{}, seed)
                                 : make_uniform(n, Box3{}, seed);
  if (t.vdw) {
    p.ensure_types();
    for (std::size_t i = 0; i < n; ++i)
      p.set_type(i, static_cast<std::int32_t>(i % 2));
  } else {
    pin_root_cube(p);
  }
  return p;
}

std::size_t service_n(const Options& opt) { return opt.smoke ? 2000 : 20000; }

// The probes' van der Waals case: the service-mix vdW tenant 0, on every
// workload, so pkern.p2p_vdw reads the same blocks everywhere.
Case vdw_probe_case(const ParticleSet& particles) {
  return {"vdw-uniform#0", "vdw-uniform", tenant_config(kTenants[3]),
          &particles, false};
}

Report run_timestep(const Options& opt, const TimestepSpec& spec,
                    Tracer& tracer) {
  const std::size_t n = opt.smoke ? spec.smoke_n : spec.n;
  const double mass = 1.0 / static_cast<double>(n);
  ParticleSet initial = spec.plummer
                            ? plummer_sphere(n, opt.seed)
                            : make_uniform(n, Box3{}, opt.seed, mass, mass);
  pin_root_cube(initial);
  const core::FmmConfig cfg = timestep_config();
  const std::size_t samples = spec.plummer ? 512 : 128;
  Gate gate(opt.seed);
  // The integrator keeps its forces private; they reach the velocities
  // through every kick, so finite velocities and positions mean finite
  // forces.
  const auto check = [&](const core::SimulationState& st) {
    const auto finite = [](const Vec3& v) {
      return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
    };
    const ParticleSet& p = st.particles;
    bool ok = std::all_of(st.velocity.begin(), st.velocity.end(), finite);
    for (std::size_t i = 0; ok && i < p.size(); ++i) ok = finite(p.position(i));
    gate.check("laplace-k12", cfg, p, st.phi, ok, samples);
  };

  // Set-up: solver and integrator construction through the first force
  // evaluation (translations, plan, workspace).
  std::unique_ptr<core::FmmSolver> solver;
  std::unique_ptr<core::LeapfrogIntegrator> integ;
  core::SimulationState state;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    integ.reset();
    solver.reset();
    release_freed_memory();
    state = core::SimulationState{};
    state.particles = initial;
    state.velocity.assign(n, Vec3{});
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("setup");
      solver = std::make_unique<core::FmmSolver>(cfg);
      integ = std::make_unique<core::LeapfrogIntegrator>(
          *solver, core::ForceLaw::kGravity, spec.dt);
      integ->initialize(state);
    }
    setup.push_back(seconds_since(t0));
    check(state);
  }

  // The closed loop: one step in flight, each checked after it completes.
  std::vector<double> plain, traced;
  double measured = 0.0;
  const LoopClock clock(opt.seconds, opt.smoke);
  try {
    while (clock.more(measured, plain.size())) {
      const bool in_span = tracer.enabled() && (plain.size() + traced.size()) % 2 == 1;
      const auto t0 = Clock::now();
      if (in_span) {
        auto span = tracer.span("step");
        integ->step(state);
      } else {
        integ->step(state);
      }
      const double t = seconds_since(t0);
      (in_span ? traced : plain).push_back(t);
      measured += t;
      check(state);
    }
  } catch (const std::exception& e) {
    gate.fail(std::string("step threw: ") + e.what());
  }

  Report rep;
  rep.record.emplace_back("n", std::to_string(n));
  rep.record.emplace_back("dt", json_number(spec.dt));
  const auto& phases = integ->last_breakdown().phases();
  if (const auto near = phases.find("near"); near != phases.end())
    rep.record.emplace_back("near_pairs_last_step",
                            std::to_string(near->second.pairs));
  if (plain.empty()) throw std::runtime_error("no step completed");
  if (!tracer.enabled()) {
    loop_metrics(rep, plain, 1.0, setup, gate);
  } else {
    const ParticleSet vdw_particles =
        tenant_particles(kTenants[3], service_n(opt), tenant_seed(opt.seed, 6));
    const std::vector<Case> cases = {
        {"laplace-k12#0", "laplace-k12", cfg, &state.particles, true}};
    rep.metrics = probe_layers(cases, vdw_probe_case(vdw_particles), false,
                               tracer);
    // The service probe admits a subset of the workload's own particles as
    // a one-request batch (the full set would cost a sequential solve).
    ParticleSet subset(std::min<std::size_t>(n, 8192));
    for (std::size_t i = 0; i < subset.size(); ++i)
      subset.set(i, state.particles.position(i), state.particles.charge(i));
    core::FmmConfig seq = cfg;
    seq.mode = core::ExecutionMode::kSequential;
    const std::vector<Case> svc_cases = {
        {"laplace-k12-subset#0", "laplace-k12-subset", seq, &subset, false}};
    for (Metric& m : probe_service(svc_cases, tracer))
      rep.metrics.push_back(std::move(m));
    trace_metrics(rep.metrics, plain, traced);
  }
  rep.attempted = gate.attempted();
  rep.failed = gate.failed();
  gate.record(rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Service mix: closed loop of solve_batch calls from one caller
// ---------------------------------------------------------------------------

Report run_service(const Options& opt, Tracer& tracer) {
  const std::size_t n = service_n(opt);
  std::vector<ParticleSet> particles;
  std::vector<Case> cases;
  particles.reserve(std::size(kTenants) * kTenantsPerConfig);
  for (std::size_t c = 0; c < std::size(kTenants); ++c) {
    for (std::size_t copy = 0; copy < kTenantsPerConfig; ++copy) {
      const std::size_t tenant = c * kTenantsPerConfig + copy;
      particles.push_back(tenant_particles(kTenants[c], n,
                                           tenant_seed(opt.seed, tenant)));
      cases.push_back({std::string(kTenants[c].id) + "#" + std::to_string(copy),
                       kTenants[c].id, tenant_config(kTenants[c]),
                       &particles.back(), false});
    }
  }
  std::vector<service::SolveRequest> batch;
  for (const Case& c : cases) batch.push_back({c.config, c.particles});

  Gate gate(opt.seed);
  const std::size_t samples = 32;
  const auto check = [&](const std::vector<service::SolveOutcome>& out) {
    for (std::size_t i = 0; i < cases.size(); ++i)
      gate.check(cases[i].config_id, cases[i].config, *cases[i].particles,
                 out[i].result.phi, true, samples);
  };

  // Set-up: service construction through the first batch (translations,
  // plans, clients, workspaces).
  std::unique_ptr<service::SolverService> svc;
  std::vector<double> setup;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    release_freed_memory();
    const auto t0 = Clock::now();
    std::vector<service::SolveOutcome> out;
    {
      auto span = tracer.span("setup");
      svc = std::make_unique<service::SolverService>();
      out = svc->solve_batch(batch);
    }
    setup.push_back(seconds_since(t0));
    check(out);
  }

  std::vector<double> plain, traced;
  double measured = 0.0;
  const LoopClock clock(opt.seconds, opt.smoke);
  try {
    while (clock.more(measured, plain.size())) {
      const bool in_span = tracer.enabled() && (plain.size() + traced.size()) % 2 == 1;
      const auto t0 = Clock::now();
      std::vector<service::SolveOutcome> out;
      if (in_span) {
        auto span = tracer.span("batch");
        out = svc->solve_batch(batch);
      } else {
        out = svc->solve_batch(batch);
      }
      const double t = seconds_since(t0);
      (in_span ? traced : plain).push_back(t);
      measured += t;
      check(out);
    }
  } catch (const std::exception& e) {
    gate.fail(std::string("solve_batch threw: ") + e.what());
  }

  Report rep;
  rep.record.emplace_back("n_per_request", std::to_string(n));
  rep.record.emplace_back("requests_per_batch", std::to_string(cases.size()));
  if (plain.empty()) throw std::runtime_error("no batch completed");
  if (!tracer.enabled()) {
    loop_metrics(rep, plain, static_cast<double>(cases.size()), setup, gate);
  } else {
    rep.metrics = probe_layers(cases, cases[6], true, tracer);
    for (Metric& m : probe_service(cases, tracer))
      rep.metrics.push_back(std::move(m));
    trace_metrics(rep.metrics, plain, traced);
  }
  rep.attempted = gate.attempted();
  rep.failed = gate.failed();
  gate.record(rep);
  return rep;
}

const TimestepSpec kUniform{100000, 8000, false, 1e-4};
const TimestepSpec kPlummer{65536, 8192, true, 1e-5};

}  // namespace

VdwTable::VdwTable(const core::KernelSpec& spec) {
  const std::size_t nt = spec.vdw_rmin.size();
  rmin2.resize(nt * nt);
  eps.resize(nt * nt);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      const double rm = 0.5 * (spec.vdw_rmin[i] + spec.vdw_rmin[j]);
      rmin2[i * nt + j] = rm * rm;
      eps[i * nt + j] = std::sqrt(spec.vdw_epsilon[i] * spec.vdw_epsilon[j]);
    }
  }
  params.rmin2 = rmin2.data();
  params.eps = eps.data();
  params.ntypes = nt;
  params.cuton2 = spec.vdw_cuton * spec.vdw_cuton;
  params.cutoff2 = spec.vdw_cutoff * spec.vdw_cutoff;
  params.cm3o = params.cutoff2 - 3.0 * params.cuton2;
  const double denom = params.cutoff2 - params.cuton2;
  params.inv_denom = 1.0 / (denom * denom * denom);
  params.inv_denom6 = 6.0 * params.inv_denom;
  if (spec.vdw_periodic) {
    params.period = spec.vdw_box.max_side();
    params.inv_period = 1.0 / params.period;
  }
}

Report run_workload(const Options& opt, Tracer& tracer) {
  if (opt.workload == "uniform-laplace")
    return run_timestep(opt, kUniform, tracer);
  if (opt.workload == "plummer-laplace")
    return run_timestep(opt, kPlummer, tracer);
  if (opt.workload == "service-mix") return run_service(opt, tracer);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
