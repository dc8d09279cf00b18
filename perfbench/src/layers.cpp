// Per-layer probes of the traced run. Each metric comes from a call the
// benchmark makes into one layer's public entry point on the workload's own
// inputs, or from a count a solve already returns (FmmResult, SolveOutcome,
// SolverService::stats). Every call is recorded as a span.

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <set>

#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/anderson/params.hpp"
#include "hfmm/anderson/translations.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/core/near_field.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/dp/layout.hpp"
#include "hfmm/dp/sort.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/service/plan_cache.hpp"
#include "hfmm/service/service.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"
#include "hfmm/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hfmm;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMinProbeSeconds = 0.2;

// Flops per pair as hfmm's symmetric near field counts them
// (src/core/near_field.cpp): the pair kernel plus 4 for the second
// direction. Using its accounting makes core.near.kernel_frac a pure ratio
// of pair rates.
std::uint64_t laplace_pair_flops(bool with_gradient) {
  return baseline::direct_pair_flops(with_gradient) + 4;
}
constexpr std::uint64_t kVdwPotentialPairFlops = 24 + 4;

// Interactive-phase gemm shapes are K x K x (boxes of a level); levels with
// more boxes are capped here to bound the probe's memory.
constexpr std::size_t kMaxGemmColumns = std::size_t{1} << 15;

bool is_laplace(const Case& c) {
  return c.config.kernel.type == core::KernelType::kLaplace3d;
}

double timeline_span(const std::vector<exec::StageTiming>& timeline) {
  if (timeline.empty()) return 0.0;
  double lo = timeline.front().start_seconds, hi = timeline.front().end_seconds;
  for (const exec::StageTiming& s : timeline) {
    lo = std::min(lo, s.start_seconds);
    hi = std::max(hi, s.end_seconds);
  }
  return hi - lo;
}

/// A warm solve of one case, as the workload runs it: the last result and
/// the median wall time, graph span and time outside the graph.
struct Solo {
  core::FmmResult result;
  double wall_s = 0.0;
  double span_s = 0.0;
  double outside_s = 0.0;
};

Solo solo_solve(const Case& c, Tracer& tracer) {
  core::FmmSolver solver(c.config);
  core::SolveView view;
  const auto solve = [&] {
    return c.streamed ? solver.solve(*c.particles, view)
                      : solver.solve(*c.particles);
  };
  Solo s;
  {
    auto span = tracer.span("core.FmmSolver.solve.cold:" + c.label);
    s.result = solve();
  }
  std::vector<double> wall, graph, outside;
  const auto start = Clock::now();
  while (wall.size() < 3 || seconds_since(start) < kMinProbeSeconds) {
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("core.FmmSolver.solve:" + c.label);
      s.result = solve();
    }
    const double w = seconds_since(t0);
    const double g = timeline_span(s.result.timeline);
    wall.push_back(w);
    graph.push_back(g);
    outside.push_back(w - g);
  }
  s.wall_s = median(wall);
  s.span_s = median(graph);
  s.outside_s = median(outside);
  return s;
}

/// A case's particles sorted the way its solve sorts them: single-VU
/// coordinate sort over the solve's root cube and depth.
struct Sorted {
  tree::Hierarchy hier;
  dp::BoxedParticles boxed;
  double sort_s = 0.0;
};

Sorted sort_case(const Case& c, int depth, Tracer& tracer) {
  // Laplace derives the root cube from the particle bounds each solve; van
  // der Waals pins it to the kernel's box.
  const Box3 cube = tree::cube_containing(
      is_laplace(c) ? c.particles->bounds() : c.config.kernel.vdw_box);
  Sorted s{tree::Hierarchy(cube, depth), {}, 0.0};
  const dp::BlockLayout layout(s.hier.boxes_per_side(depth),
                               dp::MachineConfig{1, 1, 1});
  dp::SortScratch scratch;
  dp::coordinate_sort(*c.particles, s.hier, layout, s.boxed, &scratch);
  s.sort_s = time_median(
      [&] {
        auto span = tracer.span("dp.coordinate_sort:" + c.label);
        dp::coordinate_sort(*c.particles, s.hier, layout, s.boxed, &scratch);
      },
      3, kMinProbeSeconds);
  return s;
}

/// Leaf occupancy as a near-field pair sees it: sum c^2 / sum c over the
/// leaves (the plain mean over occupied leaves understates the blocks the
/// kernel runs on for clustered input).
std::size_t pair_weighted_occupancy(const dp::BoxedParticles& boxed) {
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t r = 0; r + 1 < boxed.box_begin.size(); ++r) {
    const double c = boxed.count_in_rank(r);
    sum += c;
    sum2 += c * c;
  }
  const double m = sum > 0.0 ? sum2 / sum : 1.0;
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(m)), 2,
                                 1024);
}

/// Block sweep of the near-field kernels on one core: `blocks` consecutive
/// slices of `m` sorted particles, each against itself and against up to 62
/// partners (the d = 2 half neighbour list). Bounded to ~2e7 pairs a sweep.
struct Blocks {
  std::size_t m = 0, count = 0, partners = 0;
};

Blocks block_shape(std::size_t n, std::size_t m) {
  Blocks b;
  b.m = std::min(m, n / 2);
  b.count = std::min<std::size_t>(64, n / b.m);
  const auto pairs = [&] {
    return b.count * std::min<std::size_t>(62, b.count - 1) * b.m * b.m;
  };
  while (b.count > 2 && pairs() > 20'000'000) b.count /= 2;
  b.partners = std::min<std::size_t>(62, b.count - 1);
  return b;
}

double p2p_gflops(const dp::BoxedParticles& boxed, std::size_t m,
                  bool with_gradient, double softening, Tracer& tracer) {
  const ParticleSet& p = boxed.sorted;
  const Blocks b = block_shape(p.size(), m);
  const double soft2 = softening * softening;
  std::vector<double> phi(b.m), pair_phi(2 * b.m), gx(2 * b.m), gy(2 * b.m),
      gz(2 * b.m);
  std::vector<Vec3> grad(b.m);
  const pkern::KernelBackend& kern = pkern::active_kernel();
  const double *x = p.x().data(), *y = p.y().data(), *z = p.z().data(),
               *q = p.q().data();
  const auto sweep = [&] {
    auto span = tracer.span("pkern.p2p+p2p_symmetric");
    for (std::size_t t = 0; t < b.count; ++t) {
      const std::size_t tb = t * b.m, te = tb + b.m;
      kern.p2p(x, y, z, q, tb, te, tb, te, phi.data(),
               with_gradient ? grad.data() : nullptr, soft2);
      for (std::size_t j = 1; j <= b.partners; ++j) {
        const std::size_t sb = ((t + j) % b.count) * b.m;
        kern.p2p_symmetric(x, y, z, q, tb, te, sb, sb + b.m, pair_phi.data(),
                           with_gradient ? gx.data() : nullptr, gy.data(),
                           gz.data(), soft2);
      }
    }
  };
  sweep();
  const double t = time_median(sweep, 3, kMinProbeSeconds);
  const double pairs =
      static_cast<double>(b.count) *
      static_cast<double>(b.m * (b.m - 1) + b.partners * b.m * b.m);
  return pairs * static_cast<double>(laplace_pair_flops(with_gradient)) / t /
         1e9;
}

double p2p_vdw_gflops(const dp::BoxedParticles& boxed, std::size_t m,
                      const pkern::VdwParams& vp, Tracer& tracer) {
  const ParticleSet& p = boxed.sorted;
  const Blocks b = block_shape(p.size(), m);
  std::vector<double> pair_phi(2 * b.m), gy(2 * b.m), gz(2 * b.m);
  const pkern::KernelBackend& kern = pkern::active_kernel();
  const auto sweep = [&] {
    auto span = tracer.span("pkern.p2p_vdw_symmetric");
    for (std::size_t t = 0; t < b.count; ++t) {
      const std::size_t tb = t * b.m, te = tb + b.m;
      for (std::size_t j = 1; j <= b.partners; ++j) {
        const std::size_t sb = ((t + j) % b.count) * b.m;
        kern.p2p_vdw_symmetric(p.x().data(), p.y().data(), p.z().data(),
                               p.type().data(), tb, te, sb, sb + b.m,
                               pair_phi.data(), nullptr, gy.data(), gz.data(),
                               vp);
      }
    }
  };
  sweep();
  const double t = time_median(sweep, 3, kMinProbeSeconds);
  const double pairs = static_cast<double>(b.count * b.partners * b.m * b.m);
  return pairs * static_cast<double>(kVdwPotentialPairFlops) / t / 1e9;
}

/// L2P at K = 12 over every occupied leaf of a sorted case, on one core.
double l2p_gflops(const Sorted& s, bool with_gradient, Tracer& tracer) {
  const anderson::Params params = anderson::params_d5_k12();
  const std::size_t k = params.k();
  std::vector<double> sx(k), sy(k), sz(k), gw(k);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    gw[i] = params.rule.weights[i] * (1.0 + 0.01 * static_cast<double>(i));
  }
  const int h = s.hier.depth();
  const double a = params.inner_ratio * s.hier.side_at(h);
  const ParticleSet& p = s.boxed.sorted;
  std::vector<double> phi(p.size());
  std::vector<Vec3> grad(with_gradient ? p.size() : 0);
  const pkern::KernelBackend& kern = pkern::active_kernel();
  std::uint64_t flops = 0;
  const std::size_t ranks = s.boxed.box_begin.size() - 1;
  for (std::size_t r = 0; r < ranks; ++r)
    flops += anderson::l2p_flops(k, s.boxed.count_in_rank(r),
                                 params.truncation);
  const auto sweep = [&] {
    auto span = tracer.span("pkern.l2p");
    for (std::size_t r = 0; r < ranks; ++r) {
      const std::size_t b = s.boxed.box_begin[r], e = s.boxed.box_begin[r + 1];
      if (b == e) continue;
      const Vec3 c =
          s.hier.center(h, s.hier.coord_of(h, s.boxed.rank_to_flat[r]));
      kern.l2p(sx.data(), sy.data(), sz.data(), gw.data(), k,
               params.truncation, a, c.x, c.y, c.z, p.x().data() + b,
               p.y().data() + b, p.z().data() + b, e - b, phi.data() + b,
               with_gradient ? grad.data() + b : nullptr);
    }
  };
  sweep();
  return static_cast<double>(flops) / time_median(sweep, 3, kMinProbeSeconds) /
         1e9;
}

/// blas::gemm at the interactive phase's K x K x (boxes per level) shapes,
/// levels 2 .. depth, on one core.
double gemm_gflops(std::size_t k, int depth, Tracer& tracer) {
  std::mt19937_64 rng(k);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> a(k * k);
  for (double& v : a) v = u(rng);
  double seconds = 0.0, flops = 0.0;
  for (int l = 2; l <= std::max(depth, 2); ++l) {
    const std::size_t cols =
        std::min(std::size_t{1} << (3 * l), kMaxGemmColumns);
    std::vector<double> b(k * cols), c(k * cols);
    for (double& v : b) v = u(rng);
    seconds += time_median(
        [&] {
          auto span = tracer.span("blas.gemm:K" + std::to_string(k) + ":L" +
                                  std::to_string(l));
          blas::gemm(a.data(), k, b.data(), cols, c.data(), cols, k, cols, k,
                     false);
        },
        3, 0.05);
    flops += static_cast<double>(blas::gemm_flops(k, cols, k));
  }
  return flops / seconds / 1e9;
}

double translations_s(const anderson::Params& params, const std::string& name,
                      Tracer& tracer) {
  return time_median(
      [&] {
        auto span = tracer.span(name);
        const anderson::TranslationSet set(params, 2, true);
      },
      1, 1.0);
}

/// Per-chunk cost of running a graph of `stage_chunks` empty-bodied stages
/// concurrently on the global pool (chained in order when `chain`).
double dispatch_us(const std::vector<std::size_t>& stage_chunks, bool chain,
                   Tracer& tracer) {
  const std::size_t total =
      std::accumulate(stage_chunks.begin(), stage_chunks.end(), std::size_t{0});
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 20 || seconds_since(start) < kMinProbeSeconds) {
    exec::PhaseGraph g;
    exec::NodeId prev = 0;
    for (std::size_t i = 0; i < stage_chunks.size(); ++i) {
      const exec::NodeId id =
          g.add("stage", "probe", stage_chunks[i], stage_chunks[i],
                [](std::size_t, std::size_t, std::size_t, PhaseStats&) {});
      if (chain && i > 0) g.depend(id, prev);
      prev = id;
    }
    PhaseBreakdown breakdown;
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("exec.PhaseGraph.run");
      g.run(ThreadPool::global(), exec::RunMode::kConcurrent, breakdown);
    }
    t.push_back(seconds_since(t0));
  }
  return 1e6 * median(std::move(t)) / static_cast<double>(total);
}

}  // namespace

std::vector<Metric> probe_layers(const std::vector<Case>& cases,
                                 const Case& vdw_case, bool batch_graph,
                                 Tracer& tracer) {
  auto span = tracer.span("layers");
  const std::size_t workers = ThreadPool::global().size();

  // core / tree: warm solves as the workload runs them.
  std::vector<Solo> solo;
  double leaves = 0.0, pairs = 0.0, flops = 0.0, workspace = 0.0, graph = 0.0,
         outside = 0.0;
  for (const Case& c : cases) {
    solo.push_back(solo_solve(c, tracer));
    const core::FmmResult& r = solo.back().result;
    const auto& phases = r.breakdown.phases();
    const auto near = phases.find("near");
    leaves += static_cast<double>(r.leaf_boxes);
    pairs += near == phases.end() ? 0.0 : static_cast<double>(near->second.pairs);
    flops += static_cast<double>(r.breakdown.total_flops());
    workspace += static_cast<double>(r.workspace_bytes);
    graph += solo.back().span_s;
    outside += solo.back().outside_s;
  }

  // dp: the coordinate sort of every case; core: the near field of every
  // Laplace case on the global pool, over those sorted particles.
  std::vector<Sorted> sorted;
  double sort_s = 0.0, near_s = 0.0, near_flops = 0.0;
  const auto offsets = tree::near_field_half_offsets(2);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    sorted.push_back(sort_case(c, solo[i].result.depth, tracer));
    sort_s += sorted.back().sort_s;
    if (!is_laplace(c)) continue;
    const std::size_t n = c.particles->size();
    std::vector<double> phi(n, 0.0);
    std::vector<Vec3> grad(c.config.with_gradient ? n : 0);
    core::NearFieldScratch scratch;
    const core::NearKernel kern(c.config.kernel.softening);
    core::NearFieldResult res;
    const auto run = [&] {
      auto s = tracer.span("core.near_field:" + c.label);
      res = core::near_field(sorted.back().hier, sorted.back().boxed, offsets,
                             true, phi, grad, ThreadPool::global(), &scratch,
                             kern);
    };
    run();
    near_s += time_median(run, 3, kMinProbeSeconds);
    near_flops += static_cast<double>(res.flops);
  }

  // pkern: kernel rates on blocks shaped like the first Laplace case's
  // leaves, and the van der Waals case's.
  const auto first_laplace = static_cast<std::size_t>(
      std::find_if(cases.begin(), cases.end(), is_laplace) - cases.begin());
  const Case& lap = cases[first_laplace];
  const Sorted& lap_sorted = sorted[first_laplace];
  const double p2p = p2p_gflops(
      lap_sorted.boxed, pair_weighted_occupancy(lap_sorted.boxed),
      lap.config.with_gradient, lap.config.kernel.softening, tracer);
  const Solo vdw_solo = solo_solve(vdw_case, tracer);
  const Sorted vdw_sorted = sort_case(vdw_case, vdw_solo.result.depth, tracer);
  const VdwTable vdw_table(vdw_case.config.kernel);
  const double p2p_vdw =
      p2p_vdw_gflops(vdw_sorted.boxed, pair_weighted_occupancy(vdw_sorted.boxed),
                     vdw_table.params, tracer);
  const double l2p = l2p_gflops(lap_sorted, lap.config.with_gradient, tracer);

  // blas: K = 12 at the first Laplace case's depth; K = 72 at the first
  // K = 72 case's depth when the workload has one.
  int k72_depth = solo[first_laplace].result.depth;
  for (std::size_t i = 0; i < cases.size(); ++i)
    if (is_laplace(cases[i]) && cases[i].config.params.k() == 72) {
      k72_depth = solo[i].result.depth;
      break;
    }
  const double gemm12 = gemm_gflops(12, solo[first_laplace].result.depth, tracer);
  const double gemm72 = gemm_gflops(72, k72_depth, tracer);

  // anderson: translation-set construction (supernodes on, d = 2).
  const double trans12 = translations_s(anderson::params_d5_k12(),
                                        "anderson.TranslationSet:K12", tracer);
  const double trans72 = translations_s(anderson::params_d14_k72(),
                                        "anderson.TranslationSet:K72", tracer);

  // service: one plan build per distinct configuration, on a fresh cache.
  double plan_s = 0.0;
  std::set<std::string> built;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!built.insert(cases[i].config_id).second) continue;
    service::PlanCache cache;
    const auto t0 = Clock::now();
    {
      auto s = tracer.span("service.PlanCache.plan:" + cases[i].config_id);
      const auto plan = cache.plan(cases[i].config, solo[i].result.depth);
    }
    plan_s += seconds_since(t0);
  }

  // exec: the workload's graph shape with empty stage bodies.
  std::vector<std::size_t> stage_chunks;
  if (batch_graph) {
    stage_chunks.assign(cases.size(), 1);
  } else {
    for (const exec::StageTiming& s : solo.front().result.timeline)
      stage_chunks.push_back(s.chunks);
  }
  const double dispatch = dispatch_us(stage_chunks, !batch_graph, tracer);

  const double near_gflops_per_core =
      near_flops / near_s / static_cast<double>(workers) / 1e9;
  return {
      {"pkern.p2p.gflops", p2p, "GF/s"},
      {"pkern.p2p_vdw.gflops", p2p_vdw, "GF/s"},
      {"pkern.l2p.gflops", l2p, "GF/s"},
      {"blas.gemm_k12.gflops", gemm12, "GF/s"},
      {"blas.gemm_k72.gflops", gemm72, "GF/s"},
      {"anderson.translations_k12.s", trans12, "s"},
      {"anderson.translations_k72.s", trans72, "s"},
      {"service.plan_build.s", plan_s, "s"},
      {"dp.sort.s", sort_s, "s"},
      {"tree.leaves", leaves, "count"},
      {"core.near.s", near_s, "s"},
      {"core.near.gflops_per_core", near_gflops_per_core, "GF/s"},
      {"core.near.kernel_frac", near_gflops_per_core / p2p, "1"},
      {"core.near.pairs", pairs, "count"},
      {"core.flops", flops, "count"},
      {"core.graph_span.s", graph, "s"},
      {"core.outside_graph.s", outside, "s"},
      {"core.workspace_mb", workspace / 1e6, "MB"},
      {"exec.dispatch_us", dispatch, "us"},
  };
}

std::vector<Metric> probe_service(const std::vector<Case>& cases,
                                  Tracer& tracer) {
  auto span = tracer.span("service");
  // Solo sequential solves: the work each request brings to the batch.
  double solo = 0.0;
  for (const Case& c : cases) {
    core::FmmConfig cfg = c.config;
    cfg.mode = core::ExecutionMode::kSequential;
    core::FmmSolver solver(cfg);
    solver.solve(*c.particles);
    solo += time_median(
        [&] {
          auto s = tracer.span("core.FmmSolver.solve.sequential:" + c.label);
          solver.solve(*c.particles);
        },
        3, kMinProbeSeconds);
  }

  std::vector<service::SolveRequest> batch;
  for (const Case& c : cases) batch.push_back({c.config, c.particles});
  service::SolverService svc;
  {
    auto s = tracer.span("service.solve_batch.cold");
    svc.solve_batch(batch);
  }
  std::vector<double> times, queue;
  const auto start = Clock::now();
  while (times.size() < 3 || seconds_since(start) < 1.0) {
    const auto t0 = Clock::now();
    std::vector<service::SolveOutcome> out;
    {
      auto s = tracer.span("service.solve_batch");
      out = svc.solve_batch(batch);
    }
    times.push_back(seconds_since(t0));
    for (const service::SolveOutcome& o : out) queue.push_back(o.queue_seconds);
  }
  const service::ServiceStats st = svc.stats();
  const double hits = static_cast<double>(st.plan_cache.plan_hits);
  const double misses = static_cast<double>(st.plan_cache.plan_misses);
  const double workers = static_cast<double>(ThreadPool::global().size());
  return {
      {"service.queue_median.s", median(queue), "s"},
      {"service.queue_max.s", *std::max_element(queue.begin(), queue.end()),
       "s"},
      {"service.pack_eff", solo / (workers * median(times)), "1"},
      {"service.plan_hits", hits, "count"},
      {"service.plan_misses", misses, "count"},
      {"service.plan_hit_ratio", hits / (hits + misses), "1"},
      {"service.clients_reused", static_cast<double>(st.clients_reused),
       "count"},
  };
}

}  // namespace perfbench
