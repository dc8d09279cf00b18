// Google-benchmark microbenchmarks of the hot kernels: the K x K
// translation GEMMs at the paper's matrix sizes (K = 12 and K = 72), the
// Poisson kernels, the near-field pair kernel, and CSHIFT on the simulated
// machine.
//
// Before the google-benchmark suite runs, a per-kernel sweep measures
// GFLOP/s of every dispatchable BLAS backend (portable, avx2) on the
// translation shapes, and of every pkern particle-kernel backend on the
// near-field / leaf shapes (P2P over 64-particle box pairs at N = 100k,
// P2M / L2P at the paper's K = 12 and K = 72), then writes the results to
// BENCH_kernels.json (override the path with --json=FILE) so the
// performance trajectory is machine-diffable across PRs. JSON shape:
//   { "bench": "bench_kernels", "nproc": 4,
//     "default_kernel": "avx2", "default_pkern_kernel": "avx512",
//     "kernels": [ { "kernel": "avx2", "supported": true,
//                    "gemm": [ {"m":..,"n":..,"k":..,"gflops":..}, ... ] },
//                  ... ],
//     "pkern_kernels": [ { "kernel": "scalar", ... },
//       { "kernel": "portable" | "avx2" | "avx512", "supported": true,
//         "p2p": [ {"n":..,"block":..,"gradient":..,"gflops":..,
//                   "speedup_vs_scalar":..}, ... ],
//         "p2p_symmetric": [ ... ], "p2m": [ {"k":..,"block":..,
//         "gflops":..} ], "l2p": [ {"k":..,"truncation":..,"block":..,
//         "gflops":..} ] }, ... ] }
// The "scalar" row times the reference paths (baseline::direct_ranges and
// anderson::evaluate_inner) that the backends are verified against; each
// backend's p2p speedup_vs_scalar is measured against it. A backend this
// CPU cannot run keeps its row, with "supported": false and no timings;
// default_pkern_kernel is the backend auto-dispatch picked.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hfmm/anderson/kernels.hpp"
#include "hfmm/anderson/leaf_ops.hpp"
#include "hfmm/anderson/params.hpp"
#include "hfmm/blas/blas.hpp"
#include "hfmm/blas/kernels.hpp"
#include "hfmm/baseline/direct.hpp"
#include "hfmm/dp/halo.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/util/rng.hpp"
#include "hfmm/util/timer.hpp"

namespace {

using namespace hfmm;

// range(2) selects the BLAS backend: 0 = portable, 1 = avx2.
blas::KernelKind kind_of(benchmark::State& state, std::size_t idx) {
  return static_cast<blas::KernelKind>(state.range(idx));
}

bool select_or_skip(benchmark::State& state, std::size_t idx) {
  const blas::KernelKind kind = kind_of(state, idx);
  if (!blas::kernel_supported(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return false;
  }
  blas::select_kernel(kind);
  state.SetLabel(blas::to_string(kind));
  return true;
}

void BM_GemmTranslation(benchmark::State& state) {
  if (!select_or_skip(state, 2)) return;
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t boxes = static_cast<std::size_t>(state.range(1));
  std::vector<double> a(boxes * k, 1.0), t(k * k, 0.5), c(boxes * k, 0.0);
  for (auto _ : state) {
    blas::gemm(a.data(), k, t.data(), k, c.data(), k, boxes, k, k, true);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * boxes);
  state.counters["Gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(blas::gemm_flops(boxes, k, k)) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTranslation)
    ->ArgsProduct({{12, 72}, {64, 1024}, {0, 1}});

void BM_GemvTranslation(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  std::vector<double> t(k * k, 0.5), x(k, 1.0), y(k, 0.0);
  for (auto _ : state) {
    blas::gemv(t.data(), k, x.data(), y.data(), k, k, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_GemvTranslation)->Arg(12)->Arg(72);

void BM_OuterKernel(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const Vec3 s{0, 0, 1}, x{2.5, 0.3, -1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(anderson::outer_kernel(m, 1.4, s, x));
  }
}
BENCHMARK(BM_OuterKernel)->Arg(2)->Arg(7);

void BM_NearFieldPair(benchmark::State& state) {
  const std::size_t n = 64;
  const ParticleSet p = make_uniform(2 * n, Box3{}, 99);
  std::vector<double> phi(2 * n, 0.0);
  for (auto _ : state) {
    baseline::direct_ranges_symmetric(p, 0, n, n, 2 * n, phi.data(), nullptr);
    benchmark::DoNotOptimize(phi.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_NearFieldPair);

void BM_Cshift(benchmark::State& state) {
  dp::Machine machine({2, 2, 2});
  const dp::BlockLayout layout(16, machine.config());
  dp::DistGrid src(layout, 12), dst(layout, 12);
  for (auto _ : state) {
    dp::cshift(machine, src, dst, 0, 1);
    benchmark::DoNotOptimize(dst.vu_data(0).data());
  }
  state.SetBytesProcessed(state.iterations() * src.total_values() * 8);
}
BENCHMARK(BM_Cshift);

void BM_P2mEvaluation(benchmark::State& state) {
  const anderson::Params params = anderson::params_d5_k12();
  const ParticleSet p = make_uniform(32, Box3{}, 7);
  std::vector<double> g(params.k(), 0.0);
  for (auto _ : state) {
    anderson::p2m(params, 0.175, {0.5, 0.5, 0.5}, p.x(), p.y(), p.z(), p.q(),
                  g);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_P2mEvaluation);

// ---------------------------------------------------------------------------
// Per-kernel GFLOP/s sweep -> BENCH_kernels.json
// ---------------------------------------------------------------------------

void write_pkern_json(std::FILE* f);

void write_kernel_json(const char* path) {
  // GEMM shapes: box-panel products at the paper's K (Anderson D=5 -> K=12,
  // the M2 rule near D=14 -> K=72) plus the square peak calibration size.
  struct GemmShape {
    std::size_t m, n, k;
  };
  const GemmShape gemm_shapes[] = {
      {4096, 12, 12}, {4096, 72, 72}, {72, 72, 72}, {96, 96, 96}};

  const blas::KernelKind initial = blas::active_kernel_kind();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_kernels\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"default_kernel\": \"%s\",\n",
               blas::to_string(initial));
  std::fprintf(f, "  \"kernels\": [\n");
  const blas::KernelKind kinds[] = {blas::KernelKind::kPortable,
                                    blas::KernelKind::kAvx2};
  std::printf("per-kernel GFLOP/s (written to %s):\n", path);
  for (std::size_t ki = 0; ki < 2; ++ki) {
    const blas::KernelKind kind = kinds[ki];
    const bool ok = blas::kernel_supported(kind);
    std::fprintf(f, "    { \"kernel\": \"%s\", \"supported\": %s",
                 blas::to_string(kind), ok ? "true" : "false");
    if (ok) {
      blas::select_kernel(kind);
      std::fprintf(f, ",\n      \"gemm\": [");
      for (std::size_t i = 0; i < std::size(gemm_shapes); ++i) {
        const auto& s = gemm_shapes[i];
        const double gf =
            blas::measure_gemm_flops(s.m, s.n, s.k, 0.05) / 1e9;
        std::printf("  %-8s gemm %5zu x %3zu x %3zu : %7.2f GF/s\n",
                    blas::to_string(kind), s.m, s.n, s.k, gf);
        std::fprintf(f,
                     "%s\n        { \"m\": %zu, \"n\": %zu, \"k\": %zu, "
                     "\"gflops\": %.3f }",
                     i ? "," : "", s.m, s.n, s.k, gf);
      }
      std::fprintf(f, "\n      ]");
    }
    std::fprintf(f, " }%s\n", ki + 1 < 2 ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  blas::select_kernel(initial);
  write_pkern_json(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// pkern particle-kernel sweep -> the "pkern_kernels" JSON section
// ---------------------------------------------------------------------------

constexpr std::size_t kP2pN = 100000;  // acceptance shape: N = 100k
constexpr std::size_t kLeafBlock = 64;  // particles per leaf box

// Pairs/second streaming adjacent 64-particle box pairs of an N = 100k set
// through the one-directional P2P kernel (nullptr backend = the scalar
// baseline::direct_ranges reference).
double p2p_pair_rate(const ParticleSet& p, const pkern::KernelBackend* kern,
                     bool with_grad, double min_seconds) {
  const std::size_t nb = p.size() / kLeafBlock;
  std::vector<double> phi(kLeafBlock, 0.0);
  std::vector<Vec3> grad(kLeafBlock);
  Vec3* gp = with_grad ? grad.data() : nullptr;
  const double* X = p.x().data();
  const double* Y = p.y().data();
  const double* Z = p.z().data();
  const double* Q = p.q().data();
  WallTimer t;
  std::uint64_t passes = 0;
  do {
    for (std::size_t b = 0; b + 1 < nb; b += 2) {
      const std::size_t tb = b * kLeafBlock, te = tb + kLeafBlock;
      if (kern == nullptr)
        baseline::direct_ranges(p, tb, te, te, te + kLeafBlock, phi.data(),
                                gp);
      else
        kern->p2p(X, Y, Z, Q, tb, te, te, te + kLeafBlock, phi.data(), gp,
                  0.0);
    }
    ++passes;
  } while (t.seconds() < min_seconds);
  return static_cast<double>(passes) * static_cast<double>(nb / 2) *
         static_cast<double>(kLeafBlock * kLeafBlock) / t.seconds();
}

// Same box-pair stream through the symmetric (both-directions) kernel.
double p2p_symmetric_pair_rate(const ParticleSet& p,
                               const pkern::KernelBackend* kern,
                               bool with_grad, double min_seconds) {
  const std::size_t nb = p.size() / kLeafBlock;
  std::vector<double> phi(2 * kLeafBlock, 0.0);
  std::vector<Vec3> grad(2 * kLeafBlock);
  std::vector<double> gx(2 * kLeafBlock), gy(2 * kLeafBlock),
      gz(2 * kLeafBlock);
  const double* X = p.x().data();
  const double* Y = p.y().data();
  const double* Z = p.z().data();
  const double* Q = p.q().data();
  WallTimer t;
  std::uint64_t passes = 0;
  do {
    for (std::size_t b = 0; b + 1 < nb; b += 2) {
      const std::size_t tb = b * kLeafBlock, te = tb + kLeafBlock;
      if (kern == nullptr)
        baseline::direct_ranges_symmetric(p, tb, te, te, te + kLeafBlock,
                                          phi.data(),
                                          with_grad ? grad.data() : nullptr);
      else
        kern->p2p_symmetric(X, Y, Z, Q, tb, te, te, te + kLeafBlock,
                            phi.data(), with_grad ? gx.data() : nullptr,
                            gy.data(), gz.data(), 0.0);
    }
    ++passes;
  } while (t.seconds() < min_seconds);
  return static_cast<double>(passes) * static_cast<double>(nb / 2) *
         static_cast<double>(kLeafBlock * kLeafBlock) / t.seconds();
}

// (point, particle) interactions/second of P2M: K sphere points against one
// 64-particle leaf block (nullptr backend = scalar reference loop).
double p2m_rate(const anderson::Params& params,
                const pkern::KernelBackend* kern, double min_seconds) {
  const std::size_t k = params.k();
  const double a = 0.175;
  const Vec3 center{0.5, 0.5, 0.5};
  const ParticleSet p = make_uniform(kLeafBlock, Box3{}, 7);
  std::vector<double> spx(k), spy(k), spz(k), g(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    spx[i] = center.x + a * params.rule.points[i].x;
    spy[i] = center.y + a * params.rule.points[i].y;
    spz[i] = center.z + a * params.rule.points[i].z;
  }
  WallTimer t;
  std::uint64_t reps = 0;
  do {
    if (kern == nullptr) {
      for (std::size_t i = 0; i < k; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < kLeafBlock; ++j) {
          const double dx = spx[i] - p.x()[j];
          const double dy = spy[i] - p.y()[j];
          const double dz = spz[i] - p.z()[j];
          acc += p.q()[j] / std::sqrt(dx * dx + dy * dy + dz * dz);
        }
        g[i] += acc;
      }
    } else {
      kern->p2m(spx.data(), spy.data(), spz.data(), k, p.x().data(),
                p.y().data(), p.z().data(), p.q().data(), kLeafBlock,
                g.data());
    }
    ++reps;
  } while (t.seconds() < min_seconds);
  benchmark::DoNotOptimize(g.data());
  return static_cast<double>(reps) * static_cast<double>(k * kLeafBlock) /
         t.seconds();
}

// (point, particle) interactions/second of L2P with gradient: one leaf
// block evaluated against the K-point inner approximation (nullptr backend
// = the scalar evaluate_inner/evaluate_inner_gradient reference).
double l2p_rate(const anderson::Params& params,
                const pkern::KernelBackend* kern, double min_seconds) {
  const std::size_t k = params.k();
  const double a = 0.175;
  const Vec3 center{0.5, 0.5, 0.5};
  const ParticleSet p =
      make_uniform(kLeafBlock, Box3{{0.4, 0.4, 0.4}, {0.6, 0.6, 0.6}}, 11);
  std::vector<double> sx(k), sy(k), sz(k), g(k), gw(k);
  Xoshiro256 rng(23);
  for (std::size_t i = 0; i < k; ++i) {
    sx[i] = params.rule.points[i].x;
    sy[i] = params.rule.points[i].y;
    sz[i] = params.rule.points[i].z;
    g[i] = rng.uniform(0.5, 1.5);
    gw[i] = g[i] * params.rule.weights[i];
  }
  std::vector<double> phi(kLeafBlock, 0.0);
  std::vector<Vec3> grad(kLeafBlock);
  WallTimer t;
  std::uint64_t reps = 0;
  do {
    if (kern == nullptr) {
      for (std::size_t j = 0; j < kLeafBlock; ++j) {
        const Vec3 x{p.x()[j], p.y()[j], p.z()[j]};
        phi[j] += anderson::evaluate_inner(params.rule, params.truncation, a,
                                           center, g, x);
        grad[j] += anderson::evaluate_inner_gradient(
            params.rule, params.truncation, a, center, g, x);
      }
    } else {
      kern->l2p(sx.data(), sy.data(), sz.data(), gw.data(), k,
                params.truncation, a, center.x, center.y, center.z,
                p.x().data(), p.y().data(), p.z().data(), kLeafBlock,
                phi.data(), grad.data());
    }
    ++reps;
  } while (t.seconds() < min_seconds);
  benchmark::DoNotOptimize(phi.data());
  return static_cast<double>(reps) * static_cast<double>(k * kLeafBlock) /
         t.seconds();
}

// Scalar-reference rates the backend rows report their speedups against.
struct ScalarRates {
  double p2p_plain, p2p_grad, p2p_symm;
};

void write_pkern_sections(std::FILE* f, const ParticleSet& p,
                          const pkern::KernelBackend* kern, const char* name,
                          const ScalarRates& ref,
                          const anderson::Params& p12,
                          const anderson::Params& p72) {
  constexpr double kMin = 0.05;
  const std::uint64_t fl_plain = baseline::direct_pair_flops(false);
  const std::uint64_t fl_grad = baseline::direct_pair_flops(true);
  std::fprintf(f, ",\n      \"p2p\": [");
  for (const bool grad : {false, true}) {
    const double rate = p2p_pair_rate(p, kern, grad, kMin);
    const double gf = rate * static_cast<double>(grad ? fl_grad : fl_plain) / 1e9;
    const double speedup = rate / (grad ? ref.p2p_grad : ref.p2p_plain);
    std::printf("  %-8s p2p %s N=%zu blk=%zu : %7.2f GF/s (%.2fx scalar)\n",
                name, grad ? "grad  " : "plain ", kP2pN, kLeafBlock, gf,
                speedup);
    std::fprintf(f,
                 "%s\n        { \"n\": %zu, \"block\": %zu, \"gradient\": "
                 "%s, \"gflops\": %.3f, \"speedup_vs_scalar\": %.3f }",
                 grad ? "," : "", kP2pN, kLeafBlock, grad ? "true" : "false",
                 gf, speedup);
  }
  std::fprintf(f, "\n      ],\n      \"p2p_symmetric\": [");
  {
    const double rate = p2p_symmetric_pair_rate(p, kern, true, kMin);
    const double gf = rate * static_cast<double>(fl_grad + 4) / 1e9;
    const double speedup = rate / ref.p2p_symm;
    std::printf("  %-8s p2p symm  N=%zu blk=%zu : %7.2f GF/s (%.2fx scalar)\n",
                name, kP2pN, kLeafBlock, gf, speedup);
    std::fprintf(f,
                 "\n        { \"n\": %zu, \"block\": %zu, \"gradient\": true, "
                 "\"gflops\": %.3f, \"speedup_vs_scalar\": %.3f }",
                 kP2pN, kLeafBlock, gf, speedup);
  }
  std::fprintf(f, "\n      ],\n      \"p2m\": [");
  for (std::size_t i = 0; i < 2; ++i) {
    const anderson::Params& params = i == 0 ? p12 : p72;
    const double rate = p2m_rate(params, kern, kMin);
    const double gf =
        rate * static_cast<double>(anderson::p2m_flops(1, 1)) / 1e9;
    std::printf("  %-8s p2m K=%-3zu blk=%zu : %7.2f GF/s\n", name,
                params.k(), kLeafBlock, gf);
    std::fprintf(f,
                 "%s\n        { \"k\": %zu, \"block\": %zu, \"gflops\": "
                 "%.3f }",
                 i ? "," : "", params.k(), kLeafBlock, gf);
  }
  std::fprintf(f, "\n      ],\n      \"l2p\": [");
  for (std::size_t i = 0; i < 2; ++i) {
    const anderson::Params& params = i == 0 ? p12 : p72;
    const double rate = l2p_rate(params, kern, kMin);
    const double gf = rate *
                      static_cast<double>(anderson::l2p_flops(
                          1, 1, params.truncation)) /
                      1e9;
    std::printf("  %-8s l2p K=%-3zu M=%d blk=%zu : %7.2f GF/s\n", name,
                params.k(), params.truncation, kLeafBlock, gf);
    std::fprintf(f,
                 "%s\n        { \"k\": %zu, \"truncation\": %d, \"block\": "
                 "%zu, \"gflops\": %.3f }",
                 i ? "," : "", params.k(), params.truncation, kLeafBlock, gf);
  }
  std::fprintf(f, "\n      ]");
}

void write_pkern_json(std::FILE* f) {
  const ParticleSet p = make_uniform(kP2pN, Box3{}, 99);
  const anderson::Params p12 = anderson::params_d5_k12();
  const anderson::Params p72 = anderson::params_d14_k72();
  constexpr double kMin = 0.05;
  const ScalarRates ref{p2p_pair_rate(p, nullptr, false, kMin),
                        p2p_pair_rate(p, nullptr, true, kMin),
                        p2p_symmetric_pair_rate(p, nullptr, true, kMin)};

  std::fprintf(f, "  \"default_pkern_kernel\": \"%s\",\n",
               pkern::to_string(pkern::active_kernel_kind()));
  std::fprintf(f, "  \"pkern_kernels\": [\n");
  // Scalar reference row first (always supported; speedup 1.0 by
  // construction).
  std::fprintf(f, "    { \"kernel\": \"scalar\", \"supported\": true");
  write_pkern_sections(f, p, nullptr, "scalar", ref, p12, p72);
  std::fprintf(f, " },\n");
  const pkern::KernelKind kinds[] = {pkern::KernelKind::kPortable,
                                     pkern::KernelKind::kAvx2,
                                     pkern::KernelKind::kAvx512};
  for (std::size_t ki = 0; ki < std::size(kinds); ++ki) {
    const pkern::KernelKind kind = kinds[ki];
    const bool ok = pkern::kernel_supported(kind);
    std::fprintf(f, "    { \"kernel\": \"%s\", \"supported\": %s",
                 pkern::to_string(kind), ok ? "true" : "false");
    if (ok)
      write_pkern_sections(f, p, &pkern::kernel_backend(kind),
                           pkern::to_string(kind), ref, p12, p72);
    std::fprintf(f, " }%s\n", ki + 1 < std::size(kinds) ? "," : "");
  }
  std::fprintf(f, "  ]\n");
}

// range(0) selects the pkern backend (0 = portable, 1 = avx2, 2 = avx512),
// range(1) toggles the gradient.
void BM_PkernP2P(benchmark::State& state) {
  const auto kind = static_cast<pkern::KernelKind>(state.range(0));
  if (!pkern::kernel_supported(kind)) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const bool grad = state.range(1) != 0;
  const pkern::KernelBackend& kern = pkern::kernel_backend(kind);
  const ParticleSet p = make_uniform(2 * kLeafBlock, Box3{}, 99);
  std::vector<double> phi(kLeafBlock, 0.0);
  std::vector<Vec3> g(kLeafBlock);
  state.SetLabel(std::string(pkern::to_string(kind)) +
                 (grad ? "/grad" : "/plain"));
  for (auto _ : state) {
    kern.p2p(p.x().data(), p.y().data(), p.z().data(), p.q().data(), 0,
             kLeafBlock, kLeafBlock, 2 * kLeafBlock, phi.data(),
             grad ? g.data() : nullptr, 0.0);
    benchmark::DoNotOptimize(phi.data());
  }
  state.SetItemsProcessed(state.iterations() * kLeafBlock * kLeafBlock);
}
BENCHMARK(BM_PkernP2P)->ArgsProduct({{0, 1, 2}, {0, 1}});

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_kernels.json";
  // Peel off --json=... before google-benchmark sees the flags.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      json_path = argv[i] + 7;
    else
      args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  // Parse (and reject) the flags before the sweep writes the JSON, so
  // --help or a mistyped flag leaves an existing file untouched.
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  write_kernel_json(json_path);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
