// Dev harness: prints FNV-1a hashes of solver outputs over a config sweep.
// Used to verify bitwise-identical results across the exec-graph refactor.
#include <cstdio>
#include <cstring>

#include "hfmm/core/solver.hpp"
#include "hfmm/d2/solver.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

static std::uint64_t fnv(const void* data, std::size_t bytes,
                         std::uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

int main() {
  const ParticleSet p = make_uniform(3000, Box3{}, 17);
  for (int mode = 0; mode < 3; ++mode) {
    for (int agg = 0; agg < 2; ++agg) {
      for (int sn = 0; sn < 2; ++sn) {
        core::FmmConfig cfg;
        cfg.depth = 3;
        cfg.mode = static_cast<core::ExecutionMode>(mode);
        cfg.aggregation = static_cast<core::AggregationMode>(agg);
        cfg.supernodes = sn != 0;
        cfg.with_gradient = true;
        core::FmmSolver solver(cfg);
        const core::FmmResult r = solver.solve(p);
        const core::FmmResult w = solver.solve(p);
        std::uint64_t h = fnv(r.phi.data(), r.phi.size() * 8);
        h = fnv(r.grad.data(), r.grad.size() * sizeof(Vec3), h);
        std::uint64_t hw = fnv(w.phi.data(), w.phi.size() * 8);
        hw = fnv(w.grad.data(), w.grad.size() * sizeof(Vec3), hw);
        std::printf("mode=%d agg=%d sn=%d cold=%016llx warm=%016llx\n", mode,
                    agg, sn, static_cast<unsigned long long>(h),
                    static_cast<unsigned long long>(hw));
      }
    }
  }
  {
    d2::ParticleSet2 p2 = d2::make_uniform2(2500, 23);
    for (int th = 0; th < 2; ++th) {
      for (int sn = 0; sn < 2; ++sn) {
        d2::Fmm2Config cfg;
        cfg.depth = 3;
        cfg.threads = th != 0;
        cfg.supernodes = sn != 0;
        cfg.with_gradient = true;
        d2::FmmSolver2 solver(cfg);
        const d2::Fmm2Result r = solver.solve(p2);
        std::uint64_t h = fnv(r.phi.data(), r.phi.size() * 8);
        h = fnv(r.grad.data(), r.grad.size() * sizeof(d2::Point2), h);
        std::printf("d2 threads=%d sn=%d h=%016llx\n", th, sn,
                    static_cast<unsigned long long>(h));
      }
    }
  }
  return 0;
}
