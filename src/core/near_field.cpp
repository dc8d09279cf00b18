#include "hfmm/core/near_field.hpp"

#include <algorithm>
#include <vector>

#include "hfmm/baseline/direct.hpp"
#include "hfmm/exec/graph.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm::core {

namespace {

using Run = NearFieldScratch::Run;

struct BoxRange {
  std::uint32_t begin = 0, end = 0;
  std::uint32_t count() const { return end - begin; }
};

BoxRange range_of(const dp::BoxedParticles& boxed, std::size_t flat) {
  const std::uint32_t rank = boxed.flat_to_rank[flat];
  return {boxed.box_begin[rank], boxed.box_begin[rank + 1]};
}

// Largest source run one pkern call takes. The symmetric kernels sweep the
// whole source block once per target, reading x/y/z/q and updating the
// phi/gx/gy/gz pair-buffer entries: 8 arrays x 8 B x 256 = 16 KB, inside
// L1d. It also leaves the fat core boxes of clustered inputs to one call
// per box, where a longer run only streams a bigger block past each target.
constexpr std::uint32_t kRunCap = 256;

// Analytic per-pair flop cost of the switched-LJ kernel (r2, table lookup,
// x^12/x^6 powers, switch polynomial; gradient adds the c2 * d updates).
std::uint64_t vdw_pair_flops(bool with_gradient) {
  return with_gradient ? 34 : 24;
}

// Plans a chunk's pkern calls into ch.runs and sets [ch.lo, ch.hi) to the
// particle span they write; returns the per-box-pair counts. Per nonempty
// target box: the box against itself, then its neighbours in list order
// (tree::for_each_neighbour). With the symmetric list, a neighbour extends
// the open source run when it lies in the same x-row and its sorted range
// abuts the run. The z|y|x coordinate-sort key puts x-neighbours side by
// side, so a full row is usually one run; a run breaks where ranges do not
// abut (multi-VU DP keys, the periodic seam) and before it would pass
// kRunCap.
//
// Only the symmetric list merges. The plain list, which only the Figure 10
// baseline walks, keeps one call per box.
NearFieldResult plan_runs(const tree::Hierarchy& hier,
                          const dp::BoxedParticles& boxed,
                          std::span<const tree::Offset> offsets,
                          bool symmetric, bool periodic,
                          NearFieldScratch::Chunk& ch,
                          std::span<const std::uint32_t> boxes) {
  const int h = hier.depth();
  ch.runs.clear();
  std::size_t lo = boxed.sorted.size(), hi = 0;
  const auto emit = [&](const Run& r) {
    ch.runs.push_back(r);
    lo = std::min<std::size_t>(lo, symmetric ? std::min(r.tb, r.sb) : r.tb);
    hi = std::max<std::size_t>(hi, symmetric ? std::max(r.te, r.se) : r.te);
  };

  NearFieldResult res;
  for (const std::uint32_t f : boxes) {
    const BoxRange tr = range_of(boxed, f);
    const std::uint64_t t = tr.count();
    if (t == 0) continue;
    if (t > 1) {
      emit({tr.begin, tr.end, tr.begin, tr.end});
      res.pair_interactions += t * (t - 1);
      ++res.box_interactions;
    }
    Run run{tr.begin, tr.end, 0, 0};
    tree::BoxCoord row{};  // a neighbour in the open run's x-row
    tree::for_each_neighbour(
        hier.coord_of(h, f), hier.boxes_per_side(h), offsets, periodic,
        [&](const tree::BoxCoord& nb) {
          const BoxRange sr = range_of(boxed, hier.flat_index(h, nb));
          if (sr.count() == 0) return;
          res.pair_interactions += t * sr.count();
          ++res.box_interactions;
          const bool open = run.se > run.sb;
          if (open && symmetric && nb.iy == row.iy && nb.iz == row.iz &&
              sr.begin == run.se && run.se - run.sb + sr.count() <= kRunCap) {
            run.se = sr.end;
            return;
          }
          if (open) emit(run);
          run.sb = sr.begin;
          run.se = sr.end;
          row = nb;
        });
    if (run.se > run.sb) emit(run);
  }
  ch.lo = ch.runs.empty() ? 0 : lo;
  ch.hi = ch.runs.empty() ? 0 : hi;
  return res;
}

// Sizes the chunk's buffers to its span and executes ch.runs in plan order.
void execute_runs(const dp::BoxedParticles& boxed, bool symmetric,
                  bool with_gradient, const NearKernel& kern,
                  NearFieldScratch::Chunk& ch) {
  const std::size_t lo = ch.lo;
  ch.phi.assign(ch.hi - lo, 0.0);  // phi[i - lo] holds particle i
  if (with_gradient) ch.grad.assign(ch.hi - lo, Vec3{});
  std::size_t pair_len = 0;
  for (const Run& r : ch.runs)
    if (symmetric && r.sb != r.tb)
      pair_len = std::max<std::size_t>(pair_len, r.te - r.tb + r.se - r.sb);
  if (ch.pair_phi.size() < pair_len) ch.pair_phi.resize(pair_len);
  if (with_gradient && ch.pair_gx.size() < pair_len) {
    ch.pair_gx.resize(pair_len);
    ch.pair_gy.resize(pair_len);
    ch.pair_gz.resize(pair_len);
  }

  const ParticleSet& p = boxed.sorted;
  const double* X = p.x().data();
  const double* Y = p.y().data();
  const double* Z = p.z().data();
  const double* Q = p.q().data();
  const std::int32_t* T = kern.types;
  const double soft2 = kern.soft2;
  const bool vdw = kern.type == KernelType::kVanDerWaals;
  const pkern::KernelBackend& back = pkern::active_kernel();
  double* phi = ch.phi.data();
  Vec3* grad = with_gradient ? ch.grad.data() : nullptr;
  double* pphi = ch.pair_phi.data();
  double* pgx = with_gradient ? ch.pair_gx.data() : nullptr;
  double* pgy = ch.pair_gy.data();
  double* pgz = ch.pair_gz.data();

  // Accumulates a pair-buffer segment onto the span buffers at particle i0.
  const auto scatter = [&](std::size_t from, std::size_t i0, std::size_t len) {
    for (std::size_t j = 0; j < len; ++j) phi[i0 - lo + j] += pphi[from + j];
    if (!with_gradient) return;
    for (std::size_t j = 0; j < len; ++j)
      grad[i0 - lo + j] += Vec3{pgx[from + j], pgy[from + j], pgz[from + j]};
  };

  for (std::size_t k = 0; k < ch.runs.size();) {
    const std::uint32_t tb = ch.runs[k].tb, te = ch.runs[k].te;
    const std::size_t t = te - tb;
    // The target part of the pair buffer ([0, t)) accumulates over all of
    // the box's source runs and lands once; each run's source part
    // ([t, t + s)) is zeroed, filled and scattered per call.
    bool crossed = false;
    for (; k < ch.runs.size() && ch.runs[k].tb == tb; ++k) {
      const Run& r = ch.runs[k];
      if (!symmetric || r.sb == r.tb) {
        // Plain call straight into the span buffers (self or full list).
        double* out = phi + (tb - lo);
        Vec3* gout = with_gradient ? grad + (tb - lo) : nullptr;
        if (vdw)
          back.p2p_vdw(X, Y, Z, T, tb, te, r.sb, r.se, out, gout, kern.vdw);
        else
          back.p2p(X, Y, Z, Q, tb, te, r.sb, r.se, out, gout, soft2);
        continue;
      }
      // Both directions in one pass; the paper's Figure 10 trick.
      const std::size_t s = r.se - r.sb;
      const std::size_t from = crossed ? t : 0;
      std::fill_n(pphi + from, t + s - from, 0.0);
      if (with_gradient) {
        std::fill_n(pgx + from, t + s - from, 0.0);
        std::fill_n(pgy + from, t + s - from, 0.0);
        std::fill_n(pgz + from, t + s - from, 0.0);
      }
      if (vdw)
        back.p2p_vdw_symmetric(X, Y, Z, T, tb, te, r.sb, r.se, pphi, pgx,
                               pgy, pgz, kern.vdw);
      else
        back.p2p_symmetric(X, Y, Z, Q, tb, te, r.sb, r.se, pphi, pgx, pgy,
                           pgz, soft2);
      scatter(t, r.sb, s);
      crossed = true;
    }
    if (crossed) scatter(0, tb, t);
  }
}

}  // namespace

void near_field_costs(const tree::Hierarchy& hier,
                      const dp::BoxedParticles& boxed,
                      std::span<const tree::Offset> offsets,
                      std::span<const std::uint32_t> boxes,
                      const NearKernel& kern, std::span<std::uint64_t> cost) {
  const int h = hier.depth();
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const std::uint64_t t = range_of(boxed, boxes[i]).count();
    std::uint64_t pairs = t * (t > 0 ? t - 1 : 0);
    tree::for_each_neighbour(
        hier.coord_of(h, boxes[i]), hier.boxes_per_side(h), offsets,
        kern.periodic(), [&](const tree::BoxCoord& nb) {
          pairs += t * range_of(boxed, hier.flat_index(h, nb)).count();
        });
    cost[i] = pairs;
  }
}

NearFieldResult near_field_chunk(const tree::Hierarchy& hier,
                                 const dp::BoxedParticles& boxed,
                                 std::span<const tree::Offset> offsets,
                                 bool symmetric, bool with_gradient,
                                 NearFieldScratch::Chunk& ch,
                                 std::span<const std::uint32_t> boxes,
                                 const NearKernel& kern) {
  // Periodic vdW: KernelSpec::validate + the solver's depth policy
  // guarantee n >= 8, so the +/-2 offsets stay distinct after the wrap.
  NearFieldResult res = plan_runs(hier, boxed, offsets, symmetric,
                                  kern.periodic(), ch, boxes);
  execute_runs(boxed, symmetric, with_gradient, kern, ch);

  // Flop count is analytic (pairs x per-pair cost), not measured.
  const std::uint64_t per_pair =
      (kern.type == KernelType::kVanDerWaals
           ? vdw_pair_flops(with_gradient)
           : baseline::direct_pair_flops(with_gradient)) +
      (symmetric ? 4 : 0);
  res.flops = res.pair_interactions * per_pair;
  return res;
}

void near_field_accumulate(const NearFieldScratch& scr, std::size_t used,
                           bool with_gradient, std::span<double> phi,
                           std::span<Vec3> grad, std::size_t lo,
                           std::size_t hi) {
  for (std::size_t c = 0; c < used; ++c) {
    const NearFieldScratch::Chunk& ch = scr.chunks[c];
    const std::size_t a = std::max(lo, ch.lo), b = std::min(hi, ch.hi);
    for (std::size_t i = a; i < b; ++i) phi[i] += ch.phi[i - ch.lo];
    if (with_gradient) {
      for (std::size_t i = a; i < b; ++i) grad[i] += ch.grad[i - ch.lo];
    }
  }
}

NearFieldResult near_field(const tree::Hierarchy& hier,
                           const dp::BoxedParticles& boxed,
                           std::span<const tree::Offset> offsets,
                           bool symmetric, std::span<double> phi,
                           std::span<Vec3> grad, ThreadPool& pool,
                           NearFieldScratch* scratch, const NearKernel& kern) {
  const bool with_gradient = !grad.empty();
  // The buffers live in caller-owned scratch (or a local fallback) so
  // repeated calls — an integrator's timestep loop — reuse the capacity.
  NearFieldScratch local;
  NearFieldScratch& scr = scratch != nullptr ? *scratch : local;
  dp::occupied_leaves(boxed, scr.leaves);
  scr.cost.resize(scr.leaves.size());
  near_field_costs(hier, boxed, offsets, scr.leaves, kern, scr.cost);
  const std::size_t chunks = near_chunk_count(scr.leaves.size());
  if (scr.chunks.size() < chunks) scr.chunks.resize(chunks);
  std::vector<NearFieldResult> partial(chunks);

  exec::PhaseGraph g;
  const std::span<const std::uint32_t> leaves{scr.leaves};
  const exec::NodeId near = g.add_weighted(
      "near", "near", scr.cost, chunks,
      [&](std::size_t c, std::size_t lo, std::size_t hi, PhaseStats&) {
        partial[c] = near_field_chunk(hier, boxed, offsets, symmetric,
                                      with_gradient, scr.chunks[c],
                                      leaves.subspan(lo, hi - lo), kern);
      });
  const exec::NodeId acc = g.add(
      "accumulate", "accumulate", boxed.sorted.size(), 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        near_field_accumulate(scr, chunks, with_gradient, phi, grad, lo, hi);
      });
  g.depend(acc, near);
  PhaseBreakdown breakdown;
  g.run(pool, exec::RunMode::kConcurrent, breakdown);

  NearFieldResult total;
  for (const NearFieldResult& r : partial) {
    total.pair_interactions += r.pair_interactions;
    total.box_interactions += r.box_interactions;
    total.flops += r.flops;
  }
  return total;
}

}  // namespace hfmm::core
