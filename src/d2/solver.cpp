#include "hfmm/d2/solver.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "hfmm/blas/blas.hpp"
#include "hfmm/d2/kernels.hpp"
#include "hfmm/service/shared_map.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::d2 {

ParticleSet2 make_uniform2(std::size_t n, std::uint64_t seed, double qlo,
                           double qhi) {
  ParticleSet2 p;
  p.resize(n);
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = rng.uniform();
    p.y[i] = rng.uniform();
    p.q[i] = rng.uniform(qlo, qhi);
  }
  return p;
}

ParticleSet2 make_plasma2(std::size_t n, std::uint64_t seed) {
  ParticleSet2 p = make_uniform2(n, seed);
  for (std::size_t i = 0; i < n; ++i) p.q[i] = (i % 2 == 0) ? 1.0 : -1.0;
  return p;
}

void Fmm2Config::validate() const {
  if (k < 4) throw std::invalid_argument("Fmm2Config: k must be >= 4");
  if (truncation < 0 || 2 * truncation > static_cast<int>(k) - 1)
    throw std::invalid_argument(
        "Fmm2Config: truncation must satisfy 2M <= K-1 (rule exactness)");
  if (radius_ratio <= 0.0)
    throw std::invalid_argument("Fmm2Config: radius_ratio must be positive");
  if (depth != -1 && (depth < 2 || depth > kMaxDepth2))
    throw std::invalid_argument(
        "Fmm2Config: explicit depth must be in [2, 15]");
  if (!std::isfinite(particles_per_leaf))
    throw std::invalid_argument("Fmm2Config: particles_per_leaf must be finite");
  if (separation < 1)
    throw std::invalid_argument("Fmm2Config: separation must be >= 1");
  if (supernodes && separation != 2)
    throw std::invalid_argument("Fmm2Config: supernodes need separation 2");
}

Direct2Result direct_all2(const ParticleSet2& p, bool with_gradient) {
  const std::size_t n = p.size();
  Direct2Result out;
  out.phi.assign(n, 0.0);
  if (with_gradient) out.grad.assign(n, Point2{});
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    Point2 g{};
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double dx = p.x[i] - p.x[j], dy = p.y[i] - p.y[j];
      const double r2 = dx * dx + dy * dy;
      acc += -0.5 * p.q[j] * std::log(r2);  // q log(1/r)
      if (with_gradient) {
        g.x += -p.q[j] * dx / r2;
        g.y += -p.q[j] * dy / r2;
      }
    }
    out.phi[i] = acc;
    if (with_gradient) out.grad[i] = g;
  }
  return out;
}

namespace {

// Augmented translation matrices ((K+1) x (K+1), row-major): the last slot
// of an element vector is the monopole Q (outer elements only).
std::vector<double> build_outer_to_points2(const Fmm2Config& cfg,
                                           const CircleRule& rule,
                                           double a_src, double a_dst,
                                           const Point2& dst_minus_src,
                                           bool carry_monopole) {
  const std::size_t k = rule.size();
  const std::size_t kp = k + 1;
  std::vector<double> t(kp * kp, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const Point2 x_rel{dst_minus_src.x + a_dst * rule.points[j].x,
                       dst_minus_src.y + a_dst * rule.points[j].y};
    double* row = t.data() + j * kp;
    for (std::size_t i = 0; i < k; ++i)
      row[i] = rule.weight * outer_series_kernel(cfg.truncation, a_src,
                                                 rule.points[i].theta, x_rel);
    // The source's log term sampled at the destination point.
    row[k] = std::log(a_src / x_rel.norm());
  }
  if (carry_monopole) t[k * kp + k] = 1.0;  // dst Q += src Q
  return t;
}

std::vector<double> build_inner_to_points2(const Fmm2Config& cfg,
                                           const CircleRule& rule,
                                           double a_src, double a_dst,
                                           const Point2& dst_minus_src) {
  const std::size_t k = rule.size();
  const std::size_t kp = k + 1;
  std::vector<double> t(kp * kp, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const Point2 x_rel{dst_minus_src.x + a_dst * rule.points[j].x,
                       dst_minus_src.y + a_dst * rule.points[j].y};
    double* row = t.data() + j * kp;
    for (std::size_t i = 0; i < k; ++i)
      row[i] = rule.weight * inner_series_kernel(cfg.truncation, a_src,
                                                 rule.points[i].theta, x_rel);
  }
  return t;
}

struct Boxed2 {
  std::vector<std::uint32_t> perm;       // sorted index -> original index
  std::vector<std::uint32_t> box_begin;  // CSR by leaf flat index
  ParticleSet2 sorted;
};

// In-place counting sort into `out`, reusing its buffers (and the caller's
// key/cursor scratch) so repeated solves pay the allocations once.
void sort_particles(const ParticleSet2& p, const Quadtree& tree, Boxed2& out,
                    std::vector<std::uint32_t>& flat,
                    std::vector<std::uint32_t>& cursor) {
  const std::size_t n = p.size();
  const std::size_t boxes = tree.boxes_at(tree.depth());
  flat.resize(n);
  out.box_begin.assign(boxes + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    flat[i] = static_cast<std::uint32_t>(
        tree.flat_index(tree.depth(), tree.leaf_of(p.position(i))));
    out.box_begin[flat[i] + 1]++;
  }
  for (std::size_t b = 0; b < boxes; ++b)
    out.box_begin[b + 1] += out.box_begin[b];
  out.perm.resize(n);
  cursor.assign(out.box_begin.begin(), out.box_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    out.perm[cursor[flat[i]]++] = static_cast<std::uint32_t>(i);
  out.sorted.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.sorted.x[i] = p.x[out.perm[i]];
    out.sorted.y[i] = p.y[out.perm[i]];
    out.sorted.q[i] = p.q[out.perm[i]];
  }
}

}  // namespace

// Immutable translation plan for one (k, truncation, radius_ratio,
// separation, supernodes) configuration — the 2-D analogue of the 3-D
// FmmPlan. Shared by every FmmSolver2 with the same configuration through
// a process-wide map, so the solvers of one configuration share one build.
struct Plan2 {
  CircleRule rule;
  std::size_t kp = 0;
  std::array<std::vector<double>, 4> t1, t3;
  std::vector<std::vector<double>> t2;  // by offset_square_index
  std::array<std::vector<SupernodeEntry2>, 4> sn_entries;
  std::array<std::vector<std::vector<double>>, 4> sn_matrices;
  std::array<std::vector<Offset2>, 4> interactive;

  static std::shared_ptr<const Plan2> build(const Fmm2Config& cfg);
  static std::shared_ptr<const Plan2> get(const Fmm2Config& cfg);
};

namespace {

struct Plan2Key {
  std::size_t k = 0;
  int truncation = 0;
  std::uint64_t ratio_bits = 0;
  int separation = 0;
  bool supernodes = false;
  bool operator==(const Plan2Key&) const = default;
};

struct Plan2KeyHash {
  std::size_t operator()(const Plan2Key& key) const {
    std::size_t h = key.k;
    h = service::hash_combine(h, static_cast<std::size_t>(key.truncation));
    h = service::hash_combine(h, static_cast<std::size_t>(key.ratio_bits));
    h = service::hash_combine(h, static_cast<std::size_t>(key.separation));
    h = service::hash_combine(h, static_cast<std::size_t>(key.supernodes));
    return h;
  }
};

}  // namespace

std::shared_ptr<const Plan2> Plan2::get(const Fmm2Config& cfg) {
  static service::SharedMap<Plan2Key, const Plan2, Plan2KeyHash> cache;
  Plan2Key key;
  key.k = cfg.k;
  key.truncation = cfg.truncation;
  key.ratio_bits = std::bit_cast<std::uint64_t>(cfg.radius_ratio);
  key.separation = cfg.separation;
  key.supernodes = cfg.supernodes;
  return cache.get_or_build(key, [&] { return Plan2::build(cfg); }).first;
}

struct FmmSolver2::Impl {
  std::shared_ptr<const Plan2> plan;

  // Pool selected once at construction (the old code built a throwaway
  // hardware-sized pool inside every solve); sequential mode owns a
  // one-thread pool, threaded mode shares the process-global one.
  std::unique_ptr<ThreadPool> seq_pool;
  ThreadPool* pool = nullptr;

  // Per-solve workspace, reused across solve() calls. The near field gets
  // its own output buffers so it can run concurrently with the far-field
  // chain; the two are summed at the accumulate stage.
  Boxed2 boxed;
  std::vector<std::uint32_t> flat_scratch, cursor_scratch;
  std::vector<std::vector<double>> far, local;
  std::vector<double> phi_sorted, phi_near;
  std::vector<Point2> grad_sorted, grad_near;
};

std::shared_ptr<const Plan2> Plan2::build(const Fmm2Config& cfg) {
  auto out = std::make_shared<Plan2>();
  Plan2& plan = *out;
  CircleRule& rule = plan.rule;
  auto& t1 = plan.t1;
  auto& t3 = plan.t3;
  auto& t2 = plan.t2;
  auto& sn_entries = plan.sn_entries;
  auto& sn_matrices = plan.sn_matrices;
  auto& interactive = plan.interactive;
  {
    rule = circle_rule(cfg.k);
    plan.kp = cfg.k + 1;
    const double a_child_out = cfg.radius_ratio;
    const double a_child_in = cfg.radius_ratio;
    const double a_parent_out = 2.0 * cfg.radius_ratio;
    const double a_parent_in = 2.0 * cfg.radius_ratio;
    for (int q = 0; q < 4; ++q) {
      const Point2 child = Quadtree::quadrant_offset(q);
      t1[q] = build_outer_to_points2(cfg, rule, a_child_out, a_parent_out,
                                     {-child.x, -child.y}, true);
      t3[q] = build_inner_to_points2(cfg, rule, a_parent_in, a_child_in,
                                     child);
      interactive[q] = interactive_offsets2(q, cfg.separation);
    }
    t2.resize(offset_square_size(cfg.separation));
    for (const Offset2& o : sibling_union_offsets2(cfg.separation)) {
      t2[offset_square_index(o, cfg.separation)] = build_outer_to_points2(
          cfg, rule, a_child_out, a_child_in,
          {-static_cast<double>(o.dx), -static_cast<double>(o.dy)}, false);
    }
    if (cfg.supernodes) {
      for (int q = 0; q < 4; ++q) {
        sn_entries[q] = supernode_interactive2(q, cfg.separation);
        for (const auto& e : sn_entries[q]) {
          if (e.source_level_up == 0) {
            sn_matrices[q].emplace_back();
            continue;
          }
          const Point2 parent_centre{-Quadtree::quadrant_offset(q).x,
                                     -Quadtree::quadrant_offset(q).y};
          const Point2 src{parent_centre.x + 2.0 * e.offset.dx,
                           parent_centre.y + 2.0 * e.offset.dy};
          sn_matrices[q].push_back(build_outer_to_points2(
              cfg, rule, a_parent_out, a_child_in, {-src.x, -src.y}, false));
        }
      }
    }
  }
  return out;
}

FmmSolver2::FmmSolver2(Fmm2Config config)
    : config_(config), impl_(std::make_unique<Impl>()) {
  config_.validate();
  if (config_.threads) {
    impl_->pool = &ThreadPool::global();
  } else {
    impl_->seq_pool = std::make_unique<ThreadPool>(1);
    impl_->pool = impl_->seq_pool.get();
  }
}

FmmSolver2::~FmmSolver2() = default;

int FmmSolver2::depth_for(std::size_t n) const {
  if (config_.depth >= 0) return config_.depth;
  double occupancy = config_.particles_per_leaf;
  if (occupancy <= 0.0) {
    occupancy = 0.5 * static_cast<double>(config_.k);
    if (config_.supernodes) occupancy *= 0.6;
    occupancy = std::clamp(occupancy, 4.0, 128.0);
  }
  return std::max(2, optimal_depth2(n, occupancy));
}

Fmm2Result FmmSolver2::solve(const ParticleSet2& particles) {
  if (!impl_->plan) impl_->plan = Plan2::get(config_);
  const Plan2& plan = *impl_->plan;
  const std::size_t n = particles.size();
  Fmm2Result result;
  if (n == 0) return result;
  const std::size_t k = config_.k;
  const std::size_t kp = plan.kp;
  const int h = depth_for(n);
  result.depth = h;

  // Bounding square with a little padding.
  double lox = particles.x[0], hix = lox, loy = particles.y[0], hiy = loy;
  for (std::size_t i = 1; i < n; ++i) {
    lox = std::min(lox, particles.x[i]);
    hix = std::max(hix, particles.x[i]);
    loy = std::min(loy, particles.y[i]);
    hiy = std::max(hiy, particles.y[i]);
  }
  const double side = std::max(hix - lox, hiy - loy) * (1.0 + 1e-6) + 1e-12;
  const Point2 centre{0.5 * (lox + hix), 0.5 * (loy + hiy)};
  const Quadtree tree({centre.x - 0.5 * side, centre.y - 0.5 * side}, side, h);

  ThreadPool& pool = *impl_->pool;
  const std::size_t W = pool.size();

  Boxed2& boxed = impl_->boxed;
  const ParticleSet2& p = boxed.sorted;
  // Level storage: augmented (K+1) vectors per box, Q in the last slot.
  // Workspace-resident — assign() keeps capacity, so warm solves at the
  // same depth perform no heap growth here.
  std::vector<std::vector<double>>& far = impl_->far;
  std::vector<std::vector<double>>& local = impl_->local;
  std::vector<double>& phi = impl_->phi_sorted;
  std::vector<Point2>& grad = impl_->grad_sorted;
  std::vector<double>& phi_near = impl_->phi_near;
  std::vector<Point2>& grad_near = impl_->grad_near;

  // The solve as a phase graph: the same five-step pipeline as the 3-D
  // solver, with the near field (priority 1) dependent only on the sort and
  // the output buffers so it overlaps the whole far-field chain in threaded
  // mode, meeting it at the accumulate stage.
  exec::PhaseGraph g;

  const exec::NodeId sort = g.add_serial("sort", "sort", [&](PhaseStats&) {
    sort_particles(particles, tree, boxed, impl_->flat_scratch,
                   impl_->cursor_scratch);
  });

  const exec::NodeId prep_levels =
      g.add_serial("prepare:levels", "workspace", [&](PhaseStats&) {
        if (far.size() < static_cast<std::size_t>(h) + 1) {
          far.resize(h + 1);
          local.resize(h + 1);
        }
        for (int l = 0; l <= h; ++l) {
          far[l].assign(tree.boxes_at(l) * kp, 0.0);
          local[l].assign(tree.boxes_at(l) * kp, 0.0);
        }
      });

  const exec::NodeId prep_out =
      g.add_serial("prepare:outputs", "workspace", [&](PhaseStats&) {
        phi.assign(n, 0.0);
        phi_near.assign(n, 0.0);
        if (config_.with_gradient) {
          grad.assign(n, Point2{});
          grad_near.assign(n, Point2{});
        } else {
          grad.clear();
          grad_near.clear();
        }
        result.phi.assign(n, 0.0);
        if (config_.with_gradient) result.grad.assign(n, Point2{});
      });

  // --- P2M.
  const exec::NodeId p2m = g.add(
      "p2m", "p2m", tree.boxes_at(h), 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        const double a = config_.radius_ratio * tree.side_at(h);
        for (std::size_t f = lo; f < hi; ++f) {
          const std::uint32_t b = boxed.box_begin[f];
          const std::uint32_t e = boxed.box_begin[f + 1];
          if (b == e) continue;
          const Point2 c = tree.center(h, tree.coord_of(h, f));
          double* gv = far[h].data() + f * kp;
          thread_local std::vector<double> spx, spy;
          spx.resize(k);
          spy.resize(k);
          for (std::size_t i = 0; i < k; ++i) {
            spx[i] = c.x + a * plan.rule.points[i].x;
            spy[i] = c.y + a * plan.rule.points[i].y;
          }
          d2::p2m(spx.data(), spy.data(), k, p.x.data() + b,
                  p.y.data() + b, p.q.data() + b, e - b, gv);
          for (std::uint32_t j = b; j < e; ++j) gv[k] += p.q[j];
        }
      });
  g.depend(p2m, sort);
  g.depend(p2m, prep_levels);

  // --- Upward (T1). far_ready[l] completes the level-l interaction field.
  std::vector<exec::NodeId> far_ready(h + 1, p2m);
  for (int l = h - 1; l >= 1; --l) {
    const exec::NodeId up = g.add(
        "upward:L" + std::to_string(l), "upward", tree.boxes_at(l), 0,
        [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
          for (std::size_t f = lo; f < hi; ++f) {
            const BoxCoord2 pc = tree.coord_of(l, f);
            double* dst = far[l].data() + f * kp;
            for (int q = 0; q < 4; ++q) {
              const BoxCoord2 cc = Quadtree::child_of(pc, q);
              blas::gemv(plan.t1[q].data(), kp,
                         far[l + 1].data() + tree.flat_index(l + 1, cc) * kp,
                         dst, kp, kp, true);
            }
          }
        });
    g.depend(up, far_ready[l + 1]);
    far_ready[l] = up;
  }

  // --- Downward (T3 + T2). T3 precedes T2 per level so the accumulation
  // order into local[l] matches the classic drive loop.
  exec::NodeId local_ready = prep_levels;
  for (int l = 2; l <= h; ++l) {
    const std::string ls = std::to_string(l);
    if (l > 2) {
      const exec::NodeId t3 = g.add(
          "downward:L" + ls, "downward", tree.boxes_at(l), 0,
          [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
            for (std::size_t f = lo; f < hi; ++f) {
              const BoxCoord2 c = tree.coord_of(l, f);
              blas::gemv(
                  plan.t3[Quadtree::quadrant_of(c)].data(), kp,
                  local[l - 1].data() +
                      tree.flat_index(l - 1, Quadtree::parent_of(c)) * kp,
                  local[l].data() + f * kp, kp, kp, true);
            }
          });
      g.depend(t3, local_ready);
      local_ready = t3;
    }
    const exec::NodeId t2 = g.add(
        "interactive:L" + ls, "interactive", tree.boxes_at(l), 0,
        [&, l](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
          const std::int32_t nl = tree.boxes_per_side(l);
          const std::int32_t npar = tree.boxes_per_side(l - 1);
          for (std::size_t f = lo; f < hi; ++f) {
            const BoxCoord2 c = tree.coord_of(l, f);
            const int quad = Quadtree::quadrant_of(c);
            double* dst = local[l].data() + f * kp;
            if (!config_.supernodes) {
              for (const Offset2& o : plan.interactive[quad]) {
                const BoxCoord2 s{c.ix + o.dx, c.iy + o.dy};
                if (s.ix < 0 || s.ix >= nl || s.iy < 0 || s.iy >= nl)
                  continue;
                blas::gemv(
                    plan.t2[offset_square_index(o, config_.separation)]
                        .data(),
                    kp, far[l].data() + tree.flat_index(l, s) * kp, dst, kp,
                    kp, true);
              }
            } else {
              const BoxCoord2 pc = Quadtree::parent_of(c);
              const auto& entries = plan.sn_entries[quad];
              for (std::size_t e = 0; e < entries.size(); ++e) {
                if (entries[e].source_level_up == 0) {
                  const BoxCoord2 s{c.ix + entries[e].offset.dx,
                                    c.iy + entries[e].offset.dy};
                  if (s.ix < 0 || s.ix >= nl || s.iy < 0 || s.iy >= nl)
                    continue;
                  blas::gemv(plan.t2[offset_square_index(entries[e].offset,
                                                           config_.separation)]
                                 .data(),
                             kp, far[l].data() + tree.flat_index(l, s) * kp,
                             dst, kp, kp, true);
                } else {
                  const BoxCoord2 s{pc.ix + entries[e].offset.dx,
                                    pc.iy + entries[e].offset.dy};
                  if (s.ix < 0 || s.ix >= npar || s.iy < 0 || s.iy >= npar)
                    continue;
                  blas::gemv(
                      plan.sn_matrices[quad][e].data(), kp,
                      far[l - 1].data() + tree.flat_index(l - 1, s) * kp, dst,
                      kp, kp, true);
                }
              }
            }
          }
        });
    g.depend(t2, far_ready[l]);
    if (config_.supernodes) g.depend(t2, far_ready[l - 1]);
    g.depend(t2, local_ready);
    local_ready = t2;
  }

  // --- L2P (sorted order, into phi/grad).
  const exec::NodeId l2p = g.add(
      "l2p", "l2p", tree.boxes_at(h), 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        const double a = config_.radius_ratio * tree.side_at(h);
        for (std::size_t f = lo; f < hi; ++f) {
          const std::uint32_t b = boxed.box_begin[f];
          const std::uint32_t e = boxed.box_begin[f + 1];
          if (b == e) continue;
          const Point2 c = tree.center(h, tree.coord_of(h, f));
          const std::span<const double> gv{local[h].data() + f * kp, k};
          for (std::uint32_t j = b; j < e; ++j) {
            const Point2 x{p.x[j], p.y[j]};
            phi[j] +=
                evaluate_inner(plan.rule, config_.truncation, a, c, gv, x);
            if (config_.with_gradient) {
              const Point2 gr = evaluate_inner_gradient(
                  plan.rule, config_.truncation, a, c, gv, x);
              grad[j].x += gr.x;
              grad[j].y += gr.y;
            }
          }
        }
      });
  g.depend(l2p, local_ready);
  g.depend(l2p, prep_out);

  // --- Near field into its own buffers: every target box writes only its
  // own particle slice, so any chunking is race-free and deterministic.
  const std::size_t leaf_boxes = tree.boxes_at(h);
  const std::size_t nf_chunks = W == 1 ? 1 : std::min(leaf_boxes, 4 * W);
  const exec::NodeId near = g.add(
      "near", "near", leaf_boxes, nf_chunks,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        const auto offsets = near_offsets2(config_.separation);
        const std::int32_t nl = tree.boxes_per_side(h);
        for (std::size_t f = lo; f < hi; ++f) {
          const std::uint32_t tb = boxed.box_begin[f];
          const std::uint32_t te = boxed.box_begin[f + 1];
          if (tb == te) continue;
          const BoxCoord2 c = tree.coord_of(h, f);
          for (const Offset2& o : offsets) {
            const BoxCoord2 nb{c.ix + o.dx, c.iy + o.dy};
            if (nb.ix < 0 || nb.ix >= nl || nb.iy < 0 || nb.iy >= nl)
              continue;
            const std::size_t sf = tree.flat_index(h, nb);
            const std::uint32_t sb = boxed.box_begin[sf];
            const std::uint32_t se = boxed.box_begin[sf + 1];
            if (sb == se) continue;
            // Point2 is a plain {x, y} pair, so grad rows are exactly the
            // interleaved layout the kernel's gxy output expects.
            d2::p2p(p.x.data(), p.y.data(), p.q.data(), tb, te, sb, se,
                    phi_near.data() + tb,
                    config_.with_gradient
                        ? reinterpret_cast<double*>(grad_near.data() + tb)
                        : nullptr);
          }
        }
      },
      /*priority=*/1);
  g.depend(near, sort);
  g.depend(near, prep_out);

  // --- Accumulate: merge far and near fields, unsort into caller order.
  const exec::NodeId acc = g.add(
      "accumulate", "accumulate", n, 0,
      [&](std::size_t, std::size_t lo, std::size_t hi, PhaseStats&) {
        for (std::size_t i = lo; i < hi; ++i) {
          result.phi[boxed.perm[i]] = phi[i] + phi_near[i];
          if (config_.with_gradient)
            result.grad[boxed.perm[i]] = {grad[i].x + grad_near[i].x,
                                          grad[i].y + grad_near[i].y};
        }
      });
  g.depend(acc, l2p);
  g.depend(acc, near);

  g.run(pool,
        config_.threads ? exec::RunMode::kConcurrent : exec::RunMode::kInline,
        result.breakdown, &result.timeline);
  return result;
}

}  // namespace hfmm::d2
