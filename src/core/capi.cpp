// C-linkage facade (hfmm_c.h): opaque handles over the SolverService,
// exceptions mapped to status codes at the boundary. This is the only
// translation unit that needs to see both the C structs and the C++
// service types.

#include "hfmm/hfmm_c.h"

#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "hfmm/anderson/params.hpp"
#include "hfmm/service/service.hpp"

struct hfmm_context {
  hfmm::service::SolverService service;
};

struct hfmm_plan {
  hfmm::core::FmmConfig config;
};

namespace {

using hfmm::core::FmmConfig;
using hfmm::core::KernelType;

hfmm_status translate_config(const hfmm_config& in, FmmConfig& out) {
  if (in.struct_size != sizeof(hfmm_config))
    return HFMM_ERROR_INVALID_ARGUMENT;
  switch (in.order) {
    case 5: out.params = hfmm::anderson::params_d5_k12(); break;
    case 14: out.params = hfmm::anderson::params_d14_k72(); break;
    default: return HFMM_ERROR_UNSUPPORTED;  // other orders have no rule
  }
  if (in.depth != -1 && in.depth < 2) return HFMM_ERROR_INVALID_ARGUMENT;
  out.depth = in.depth;
  out.with_gradient = in.with_gradient != 0;
  out.supernodes = in.supernodes != 0;
  // The service forces sequential execution on admission anyway; setting
  // it here keeps the client-pool signature canonical.
  out.mode = hfmm::core::ExecutionMode::kSequential;
  switch (in.kernel) {
    case HFMM_KERNEL_LAPLACE:
      out.kernel.type = KernelType::kLaplace3d;
      out.kernel.softening = in.softening;
      break;
    case HFMM_KERNEL_VDW: {
      if (in.vdw_ntypes == 0 || in.vdw_rmin == nullptr ||
          in.vdw_epsilon == nullptr)
        return HFMM_ERROR_INVALID_ARGUMENT;
      out.kernel.type = KernelType::kVanDerWaals;
      out.kernel.vdw_rmin.assign(in.vdw_rmin, in.vdw_rmin + in.vdw_ntypes);
      out.kernel.vdw_epsilon.assign(in.vdw_epsilon,
                                    in.vdw_epsilon + in.vdw_ntypes);
      out.kernel.vdw_cuton = in.vdw_cuton;
      out.kernel.vdw_cutoff = in.vdw_cutoff;
      out.kernel.vdw_periodic = in.vdw_periodic != 0;
      // A zeroed (degenerate) box means "not provided": keep the library's
      // default unit domain, matching hfmm_config_init's zero fill.
      if (in.vdw_box_lo[0] != in.vdw_box_hi[0] ||
          in.vdw_box_lo[1] != in.vdw_box_hi[1] ||
          in.vdw_box_lo[2] != in.vdw_box_hi[2])
        out.kernel.vdw_box =
            hfmm::Box3{{in.vdw_box_lo[0], in.vdw_box_lo[1], in.vdw_box_lo[2]},
                       {in.vdw_box_hi[0], in.vdw_box_hi[1], in.vdw_box_hi[2]}};
      break;
    }
    default:
      return HFMM_ERROR_INVALID_ARGUMENT;
  }
  return HFMM_OK;
}

hfmm_status validate_request(const hfmm_request& req) {
  if (req.plan == nullptr) return HFMM_ERROR_INVALID_ARGUMENT;
  if (req.n == 0) return HFMM_OK;
  // Particle indices are uint32 inside the solver (see hfmm_request).
  if (req.n > UINT32_MAX) return HFMM_ERROR_INVALID_ARGUMENT;
  if (req.x == nullptr || req.y == nullptr || req.z == nullptr ||
      req.q == nullptr || req.phi == nullptr)
    return HFMM_ERROR_INVALID_ARGUMENT;
  const bool grad = req.plan->config.with_gradient;
  const bool has_grad =
      req.gx != nullptr && req.gy != nullptr && req.gz != nullptr;
  if (grad != has_grad) return HFMM_ERROR_INVALID_ARGUMENT;
  return HFMM_OK;
}

hfmm::ParticleSet make_particles(const hfmm_request& req) {
  hfmm::ParticleSet p;
  p.resize(req.n);
  for (std::size_t i = 0; i < req.n; ++i)
    p.set(i, {req.x[i], req.y[i], req.z[i]}, req.q[i]);
  if (req.type != nullptr) {
    p.ensure_types();
    for (std::size_t i = 0; i < req.n; ++i) p.set_type(i, req.type[i]);
  }
  return p;
}

void scatter_outputs(const hfmm::service::SolveOutcome& outcome,
                     const hfmm_request& req, hfmm_solve_info* info) {
  const hfmm::core::FmmResult& r = outcome.result;
  if (req.n > 0) {
    std::memcpy(req.phi, r.phi.data(), req.n * sizeof(double));
    if (req.plan->config.with_gradient) {
      for (std::size_t i = 0; i < req.n; ++i) {
        req.gx[i] = r.grad[i].x;
        req.gy[i] = r.grad[i].y;
        req.gz[i] = r.grad[i].z;
      }
    }
  }
  if (info != nullptr) {
    info->depth = r.depth;
    info->plan_reused = r.plan_reused ? 1 : 0;
    info->workspace_allocs = r.workspace_allocs;
    info->seconds = r.breakdown.total_seconds();
    info->queue_seconds = outcome.queue_seconds;
  }
}

// Runs `body` with every exception mapped to a status code — nothing
// C++-shaped may cross the C boundary.
template <typename Body>
hfmm_status guarded(Body&& body) {
  try {
    return body();
  } catch (const std::bad_alloc&) {
    return HFMM_ERROR_OUT_OF_MEMORY;
  } catch (const std::invalid_argument&) {
    return HFMM_ERROR_INVALID_ARGUMENT;
  } catch (...) {
    return HFMM_ERROR_INTERNAL;
  }
}

}  // namespace

extern "C" {

void hfmm_config_init(hfmm_config* config) {
  if (config == nullptr) return;
  std::memset(config, 0, sizeof(hfmm_config));
  config->struct_size = sizeof(hfmm_config);
  config->order = 5;
  config->kernel = HFMM_KERNEL_LAPLACE;
  config->depth = -1;
}

hfmm_status hfmm_context_create(hfmm_context** out) {
  if (out == nullptr) return HFMM_ERROR_INVALID_ARGUMENT;
  return guarded([&] {
    *out = new hfmm_context;
    return HFMM_OK;
  });
}

void hfmm_context_destroy(hfmm_context* context) { delete context; }

hfmm_status hfmm_plan_create(hfmm_context* context, const hfmm_config* config,
                             size_t n_hint, hfmm_plan** out) {
  if (context == nullptr || config == nullptr || out == nullptr)
    return HFMM_ERROR_INVALID_ARGUMENT;
  return guarded([&]() -> hfmm_status {
    auto plan = std::make_unique<hfmm_plan>();
    const hfmm_status st = translate_config(*config, plan->config);
    if (st != HFMM_OK) return st;
    plan->config.validate();  // throws invalid_argument on a bad config
    // Warm the shared cache with the solve plan at the depth the hint
    // selects, so the first solve of that size finds it.
    if (n_hint > 0)
      context->service.plan_cache()->plan(
          plan->config, hfmm::core::depth_for(plan->config, n_hint));
    *out = plan.release();
    return HFMM_OK;
  });
}

void hfmm_plan_destroy(hfmm_plan* plan) { delete plan; }

hfmm_status hfmm_solve(hfmm_context* context, const hfmm_request* request,
                       hfmm_solve_info* info) {
  return hfmm_solve_batch(context, request, 1, info);
}

hfmm_status hfmm_solve_batch(hfmm_context* context,
                             const hfmm_request* requests, size_t count,
                             hfmm_solve_info* infos) {
  if (context == nullptr || (requests == nullptr && count > 0))
    return HFMM_ERROR_INVALID_ARGUMENT;
  for (size_t i = 0; i < count; ++i) {
    const hfmm_status st = validate_request(requests[i]);
    if (st != HFMM_OK) return st;
    if (infos != nullptr && infos[i].struct_size != sizeof(hfmm_solve_info))
      return HFMM_ERROR_INVALID_ARGUMENT;
  }
  if (count == 0) return HFMM_OK;
  return guarded([&] {
    std::vector<hfmm::ParticleSet> particles;
    particles.reserve(count);
    std::vector<hfmm::service::SolveRequest> batch(count);
    for (size_t i = 0; i < count; ++i) {
      particles.push_back(make_particles(requests[i]));
      batch[i].config = requests[i].plan->config;
      batch[i].particles = &particles[i];
    }
    const std::vector<hfmm::service::SolveOutcome> outcomes =
        context->service.solve_batch(batch);
    for (size_t i = 0; i < count; ++i)
      scatter_outputs(outcomes[i], requests[i],
                      infos != nullptr ? &infos[i] : nullptr);
    return HFMM_OK;
  });
}

hfmm_status hfmm_context_stats_query(hfmm_context* context,
                                     hfmm_context_stats* out) {
  if (context == nullptr || out == nullptr ||
      out->struct_size != sizeof(hfmm_context_stats))
    return HFMM_ERROR_INVALID_ARGUMENT;
  return guarded([&] {
    const hfmm::service::ServiceStats s = context->service.stats();
    out->solves = s.solves;
    out->batches = s.batches;
    out->plan_hits = s.plan_cache.plan_hits;
    out->plan_misses = s.plan_cache.plan_misses;
    out->clients_created = s.clients_created;
    out->clients_reused = s.clients_reused;
    return HFMM_OK;
  });
}

const char* hfmm_status_string(hfmm_status status) {
  switch (status) {
    case HFMM_OK: return "ok";
    case HFMM_ERROR_INVALID_ARGUMENT: return "invalid argument";
    case HFMM_ERROR_UNSUPPORTED: return "unsupported";
    case HFMM_ERROR_OUT_OF_MEMORY: return "out of memory";
    case HFMM_ERROR_INTERNAL: return "internal error";
  }
  return "unknown status";
}

const char* hfmm_version(void) { return "3.0.0"; }

int hfmm_abi_version(void) { return HFMM_ABI_VERSION; }

}  // extern "C"
