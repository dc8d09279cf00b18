#ifndef HFMM_HFMM_C_H
#define HFMM_HFMM_C_H
/*
 * hfmm — stable C-linkage facade over the O(N) hierarchical N-body solver
 * (DESIGN.md Section 17). Everything behind this header is opaque: clients
 * link against the hfmm static library with nothing but a C compiler.
 *
 * Object model:
 *   hfmm_context  — one solver service: the shared plan cache plus the
 *                   pooled client solvers. Thread-compatible: distinct
 *                   contexts may be used from distinct threads freely;
 *                   calls on ONE context must be externally serialized.
 *   hfmm_plan     — one workload configuration admitted to a context, its
 *                   solve plan built into the context's plan cache.
 *                   Create once, solve many times.
 *
 * Errors are status codes (no exceptions cross this boundary); every
 * out-parameter is untouched on failure. Structs carrying fields start
 * with struct_size for ABI versioning: set it to sizeof(the struct) after
 * zero- or init-filling, so future minor releases can grow the structs
 * without breaking old callers.
 *
 * Minimal use (see examples/service_client.c):
 *   hfmm_context* ctx;
 *   hfmm_context_create(&ctx);
 *   hfmm_config cfg;
 *   hfmm_config_init(&cfg);
 *   hfmm_plan* plan;
 *   hfmm_plan_create(ctx, &cfg, n, &plan);
 *   hfmm_request req = {0};
 *   req.plan = plan; req.n = n;
 *   req.x = x; req.y = y; req.z = z; req.q = q; req.phi = phi;
 *   hfmm_solve(ctx, &req, NULL);
 *   hfmm_plan_destroy(plan);
 *   hfmm_context_destroy(ctx);
 */

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Bumped when the binary interface changes incompatibly. */
#define HFMM_ABI_VERSION 3

typedef enum hfmm_status {
  HFMM_OK = 0,
  HFMM_ERROR_INVALID_ARGUMENT = 1, /* bad config/request field            */
  HFMM_ERROR_UNSUPPORTED = 2,      /* valid but not admissible (e.g. order) */
  HFMM_ERROR_OUT_OF_MEMORY = 3,
  HFMM_ERROR_INTERNAL = 4,
} hfmm_status;

typedef enum hfmm_kernel {
  HFMM_KERNEL_LAPLACE = 0, /* 1/r potential, full far-field chain */
  HFMM_KERNEL_VDW = 1,     /* Lennard-Jones 6-12, near field only */
} hfmm_kernel;

typedef struct hfmm_context hfmm_context;
typedef struct hfmm_plan hfmm_plan;

/* Workload configuration. hfmm_config_init() fills the defaults (order 5,
 * Laplace, automatic depth, no gradient); override fields after. The
 * vdw_* block is read only when kernel == HFMM_KERNEL_VDW. An explicit vdW
 * depth must keep the leaf side at least half the cutoff
 * (depth <= floor(log2(2 * box side / vdw_cutoff))); a deeper one would
 * drop pairs and is rejected as HFMM_ERROR_INVALID_ARGUMENT. */
typedef struct hfmm_config {
  size_t struct_size; /* = sizeof(hfmm_config), set by hfmm_config_init */
  int order;          /* quadrature order: 5 (K = 12) or 14 (K = 72)    */
  int kernel;         /* hfmm_kernel                                     */
  int depth;          /* explicit depth in [2, 10], or -1 = automatic    */
  int with_gradient;  /* nonzero: also compute the field gradient        */
  int supernodes;     /* nonzero: Section 2.3 supernode aggregation      */
  double softening;   /* Laplace Plummer softening (finite, 0 = none)    */
  /* van der Waals: per-type Lennard-Jones parameters (arrays of length
   * vdw_ntypes, borrowed for the duration of hfmm_plan_create), the
   * switching window, and the periodic domain box. A degenerate box
   * (lo == hi, e.g. left zeroed) selects the default unit domain. */
  size_t vdw_ntypes;
  const double* vdw_rmin;
  const double* vdw_epsilon;
  double vdw_cuton;
  double vdw_cutoff;
  int vdw_periodic;
  double vdw_box_lo[3];
  double vdw_box_hi[3];
} hfmm_config;

/* One solve: n particles in borrowed arrays (never retained past the
 * call), outputs written to the caller's buffers in the ORIGINAL particle
 * order. type may be NULL (all particles type 0); gx/gy/gz must be
 * non-NULL exactly when the plan's config set with_gradient. n must not
 * exceed 2^32 - 1 (UINT32_MAX), every x, y, z must be finite and within
 * [-2^500, 2^500] (about +-3.27e150) and every q finite; otherwise the
 * solve returns HFMM_ERROR_INVALID_ARGUMENT (a too-large n before any
 * array is read). */
typedef struct hfmm_request {
  const hfmm_plan* plan;
  size_t n;
  const double* x;
  const double* y;
  const double* z;
  const double* q;       /* charges (Laplace); ignored magnitude for vdW */
  const int32_t* type;   /* per-particle type in [0, vdw_ntypes), or NULL */
  double* phi;           /* out: potential per particle [n]               */
  double* gx;            /* out: gradient components [n], or NULL         */
  double* gy;
  double* gz;
} hfmm_request;

/* Per-solve report. Zero-init and set struct_size before passing. */
typedef struct hfmm_solve_info {
  size_t struct_size;
  int depth;                /* hierarchy depth used                       */
  int plan_reused;          /* nonzero: no plan construction this solve   */
  uint64_t workspace_allocs; /* heap-growth events (0 on a warm solve)    */
  double seconds;           /* solve wall time                            */
  double queue_seconds;     /* batch admission wait before the solve ran  */
} hfmm_solve_info;

/* Cumulative context counters. Zero-init and set struct_size. */
typedef struct hfmm_context_stats {
  size_t struct_size;
  uint64_t solves;
  uint64_t batches;
  uint64_t plan_hits;
  uint64_t plan_misses;
  uint64_t clients_created;
  uint64_t clients_reused;
} hfmm_context_stats;

/* Fills `config` with the defaults and sets struct_size. */
void hfmm_config_init(hfmm_config* config);

hfmm_status hfmm_context_create(hfmm_context** out);
void hfmm_context_destroy(hfmm_context* context);

/* Admits `config` to the context and builds the solve plan for ~n_hint
 * particles into the context's plan cache (0 skips the warm-up). Plans
 * with equal configuration share cache entries, so creating N plans of
 * one workload costs one build; the context keeps every plan it builds
 * until it is destroyed. */
hfmm_status hfmm_plan_create(hfmm_context* context, const hfmm_config* config,
                             size_t n_hint, hfmm_plan** out);
void hfmm_plan_destroy(hfmm_plan* plan);

/* Solves one request. `info` (optional) receives the solve report. */
hfmm_status hfmm_solve(hfmm_context* context, const hfmm_request* request,
                       hfmm_solve_info* info);

/* Admits `count` independent requests as one interleaved batch on the
 * scheduler (results identical to solving each alone). `infos` (optional)
 * must have room for `count` reports. */
hfmm_status hfmm_solve_batch(hfmm_context* context,
                             const hfmm_request* requests, size_t count,
                             hfmm_solve_info* infos);

hfmm_status hfmm_context_stats_query(hfmm_context* context,
                                     hfmm_context_stats* out);

/* Static string for a status code (never NULL). */
const char* hfmm_status_string(hfmm_status status);
/* Library version "major.minor.patch" and the ABI revision. */
const char* hfmm_version(void);
int hfmm_abi_version(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* HFMM_HFMM_C_H */
