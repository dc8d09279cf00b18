/* Pure-C client of the solver service (include/hfmm/hfmm_c.h).
 *
 * Demonstrates the full facade lifecycle with nothing but a C compiler:
 * create a context (the shared plan cache + client pool), admit one
 * workload as a plan, run a batch of independent solves over different
 * particle sets, then re-solve warm and read the context counters back.
 * Exits non-zero if any call fails or the warm-path guarantees (cached
 * plan, zero workspace growth) do not hold, so it doubles as a ctest
 * entry.
 */

#include <math.h>
#include <stdio.h>
#include <stdlib.h>

#include "hfmm/hfmm_c.h"

#define N 2000
#define BATCH 3

/* Deterministic uniform positions in the unit box (splitmix64). */
static uint64_t mix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

static double uniform01(uint64_t* state) {
  return (double)(mix64(state) >> 11) * (1.0 / 9007199254740992.0);
}

static int check(hfmm_status status, const char* what) {
  if (status == HFMM_OK) return 0;
  fprintf(stderr, "service_client: %s failed: %s\n", what,
          hfmm_status_string(status));
  return 1;
}

int main(void) {
  printf("hfmm %s (ABI %d)\n", hfmm_version(), hfmm_abi_version());

  hfmm_context* ctx = NULL;
  if (check(hfmm_context_create(&ctx), "context create")) return 1;

  /* One workload: order-5 Laplace with gradients, automatic everything.
   * The plan is built into the context's cache here, so every solve below
   * finds it. */
  hfmm_config cfg;
  hfmm_config_init(&cfg);
  cfg.with_gradient = 1;
  hfmm_plan* plan = NULL;
  if (check(hfmm_plan_create(ctx, &cfg, N, &plan), "plan create")) return 1;

  /* BATCH independent particle sets, solved as one interleaved batch. */
  static double x[BATCH][N], y[BATCH][N], z[BATCH][N], q[BATCH][N];
  static double phi[BATCH][N], gx[BATCH][N], gy[BATCH][N], gz[BATCH][N];
  hfmm_request reqs[BATCH];
  hfmm_solve_info infos[BATCH];
  for (int b = 0; b < BATCH; ++b) {
    uint64_t seed = 1234u + 99u * (uint64_t)b;
    for (int i = 0; i < N; ++i) {
      x[b][i] = uniform01(&seed);
      y[b][i] = uniform01(&seed);
      z[b][i] = uniform01(&seed);
      q[b][i] = (i % 2 == 0) ? 1.0 : -1.0;
    }
    hfmm_request r = {0};
    r.plan = plan;
    r.n = N;
    r.x = x[b];
    r.y = y[b];
    r.z = z[b];
    r.q = q[b];
    r.phi = phi[b];
    r.gx = gx[b];
    r.gy = gy[b];
    r.gz = gz[b];
    reqs[b] = r;
    hfmm_solve_info info = {0};
    info.struct_size = sizeof(info);
    infos[b] = info;
  }
  if (check(hfmm_solve_batch(ctx, reqs, BATCH, infos), "batch solve"))
    return 1;

  int failures = 0;
  for (int b = 0; b < BATCH; ++b) {
    /* The plan was cached at creation: even first solves are warm. */
    if (!infos[b].plan_reused) {
      fprintf(stderr, "service_client: request %d rebuilt its plan\n", b);
      ++failures;
    }
    double sum = 0.0;
    for (int i = 0; i < N; ++i) sum += phi[b][i];
    if (!isfinite(sum)) {
      fprintf(stderr, "service_client: request %d non-finite potential\n", b);
      ++failures;
    }
    printf("request %d: depth %d, %.3f ms, queued %.3f ms, sum(phi) = %.6f\n",
           b, infos[b].depth, infos[b].seconds * 1e3,
           infos[b].queue_seconds * 1e3, sum);
  }

  /* Warm re-solve of the first set: zero workspace growth, same plan. */
  hfmm_solve_info warm = {0};
  warm.struct_size = sizeof(warm);
  if (check(hfmm_solve(ctx, &reqs[0], &warm), "warm solve")) return 1;
  if (!warm.plan_reused || warm.workspace_allocs != 0) {
    fprintf(stderr,
            "service_client: warm solve not warm (plan_reused=%d allocs=%llu)\n",
            warm.plan_reused, (unsigned long long)warm.workspace_allocs);
    ++failures;
  }

  hfmm_context_stats stats = {0};
  stats.struct_size = sizeof(stats);
  if (check(hfmm_context_stats_query(ctx, &stats), "stats query")) return 1;
  printf(
      "context: %llu solves in %llu batches; plan cache %llu hits / %llu "
      "misses; clients %llu created / %llu reused\n",
      (unsigned long long)stats.solves, (unsigned long long)stats.batches,
      (unsigned long long)stats.plan_hits,
      (unsigned long long)stats.plan_misses,
      (unsigned long long)stats.clients_created,
      (unsigned long long)stats.clients_reused);

  hfmm_plan_destroy(plan);
  hfmm_context_destroy(ctx);
  if (failures == 0) printf("service_client: OK\n");
  return failures == 0 ? 0 : 1;
}
