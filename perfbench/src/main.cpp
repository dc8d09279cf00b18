// hfmm benchmark: runs one workload for a fixed time and prints its metrics.
//
//   hfmm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--smoke] [--sha=REV] [--trace-file=PATH]
//
// The untraced run (--trace=0) prints the end-to-end metrics; the traced
// run (--trace=1) prints the per-layer metrics and writes the spans it
// recorded to --trace-file as Chrome trace-event JSON. The last line of
// standard output is the result object; the line before it is the run
// record (revision, cores, backends, sample counts, gate details). Exits 1
// when any operation failed the correctness gate, 2 on bad usage.

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common.hpp"
#include "hfmm/blas/kernels.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/util/cli.hpp"
#include "hfmm/util/thread_pool.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::json_number;
using perfbench::json_string;

// Every HFMM_* variable silently changes the measured program (hierarchy,
// kernels, backends, stepping, cache bounds), so none may be set.
bool environment_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HFMM_", 5) == 0) {
      std::fprintf(stderr, "hfmm_perfbench: refusing to run with %s set\n",
                   *e);
      clean = false;
    }
  }
  return clean;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  if (!environment_clean()) return 2;

  perfbench::Options opt;
  std::string sha, trace_file;
  try {
    const hfmm::Cli cli(argc, argv);
    opt.workload = cli.get("workload", std::string());
    opt.seed = static_cast<std::uint64_t>(cli.get("seed", std::int64_t{0}));
    opt.seconds = cli.get("seconds", 10.0);
    opt.trace = cli.get("trace", std::int64_t{0}) != 0;
    opt.smoke = cli.flag("smoke");
    sha = cli.get("sha", std::string("unknown"));
    trace_file = cli.get("trace-file", std::string());
    for (const std::string& u : cli.unused()) {
      std::fprintf(stderr, "hfmm_perfbench: unknown option --%s\n", u.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hfmm_perfbench: %s\n", e.what());
    return 2;
  }
  if (!(opt.seconds > 0.0) || (opt.trace && trace_file.empty())) {
    std::fprintf(stderr,
                 "hfmm_perfbench: need --seconds > 0, and --trace-file with "
                 "--trace=1\n");
    return 2;
  }

  perfbench::Tracer tracer(opt.trace);
  perfbench::Report rep;
  try {
    auto root = tracer.span("workload:" + opt.workload);
    rep = perfbench::run_workload(opt, tracer);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hfmm_perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hfmm_perfbench: run failed: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    if (!tracer.write(trace_file, opt.workload)) {
      std::fprintf(stderr, "hfmm_perfbench: cannot write %s\n",
                   trace_file.c_str());
      return 1;
    }
    rep.record.emplace_back("trace_file", json_string(trace_file));
    rep.record.emplace_back("trace_spans", std::to_string(tracer.size()));
  }

  std::string record =
      "{\"run_record\": {\"sha\": " + json_string(sha) +
      ", \"nproc\": " + std::to_string(online_cpus()) +
      ", \"pool_workers\": " + std::to_string(hfmm::ThreadPool::global().size()) +
      ", \"pkern_backend\": " + json_string(hfmm::pkern::active_kernel().name) +
      ", \"blas_backend\": " + json_string(hfmm::blas::active_kernel().name) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"workload\": " + json_string(opt.workload) +
      ", \"seed\": " + std::to_string(opt.seed) +
      ", \"seconds\": " + json_number(opt.seconds) +
      ", \"trace\": " + (opt.trace ? "true" : "false") +
      ", \"smoke\": " + (opt.smoke ? "true" : "false");
  for (const auto& [key, value] : rep.record)
    record += ", " + json_string(key) + ": " + value;
  std::printf("%s}}\n", record.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : rep.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = rep.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return correct ? 0 : 1;
}
