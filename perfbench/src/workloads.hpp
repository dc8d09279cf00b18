#pragma once
// The benchmark's workloads (closed loops over hfmm's public API), the
// correctness gate that checks their outputs against direct summation, and
// the per-layer probes of the traced run.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "hfmm/core/config.hpp"
#include "hfmm/pkern/kernels.hpp"
#include "hfmm/util/particles.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;  ///< traced run: per-layer metrics instead of end-to-end
  bool smoke = false;  ///< small N, for the self-test
};

/// What one run reports: operations attempted and failed by the correctness
/// gate, the run's metrics, and run-record fields as JSON values.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;
};

/// Runs `opt.workload`; throws std::invalid_argument for an unknown name.
Report run_workload(const Options& opt, Tracer& tracer);

/// One solve of a workload as the per-layer probes replay it: its
/// configuration (execution mode as the workload runs it), its particles,
/// and whether the workload reads results through a SolveView.
struct Case {
  std::string label;      ///< "<configuration>#<tenant>"
  std::string config_id;  ///< requests sharing it share a plan
  hfmm::core::FmmConfig config;
  const hfmm::ParticleSet* particles = nullptr;
  bool streamed = false;
};

/// Per-layer metrics of the traced run over a workload's solves.
/// `vdw_case` supplies the van der Waals blocks of the pkern.p2p_vdw probe;
/// `batch_graph` selects the exec probe's graph shape: the service's batch
/// graph (one serial stage per case, no edges) instead of the first case's
/// solve graph.
std::vector<Metric> probe_layers(const std::vector<Case>& cases,
                                 const Case& vdw_case, bool batch_graph,
                                 Tracer& tracer);

/// Service-layer metrics: `cases` admitted as repeated solve_batch calls on
/// a fresh SolverService, against solo sequential solves of each case.
std::vector<Metric> probe_service(const std::vector<Case>& cases,
                                  Tracer& tracer);

/// The ntypes x ntypes pair tables of a van der Waals KernelSpec (CHARMM
/// combining rules) packaged as pkern::VdwParams. Holds pointers into its
/// own vectors, so it is neither copied nor moved.
struct VdwTable {
  explicit VdwTable(const hfmm::core::KernelSpec& spec);
  VdwTable(const VdwTable&) = delete;
  VdwTable& operator=(const VdwTable&) = delete;

  std::vector<double> rmin2, eps;
  hfmm::pkern::VdwParams params{};
};

}  // namespace perfbench
