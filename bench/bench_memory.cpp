// Section 3.3.4 memory reproduction: resident translation-matrix storage
// and per-particle working memory.
//
// Paper: "Storing all 1331 translation matrices in double precision on each
// VU requires 1331 K^2 [x8] bytes, i.e., 1.53 Mbytes for K = 12 and 53.9
// Mbytes for K = 72" — and memory efficiency is a headline claim (100M
// particles fit on a 256-node CM-5E).

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "hfmm/anderson/translations.hpp"
#include "hfmm/core/solver.hpp"
#include "hfmm/quadrature/sphere_rule.hpp"
#include "hfmm/util/particles.hpp"

using namespace hfmm;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bench::check_unused(cli);

  bench::print_header("bench_memory",
                      "Section 3.3.4 — translation-matrix residency (paper: "
                      "1.53 MB at K=12, 53.9 MB at K=72) and per-particle "
                      "memory");

  // The paper's full set next to what a solver keeps resident: one matrix
  // per symmetry orbit of the matrices its executor applies
  // (FmmSolver::precompute()), under the rule's signed axis permutations.
  const auto solver_bytes = [](const anderson::Params& params,
                               core::ExecutionMode mode, bool supernodes) {
    core::FmmConfig cfg;
    cfg.params = params;
    cfg.mode = mode;
    cfg.supernodes = supernodes;
    return core::FmmSolver(cfg).precompute();
  };
  Table t({"K", "symmetries", "T2 matrices", "T2 MB (paper formula)",
           "all matrices MB", "supernode extra MB",
           "stored matrices (supernodes / union)", "solver MB supernodes",
           "solver MB no supernodes", "solver MB DP"});
  for (const int order : {5, 7, 9, 11, 14}) {
    const anderson::Params params = anderson::params_for_order(order);
    const std::size_t k = params.k();
    const anderson::TranslationSet plain(params, 2);
    const double t2_mb = 1331.0 * static_cast<double>(k) * k * 8 / 1e6;
    // Supernode matrices: 98 complete octets per octant (tree_test verifies
    // the count), already included in resident_bytes().
    const double extra_mb = 8.0 * 98.0 * static_cast<double>(k) * k * 8 / 1e6;
    const core::ExecutionMode seq = core::ExecutionMode::kSequential;
    const std::size_t sn = solver_bytes(params, seq, true);
    const std::size_t un = solver_bytes(params, seq, false);
    const std::size_t dp =
        solver_bytes(params, core::ExecutionMode::kDataParallel, true);
    const std::size_t matrix_bytes = k * k * sizeof(double);
    t.row({Table::num(std::uint64_t(k)),
           Table::num(quadrature::symmetries(params.rule).size()),
           Table::num(plain.t2_count()), Table::num(t2_mb, 4),
           Table::num(static_cast<double>(plain.resident_bytes()) / 1e6, 4),
           Table::num(extra_mb, 4),
           std::to_string(sn / matrix_bytes) + " / " +
               std::to_string(un / matrix_bytes),
           Table::num(static_cast<double>(sn) / 1e6, 4),
           Table::num(static_cast<double>(un) / 1e6, 4),
           Table::num(static_cast<double>(dp) / 1e6, 4)});
  }
  t.print(std::cout);

  // Per-particle memory of a solve: the hierarchy of potential vectors
  // plus the boxed particle copy.
  std::printf("\nper-particle working memory (K = 12, auto depth):\n");
  Table t2({"N", "depth", "leaf boxes", "field MB", "particles MB",
            "bytes/particle"});
  for (const std::size_t n : {std::size_t{50000}, std::size_t{400000}}) {
    core::FmmConfig cfg;
    cfg.supernodes = true;
    core::FmmSolver solver(cfg);
    const int h = solver.depth_for(n);
    const std::size_t k = cfg.params.k();
    std::size_t field_doubles = 0;
    for (int l = 0; l <= h; ++l)
      field_doubles += 2 * (std::size_t{1} << (3 * l)) * k;  // far + local
    const double field_mb = static_cast<double>(field_doubles) * 8 / 1e6;
    const double part_mb = static_cast<double>(n) * 4 * 8 * 2 / 1e6;
    t2.row({Table::num(std::uint64_t(n)), Table::num(std::uint64_t(h)),
            Table::num(std::uint64_t(1) << (3 * h)), Table::num(field_mb, 4),
            Table::num(part_mb, 4),
            Table::num((field_mb + part_mb) * 1e6 / static_cast<double>(n),
                       4)});
  }
  t2.print(std::cout);
  std::printf(
      "\npaper shape to verify: K=12 T2 storage is ~1.5 MB (matches the\n"
      "paper exactly — same formula), K=72 ~55 MB; per-particle memory is a\n"
      "few hundred bytes, consistent with 100M particles on a 256-node\n"
      "machine with 32 MB per VU. A solver applies 1018 matrices with\n"
      "supernodes and 1222 without them or in DP mode, and keeps one per\n"
      "symmetry orbit: 158 / 205 K^2 doubles at K = 72 (8 symmetries) and\n"
      "49 / 67 at K = 12 (24), against the paper's 1331 K^2.\n");
  return 0;
}
