#pragma once
// KernelModel: the physics a solve evaluates, split from the orchestration
// that schedules it (DESIGN.md Section 16).
//
// The engine recognises two capability tiers:
//   - FAR-FIELD CAPABLE kernels admit the Anderson outer/inner sphere
//     approximations, so the full pipeline runs: P2M, upward/downward
//     translations, L2P, plus the U-list near field. Laplace 3-D (1/r with
//     optional Plummer softening) is the only member today.
//   - SHORT-RANGE kernels decay fast enough that everything beyond the
//     d-separation U-list is negligible by construction. They reuse the
//     tree build, the coordinate sort, the near-field plans and the phase
//     graph, while the far-field stages are kept in the DAG as empty nodes
//     (zero boxes, zero pairs) so timelines and breakdowns stay
//     shape-compatible across kernels.
// Van der Waals (switched Lennard-Jones, CHARMM convention) is the first
// short-range kernel: per-atom-type Rmin/epsilon tables with combining
// rules, a cuton/cutoff switching window, and an optional minimum-image
// wrap for a periodic cubic box. A KernelSpec is plain data: its defaults
// are constants, and the caller picks the kernel by setting `type`.

#include <cstddef>
#include <vector>

#include "hfmm/util/particles.hpp"

namespace hfmm::core {

enum class KernelType {
  kLaplace3d,    ///< 1/sqrt(r^2 + soft^2) — far-field capable
  kVanDerWaals,  ///< switched Lennard-Jones — short-range
};

const char* to_string(KernelType t);

/// The physics of one solve. The defaults are a gravity (Laplace) solve; the
/// vdW fields take effect only when `type` is kVanDerWaals (the single-type
/// Rmin = 0.02, eps = 1 table below applies when the caller does not provide
/// one; particles without a type array are type 0).
struct KernelSpec {
  KernelType type = KernelType::kLaplace3d;

  /// Plummer softening of the Laplace near field. Laplace only; must be
  /// finite.
  double softening = 0.0;

  /// Van der Waals dials (CHARMM convention): per-atom-type minimum-energy
  /// radii Rmin_i and well depths eps_i, combined per pair as
  /// Rmin_ij = (Rmin_i + Rmin_j)/2 and eps_ij = sqrt(eps_i eps_j). The
  /// energy switches smoothly to zero over vdw_cuton < r < vdw_cutoff.
  std::vector<double> vdw_rmin{0.02};
  std::vector<double> vdw_epsilon{1.0};
  double vdw_cuton = 0.04;
  double vdw_cutoff = 0.06;

  /// Minimum-image wrap across a periodic cubic box. The period is
  /// vdw_box.max_side(); validate() requires the box to be a cube.
  bool vdw_periodic = false;

  /// Simulation box of a vdW solve. Unlike Laplace (whose root cube is
  /// derived from the particle bounds each solve), vdW pins the hierarchy
  /// root to the cube containing this box, so the leaf side — and with it
  /// the cutoff-coverage guarantee below — is a property of the spec, not
  /// of the positions. Particles must lie inside it.
  Box3 vdw_box{};

  /// Far-field capable kernels run the full Anderson chain; the rest run
  /// tree + near field only.
  bool far_field_capable() const { return type == KernelType::kLaplace3d; }

  /// Number of atom types in the vdW tables.
  std::size_t vdw_types() const { return vdw_rmin.size(); }

  /// Deepest hierarchy a short-range solve may run at: the U-list reaches
  /// d = 2 leaf boxes per axis, so it covers every pair within the cutoff
  /// while the leaf side stays >= cutoff / 2, i.e. up to depth
  /// floor(log2(2 * side / cutoff)), and never past tree::kMaxDepth. The
  /// automatic depth stops there, and FmmConfig::validate() rejects an
  /// explicit depth beyond it. Short-range kernels only.
  int max_depth() const;

  /// Throws std::invalid_argument on inconsistent parameters: a non-finite
  /// Laplace softening (it would turn every potential NaN). For vdW the
  /// cutoff must not exceed side/4 of the box: the U-list spans d = 2 leaf
  /// boxes per axis, so every pair within the cutoff is covered as long as
  /// the leaf side stays >= cutoff/2, which side/4 guarantees down to depth
  /// 3. Periodic solves additionally run at depth >= 3 (8 boxes per side),
  /// so the +/-2 wrapped neighbour offsets stay distinct modulo the grid
  /// and no box pair is evaluated both directly and through the wrap.
  void validate() const;
};

}  // namespace hfmm::core
