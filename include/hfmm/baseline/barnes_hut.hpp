#pragma once
// Barnes-Hut treecode with monopole + traceless-quadrupole moments and the
// standard theta multipole-acceptance criterion.
//
// This is the O(N log N) comparison family of the paper's Table 1 (Salmon &
// Warren, Liu & Bhatt all ran BH with quadrupole moments); bench_table1
// races it against Anderson's method and direct summation.

#include <cstdint>
#include <vector>

#include "hfmm/util/particles.hpp"
#include "hfmm/util/thread_pool.hpp"

namespace hfmm::baseline {

struct BhConfig {
  double theta = 0.5;     ///< opening angle: open node if size/dist > theta
  int leaf_size = 16;     ///< max particles per leaf
  bool quadrupole = true; ///< include quadrupole moments
};

struct BhResult {
  std::vector<double> phi;
  std::vector<Vec3> grad;
  std::uint64_t flops = 0;
  std::uint64_t p2p_interactions = 0;   ///< particle-particle pairs evaluated
  std::uint64_t cell_interactions = 0;  ///< particle-cell evaluations
};

class BarnesHut {
 public:
  BarnesHut(const ParticleSet& particles, const BhConfig& config);

  /// Potential (and gradient if requested) at every particle position.
  BhResult evaluate_all(bool with_gradient,
                        ThreadPool* pool = &ThreadPool::global()) const;

  /// Potential at an arbitrary point (includes all particles).
  double potential_at(const Vec3& x) const;

  int max_depth_reached() const { return max_depth_; }

 private:
  struct Node {
    Vec3 center;          // geometric centre of the cell
    double half = 0.0;    // half side length
    Vec3 com;             // expansion centre (charge centroid when defined)
    double mass = 0.0;    // total charge
    Vec3 dipole;          // dipole about com (nonzero for neutral cells)
    double quad[6] = {};  // traceless quadrupole: xx, yy, zz, xy, xz, yz
    std::int32_t first_child = -1;  // index of first of 8 children, or -1
    std::uint32_t begin = 0, end = 0;  // particle slice (leaf and internal)
  };

  void build(std::size_t node, int depth);
  void accumulate_moments(std::size_t node);
  void evaluate_point(const Vec3& x, std::uint32_t self_index, double& phi,
                      Vec3* grad, std::uint64_t& p2p, std::uint64_t& pc) const;

  BhConfig config_;
  ParticleSet sorted_;                  // particles permuted into tree order
  std::vector<std::uint32_t> original_; // sorted index -> original index
  std::vector<Node> nodes_;
  int max_depth_ = 0;
};

}  // namespace hfmm::baseline
