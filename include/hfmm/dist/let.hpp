#pragma once
// Local essential tree (LET) construction for the distributed executor
// (DESIGN.md Section 18).
//
// Owner-computes: rank r evaluates exactly the stages whose TARGET boxes it
// owns. Walking those stages' source lookups (upward child gathers,
// interactive U/V offsets, supernode gather rectangles, downward parent
// reads, near-field neighbour boxes) yields, per rank, the precise set of
// REMOTE boxes the traversal touches — the rank's local essential tree.
// The walk lives in the core executor (solver_dist.cpp): it runs the
// executors' own translation bodies over the global active sets with a
// marking sink, so the lookups exist once. This layer is the accounting
// half: it records the marks, prunes each rank's level sets to owned + halo
// boxes, and compiles the explicit message schedule (who sends which
// rows/bodies to whom, with exact byte counts) that the channel fabric
// executes.
//
// Every rank's pruned level sets list OWNED boxes first (ascending flat
// order — the same order the global active sets use, so per-box arithmetic
// is order-identical to the single-rank executor) followed by HALO boxes
// (ascending). Compute stages iterate the owned prefix only; received halo
// rows are pure inputs.

#include <cstdint>
#include <span>
#include <vector>

#include "hfmm/dist/channel.hpp"
#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/ownership.hpp"

namespace hfmm::dist {

/// Value-shape parameters of the exchange: K doubles per far/local cell,
/// whether the kernel has a far field at all, and whether ghost bodies
/// carry a type channel (vdW).
struct LetGeometry {
  std::size_t k = 0;
  bool far_capable = true;
  bool with_types = false;
};

/// One far/local-cell message: `src_rows`/`dst_rows` are aligned row lists
/// into the sender's / receiver's level-`level` store. Payload is
/// rows * K doubles, packed in list order.
struct CellMsg {
  int src = 0;
  int dst = 0;
  int level = 0;
  MsgKind kind = MsgKind::kFar;
  std::vector<std::uint32_t> src_rows;
  std::vector<std::uint32_t> dst_rows;
  std::uint64_t bytes = 0;
};

/// One ghost-bodies message: the sender's owned leaf boxes (global flat
/// indices, ascending) whose particles the receiver's near field needs.
/// Payload per box: x, y, z, q arrays (doubles) then types (int32, vdW).
struct BodyMsg {
  int src = 0;
  int dst = 0;
  std::vector<std::uint32_t> boxes;
  std::uint32_t bodies = 0;
  std::uint64_t bytes = 0;
};

/// One rank's pruned tree: level sets over owned + halo boxes, plus the
/// ghost leaf list and the modeled incoming traffic.
struct RankTree {
  tree::ActiveLevels act;
  /// Per level: count of OWNED boxes — the prefix of act.levels[l] the
  /// rank's compute stages iterate. Rows >= owned[l] are received halo.
  std::vector<std::size_t> owned;
  /// Global flat indices of ghost LEAF boxes (bodies received for the near
  /// field), ascending. Disjoint from the owned leaf run.
  std::vector<std::uint32_t> ghost_leaves;
  std::uint64_t modeled_bytes = 0;  ///< incoming cell + body payload bytes
  std::uint64_t let_cells = 0;      ///< incoming far/local rows
  std::uint64_t let_bodies = 0;     ///< incoming ghost bodies
};

/// The compiled exchange: per-rank trees plus the full message schedule.
struct LetPlan {
  int ranks = 1;
  std::vector<RankTree> rank;
  std::vector<CellMsg> cells;
  std::vector<BodyMsg> bodies;
  std::uint64_t modeled_bytes_total = 0;
};

/// Collects per-rank remote-box requirements and compiles them into a
/// LetPlan. The caller (the core executor's requirement walk) marks global
/// ACTIVE indices; marks on boxes the rank already owns are ignored, so the
/// walk can mark unconditionally.
class LetBuilder {
 public:
  LetBuilder(const tree::ActiveLevels& act, const tree::OwnershipLevels& own);

  /// Rank needs the far-expansion (kFar: an upward child gather,
  /// interactive or supernode source) or local-expansion (kLocal: a downward
  /// parent read) vector of box `gai`, a global active index at `level`.
  void need_cell(MsgKind kind, int rank, int level, std::int32_t gai);
  /// Rank needs the bodies of leaf box `gai` — a near-field neighbour.
  void need_bodies(int rank, std::int32_t gai);

  /// Compiles the marks. `leaf_count` is the particle count per global
  /// active leaf (same order as the leaf level set) for the body byte
  /// model.
  LetPlan finalize(const LetGeometry& geo,
                   std::span<const std::uint32_t> leaf_count) const;

 private:
  const tree::ActiveLevels& act_;
  const tree::OwnershipLevels& own_;
  int ranks_;
  // marks_[level][rank * count_l + gai]: bit 0 = far, bit 1 = local.
  std::vector<std::vector<std::uint8_t>> marks_;
  // body_marks_[rank * leaf_count + gai]: ghost-bodies requirement.
  std::vector<std::uint8_t> body_marks_;
};

}  // namespace hfmm::dist
