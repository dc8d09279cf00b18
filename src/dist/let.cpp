#include "hfmm/dist/let.hpp"

#include <cassert>
#include <cstddef>

namespace hfmm::dist {

namespace {

constexpr std::uint8_t kFarBit = 1;
constexpr std::uint8_t kLocalBit = 2;

std::size_t mark_index(int rank, std::size_t count, std::int32_t gai) {
  return static_cast<std::size_t>(rank) * count + static_cast<std::size_t>(gai);
}

}  // namespace

LetBuilder::LetBuilder(const tree::ActiveLevels& act,
                       const tree::OwnershipLevels& own)
    : act_(act), own_(own), ranks_(own.ranks) {
  marks_.resize(static_cast<std::size_t>(act.depth) + 1);
  for (int l = 0; l <= act.depth; ++l)
    marks_[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(ranks_) *
            act.levels[static_cast<std::size_t>(l)].count(),
        0);
  body_marks_.assign(static_cast<std::size_t>(ranks_) *
                         act.levels[static_cast<std::size_t>(act.depth)]
                             .count(),
                     0);
}

void LetBuilder::need_cell(MsgKind kind, int rank, int level,
                           std::int32_t gai) {
  if (own_.at(level, gai) == rank) return;
  marks_[static_cast<std::size_t>(level)][mark_index(
      rank, act_.levels[static_cast<std::size_t>(level)].count(), gai)] |=
      kind == MsgKind::kFar ? kFarBit : kLocalBit;
}

void LetBuilder::need_bodies(int rank, std::int32_t gai) {
  if (own_.at(act_.depth, gai) == rank) return;
  body_marks_[mark_index(
      rank, act_.levels[static_cast<std::size_t>(act_.depth)].count(), gai)] =
      1;
}

LetPlan LetBuilder::finalize(const LetGeometry& geo,
                             std::span<const std::uint32_t> leaf_count) const {
  const int h = act_.depth;
  const int R = ranks_;
  LetPlan plan;
  plan.ranks = R;
  plan.rank.resize(static_cast<std::size_t>(R));

  // Pass 1: per-rank pruned level sets — owned boxes first (the ascending
  // contiguous run the partition assigned, for leaves; the owner map's
  // ascending entries for internal levels), then halo boxes ascending.
  for (int r = 0; r < R; ++r) {
    RankTree& rt = plan.rank[static_cast<std::size_t>(r)];
    rt.act.depth = h;
    rt.act.levels.resize(static_cast<std::size_t>(h) + 1);
    rt.owned.assign(static_cast<std::size_t>(h) + 1, 0);
    for (int l = 0; l <= h; ++l) {
      const tree::LevelActiveSet& glob =
          act_.levels[static_cast<std::size_t>(l)];
      const std::size_t count = glob.count();
      const auto& marks = marks_[static_cast<std::size_t>(l)];
      tree::LevelActiveSet& mine = rt.act.levels[static_cast<std::size_t>(l)];
      mine.boxes.clear();
      for (std::size_t gai = 0; gai < count; ++gai)
        if (own_.at(l, static_cast<std::int32_t>(gai)) == r)
          mine.boxes.push_back(glob.boxes[gai]);
      rt.owned[static_cast<std::size_t>(l)] = mine.boxes.size();
      if (geo.far_capable) {
        for (std::size_t gai = 0; gai < count; ++gai)
          if (marks[mark_index(r, count, static_cast<std::int32_t>(gai))] != 0)
            mine.boxes.push_back(glob.boxes[gai]);
      }
      mine.dense_to_active.assign(std::size_t{1} << (3 * l), -1);
      for (std::size_t i = 0; i < mine.boxes.size(); ++i)
        mine.dense_to_active[mine.boxes[i]] = static_cast<std::int32_t>(i);
    }
    // Ghost leaves for the near field (independent of the far-halo sets).
    const std::size_t leaves = act_.levels[static_cast<std::size_t>(h)].count();
    for (std::size_t gai = 0; gai < leaves; ++gai) {
      if (body_marks_[mark_index(r, leaves, static_cast<std::int32_t>(gai))] ==
          0)
        continue;
      rt.ghost_leaves.push_back(
          act_.levels[static_cast<std::size_t>(h)].boxes[gai]);
      rt.let_bodies += leaf_count[gai];
    }
  }

  // Pass 2: the cell message schedule. For each (dst, level, kind) the halo
  // marks are scanned ascending and grouped by owner, so every (src, dst,
  // level, kind) tuple yields at most one message whose row lists ascend on
  // both sides — which is exactly the order pack/unpack iterate.
  const std::uint64_t cell_bytes = static_cast<std::uint64_t>(geo.k) * 8;
  if (geo.far_capable) {
    for (int r = 0; r < R; ++r) {
      RankTree& rt = plan.rank[static_cast<std::size_t>(r)];
      for (int l = 0; l <= h; ++l) {
        const tree::LevelActiveSet& glob =
            act_.levels[static_cast<std::size_t>(l)];
        const std::size_t count = glob.count();
        const auto& marks = marks_[static_cast<std::size_t>(l)];
        for (const MsgKind kind : {MsgKind::kFar, MsgKind::kLocal}) {
          const std::uint8_t bit =
              kind == MsgKind::kFar ? kFarBit : kLocalBit;
          // Message index in plan.cells per src rank, this (dst, l, kind).
          std::vector<std::int32_t> msg_of(static_cast<std::size_t>(R), -1);
          for (std::size_t gai = 0; gai < count; ++gai) {
            if ((marks[mark_index(r, count, static_cast<std::int32_t>(gai))] &
                 bit) == 0)
              continue;
            const int src = own_.at(l, static_cast<std::int32_t>(gai));
            std::int32_t& mi = msg_of[static_cast<std::size_t>(src)];
            if (mi < 0) {
              mi = static_cast<std::int32_t>(plan.cells.size());
              plan.cells.push_back(CellMsg{src, r, l, kind, {}, {}, 0});
            }
            CellMsg& msg = plan.cells[static_cast<std::size_t>(mi)];
            const std::uint32_t flat = glob.boxes[gai];
            const std::int32_t srow =
                plan.rank[static_cast<std::size_t>(src)]
                    .act.levels[static_cast<std::size_t>(l)]
                    .dense_to_active[flat];
            const std::int32_t drow =
                rt.act.levels[static_cast<std::size_t>(l)]
                    .dense_to_active[flat];
            assert(srow >= 0 && drow >= 0);
            msg.src_rows.push_back(static_cast<std::uint32_t>(srow));
            msg.dst_rows.push_back(static_cast<std::uint32_t>(drow));
          }
        }
      }
    }
    for (CellMsg& msg : plan.cells) {
      msg.bytes = static_cast<std::uint64_t>(msg.src_rows.size()) * cell_bytes;
      RankTree& rt = plan.rank[static_cast<std::size_t>(msg.dst)];
      rt.let_cells += msg.src_rows.size();
      rt.modeled_bytes += msg.bytes;
      plan.modeled_bytes_total += msg.bytes;
    }
  }

  // Pass 3: the ghost-bodies schedule. A ghost leaf's owner is read off the
  // partition bounds (leaves ascending == the partition's contiguous runs).
  const std::uint64_t body_bytes = 4 * 8 + (geo.with_types ? 4 : 0);
  for (int r = 0; r < R; ++r) {
    RankTree& rt = plan.rank[static_cast<std::size_t>(r)];
    const std::size_t leaves = act_.levels[static_cast<std::size_t>(h)].count();
    std::vector<std::int32_t> msg_of(static_cast<std::size_t>(R), -1);
    for (std::size_t gai = 0; gai < leaves; ++gai) {
      if (body_marks_[mark_index(r, leaves, static_cast<std::int32_t>(gai))] ==
          0)
        continue;
      const int src = own_.at(h, static_cast<std::int32_t>(gai));
      std::int32_t& mi = msg_of[static_cast<std::size_t>(src)];
      if (mi < 0) {
        mi = static_cast<std::int32_t>(plan.bodies.size());
        plan.bodies.push_back(BodyMsg{src, r, {}, 0, 0});
      }
      BodyMsg& msg = plan.bodies[static_cast<std::size_t>(mi)];
      msg.boxes.push_back(act_.levels[static_cast<std::size_t>(h)].boxes[gai]);
      msg.bodies += leaf_count[gai];
    }
    for (const std::int32_t mi : msg_of) {
      if (mi < 0) continue;
      BodyMsg& msg = plan.bodies[static_cast<std::size_t>(mi)];
      msg.bytes = static_cast<std::uint64_t>(msg.bodies) * body_bytes;
      rt.modeled_bytes += msg.bytes;
      plan.modeled_bytes_total += msg.bytes;
    }
  }

  return plan;
}

}  // namespace hfmm::dist
