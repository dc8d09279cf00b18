// Tests for the hierarchy and the interaction lists — including the paper's
// headline counts: 125-box near field, 875/189 interactive fields, the
// 1206-offset sibling union, the 1331 offset cube, and the 98 + 91 = 189
// supernode decomposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "hfmm/tree/active_set.hpp"
#include "hfmm/tree/hierarchy.hpp"
#include "hfmm/tree/interaction_lists.hpp"

namespace hfmm::tree {
namespace {

Hierarchy unit_hierarchy(int depth) { return Hierarchy(Box3{}, depth); }

TEST(HierarchyTest, BasicGeometry) {
  const Hierarchy h = unit_hierarchy(3);
  EXPECT_EQ(h.depth(), 3);
  EXPECT_EQ(h.boxes_per_side(0), 1);
  EXPECT_EQ(h.boxes_per_side(3), 8);
  EXPECT_EQ(h.boxes_at(3), 512u);
  EXPECT_DOUBLE_EQ(h.side_at(0), 1.0);
  EXPECT_DOUBLE_EQ(h.side_at(3), 0.125);
}

TEST(HierarchyTest, RejectsNonCube) {
  EXPECT_THROW(Hierarchy(Box3{{0, 0, 0}, {1, 2, 1}}, 2), std::invalid_argument);
  EXPECT_THROW(Hierarchy(Box3{}, -1), std::invalid_argument);
}

TEST(HierarchyTest, FlatIndexRoundtrip) {
  const Hierarchy h = unit_hierarchy(4);
  for (std::size_t f = 0; f < h.boxes_at(4); f += 7) {
    const BoxCoord c = h.coord_of(4, f);
    EXPECT_EQ(h.flat_index(4, c), f);
  }
}

TEST(HierarchyTest, FlatIndexIsXFastest) {
  const Hierarchy h = unit_hierarchy(2);
  EXPECT_EQ(h.flat_index(2, {1, 0, 0}), 1u);
  EXPECT_EQ(h.flat_index(2, {0, 1, 0}), 4u);
  EXPECT_EQ(h.flat_index(2, {0, 0, 1}), 16u);
}

TEST(HierarchyTest, CenterOfBoxes) {
  const Hierarchy h = unit_hierarchy(1);
  EXPECT_EQ(h.center(0, {0, 0, 0}), (Vec3{0.5, 0.5, 0.5}));
  EXPECT_EQ(h.center(1, {0, 0, 0}), (Vec3{0.25, 0.25, 0.25}));
  EXPECT_EQ(h.center(1, {1, 1, 1}), (Vec3{0.75, 0.75, 0.75}));
}

TEST(HierarchyTest, LeafOfClampsToDomain) {
  const Hierarchy h = unit_hierarchy(2);
  EXPECT_EQ(h.leaf_of({0.1, 0.1, 0.1}), (BoxCoord{0, 0, 0}));
  EXPECT_EQ(h.leaf_of({0.9, 0.9, 0.9}), (BoxCoord{3, 3, 3}));
  // Outside points clamp instead of crashing; 0.5 sits exactly on the
  // boundary between boxes 1 and 2 and floors into box 2.
  EXPECT_EQ(h.leaf_of({-5, 0.5, 2.0}), (BoxCoord{0, 2, 3}));
}

TEST(HierarchyTest, ParentChildOctantRelations) {
  for (int o = 0; o < 8; ++o) {
    const BoxCoord parent{3, 5, 2};
    const BoxCoord child = Hierarchy::child_of(parent, o);
    EXPECT_EQ(Hierarchy::parent_of(child), parent);
    EXPECT_EQ(Hierarchy::octant_of(child), o);
  }
}

TEST(HierarchyTest, OctantOffsetsAreHalfUnit) {
  for (int o = 0; o < 8; ++o) {
    const Vec3 off = Hierarchy::octant_offset(o);
    EXPECT_DOUBLE_EQ(std::abs(off.x), 0.5);
    EXPECT_DOUBLE_EQ(std::abs(off.y), 0.5);
    EXPECT_DOUBLE_EQ(std::abs(off.z), 0.5);
  }
  // Octant 0 is the low corner.
  EXPECT_EQ(Hierarchy::octant_offset(0), (Vec3{-0.5, -0.5, -0.5}));
}

TEST(HierarchyTest, CubeContainingIsCube) {
  const Box3 b{{0, 0, 0}, {2, 1, 0.5}};
  const Box3 c = cube_containing(b);
  const Vec3 e = c.extent();
  EXPECT_NEAR(e.x, e.y, 1e-12);
  EXPECT_NEAR(e.y, e.z, 1e-12);
  EXPECT_GE(e.x, 2.0);
  // A zero-extent box (all particles coincident) still yields a cube of
  // positive side that contains it, so leaf_of stays finite.
  for (const double v : {0.0, 0.5, 1e6, 1e20}) {
    const Box3 point{{v, v, v}, {v, v, v}};
    const Box3 cp = cube_containing(point);
    const Vec3 ep = cp.extent();
    EXPECT_GT(ep.x, 0.0) << v;
    EXPECT_EQ(ep.x, ep.y) << v;
    EXPECT_EQ(ep.y, ep.z) << v;
    EXPECT_LT(cp.lo.x, v) << v;
    EXPECT_GT(cp.hi.x, v) << v;
    const Hierarchy h(cp, 3);
    const BoxCoord leaf = h.leaf_of({v, v, v});
    EXPECT_TRUE(h.in_bounds(3, leaf)) << v;
  }
}

TEST(HierarchyTest, OptimalDepthScalesWithN) {
  EXPECT_EQ(optimal_depth(10, 16.0), 0);
  EXPECT_EQ(optimal_depth(16 * 8, 16.0), 1);
  EXPECT_EQ(optimal_depth(16 * 64, 16.0), 2);
  // Doubling N by 8 adds one level.
  const int d1 = optimal_depth(100000, 24.0);
  EXPECT_EQ(optimal_depth(800000, 24.0), d1 + 1);
  EXPECT_THROW(optimal_depth(100, 0.0), std::invalid_argument);
  // A tiny occupancy stops at the deepest hierarchy the solver builds.
  EXPECT_EQ(optimal_depth(1'000'000, 1e-6), 8);
}

TEST(NearFieldTest, CountsMatchPaper) {
  // (2d+1)^3: 27 for d=1, 125 for d=2 (paper Section 2.1).
  EXPECT_EQ(near_field_offsets(1).size(), 27u);
  EXPECT_EQ(near_field_offsets(2).size(), 125u);
  EXPECT_EQ(near_field_offsets(3).size(), 343u);
}

TEST(NearFieldTest, HalfOffsetsPartitionNeighbors) {
  for (int d : {1, 2}) {
    const auto half = near_field_half_offsets(d);
    const auto full = near_field_offsets(d);
    EXPECT_EQ(half.size(), (full.size() - 1) / 2);  // 62 for d = 2
    std::set<std::tuple<int, int, int>> seen;
    for (const Offset& o : half) {
      seen.insert({o.dx, o.dy, o.dz});
      seen.insert({-o.dx, -o.dy, -o.dz});
    }
    EXPECT_EQ(seen.size(), full.size() - 1);  // H u -H covers all, no self
  }
}

// The one neighbour walk the near-field run planner, its cost model and the
// data-parallel comm counter share: self skipped, out-of-domain neighbours
// clipped, or wrapped modulo the box count when periodic.
TEST(NearFieldTest, ForEachNeighbourClipsWrapsAndSkipsSelf) {
  const std::vector<Offset> offsets = near_field_offsets(2);
  const auto walk = [&](BoxCoord c, std::int32_t n, bool periodic) {
    std::vector<BoxCoord> out;
    for_each_neighbour(c, n, offsets, periodic,
                       [&](const BoxCoord& nb) { out.push_back(nb); });
    return out;
  };
  // Interior box: all 124 neighbours, c + o in offset order, no self.
  const std::vector<BoxCoord> interior = walk({3, 3, 3}, 8, false);
  ASSERT_EQ(interior.size(), 124u);
  EXPECT_EQ(interior.front(), (BoxCoord{1, 1, 1}));
  EXPECT_EQ(interior.back(), (BoxCoord{5, 5, 5}));
  EXPECT_EQ(std::count(interior.begin(), interior.end(), BoxCoord{3, 3, 3}),
            0);
  // Corner box, open domain: only offsets in [0, 2]^3 stay, minus self.
  const std::vector<BoxCoord> clipped = walk({0, 0, 0}, 8, false);
  EXPECT_EQ(clipped.size(), 26u);
  for (const BoxCoord& b : clipped) {
    EXPECT_TRUE(b.ix >= 0 && b.ix <= 2 && b.iy >= 0 && b.iy <= 2 &&
                b.iz >= 0 && b.iz <= 2);
    EXPECT_FALSE(b == (BoxCoord{0, 0, 0}));
  }
  // Corner box, periodic: every offset wraps onto a distinct box.
  const std::vector<BoxCoord> wrapped = walk({0, 0, 0}, 8, true);
  ASSERT_EQ(wrapped.size(), 124u);
  EXPECT_EQ(wrapped.front(), (BoxCoord{6, 6, 6}));
  EXPECT_EQ(wrapped.back(), (BoxCoord{2, 2, 2}));
  std::set<std::tuple<int, int, int>> distinct;
  for (const BoxCoord& b : wrapped) {
    EXPECT_TRUE(b.ix >= 0 && b.ix < 8 && b.iy >= 0 && b.iy < 8 &&
                b.iz >= 0 && b.iz < 8);
    distinct.insert({b.ix, b.iy, b.iz});
  }
  EXPECT_EQ(distinct.size(), 124u);
  EXPECT_EQ(distinct.count({0, 0, 0}), 0u);
}

TEST(NearFieldTest, SixtyTwoBoxInteractionsForD2) {
  EXPECT_EQ(near_field_half_offsets(2).size(), 62u);  // paper Figure 10
}

class InteractiveFieldTest : public ::testing::TestWithParam<int> {};

TEST_P(InteractiveFieldTest, CountPerOctant) {
  const int d = GetParam();
  const std::size_t expected = 7u * (2 * d + 1) * (2 * d + 1) * (2 * d + 1);
  for (int o = 0; o < 8; ++o) {
    const auto offsets = interactive_offsets(o, d);
    EXPECT_EQ(offsets.size(), expected) << "octant " << o;
    // No offset may be inside the near field.
    for (const Offset& off : offsets)
      EXPECT_GT(std::max({std::abs(off.dx), std::abs(off.dy),
                          std::abs(off.dz)}),
                d);
    // No duplicates.
    std::set<std::tuple<int, int, int>> s;
    for (const Offset& off : offsets) s.insert({off.dx, off.dy, off.dz});
    EXPECT_EQ(s.size(), offsets.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Separations, InteractiveFieldTest,
                         ::testing::Values(1, 2, 3));

TEST(InteractiveFieldTest, PaperCounts875And189) {
  EXPECT_EQ(interactive_offsets(0, 2).size(), 875u);  // d = 2 (paper)
  EXPECT_EQ(interactive_offsets(0, 1).size(), 189u);  // d = 1
}

TEST(InteractiveFieldTest, OctantRangesMatchPaper) {
  // Octant 0 (even parity): offsets in [-4, 5] per axis; octant 7: [-5, 4]
  // (the paper's [-5+i, 4+i] ranges).
  const auto o0 = interactive_offsets(0, 2);
  const auto o7 = interactive_offsets(7, 2);
  auto minmax = [](const std::vector<Offset>& v) {
    int lo = 99, hi = -99;
    for (const Offset& o : v) {
      lo = std::min({lo, o.dx, o.dy, o.dz});
      hi = std::max({hi, o.dx, o.dy, o.dz});
    }
    return std::pair{lo, hi};
  };
  EXPECT_EQ(minmax(o0), (std::pair{-4, 5}));
  EXPECT_EQ(minmax(o7), (std::pair{-5, 4}));
}

TEST(InteractiveFieldTest, SiblingUnionHas1206Offsets) {
  const auto u = sibling_union_offsets(2);
  EXPECT_EQ(u.size(), 1206u);  // 11^3 - 5^3, paper Section 3.3.2
  // And equals the actual union over the 8 octants.
  std::set<std::tuple<int, int, int>> uni;
  for (int o = 0; o < 8; ++o)
    for (const Offset& off : interactive_offsets(o, 2))
      uni.insert({off.dx, off.dy, off.dz});
  EXPECT_EQ(uni.size(), 1206u);
}

TEST(InteractiveFieldTest, OffsetCubeIndexIsABijection) {
  const int d = 2;
  EXPECT_EQ(offset_cube_size(d), 1331u);  // 11^3, the paper's matrix count
  std::set<std::size_t> seen;
  for (int dz = -5; dz <= 5; ++dz)
    for (int dy = -5; dy <= 5; ++dy)
      for (int dx = -5; dx <= 5; ++dx) {
        const std::size_t i = offset_cube_index({dx, dy, dz}, d);
        EXPECT_LT(i, 1331u);
        seen.insert(i);
      }
  EXPECT_EQ(seen.size(), 1331u);
}

TEST(SupernodeTest, EffectiveCountIs189) {
  // The paper's headline: supernodes reduce the effective interactive field
  // from 875 to 189 (98 complete octets + 91 leftover children).
  for (int o = 0; o < 8; ++o) {
    const auto entries = supernode_interactive(o, 2);
    EXPECT_EQ(entries.size(), 189u) << "octant " << o;
    std::size_t parents = 0, children = 0;
    for (const auto& e : entries)
      (e.source_level_up == 1 ? parents : children)++;
    EXPECT_EQ(parents, 98u);
    EXPECT_EQ(children, 91u);
  }
}

TEST(SupernodeTest, FlatteningRecoversFullInteractiveField) {
  // Expanding every parent entry into its 8 children must reproduce the
  // plain 875-offset interactive field exactly.
  for (int oct : {0, 3, 7}) {
    const int px = oct & 1, py = (oct >> 1) & 1, pz = (oct >> 2) & 1;
    std::set<std::tuple<int, int, int>> flat;
    for (const auto& e : supernode_interactive(oct, 2)) {
      if (e.source_level_up == 0) {
        flat.insert({e.offset.dx, e.offset.dy, e.offset.dz});
      } else {
        for (int bz = 0; bz <= 1; ++bz)
          for (int by = 0; by <= 1; ++by)
            for (int bx = 0; bx <= 1; ++bx)
              flat.insert({2 * e.offset.dx + bx - px,
                           2 * e.offset.dy + by - py,
                           2 * e.offset.dz + bz - pz});
      }
    }
    std::set<std::tuple<int, int, int>> expect;
    for (const Offset& o : interactive_offsets(oct, 2))
      expect.insert({o.dx, o.dy, o.dz});
    EXPECT_EQ(flat, expect) << "octant " << oct;
  }
}

TEST(InteractionListTest, InvalidArgumentsThrow) {
  EXPECT_THROW(near_field_offsets(0), std::invalid_argument);
  EXPECT_THROW(interactive_offsets(-1, 2), std::invalid_argument);
  EXPECT_THROW(interactive_offsets(8, 2), std::invalid_argument);
  EXPECT_THROW(supernode_interactive(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hfmm::tree
