#include "hfmm/dist/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "hfmm/exec/graph.hpp"

namespace hfmm::dist {

Partition partition_leaves(int ranks, std::span<const std::uint64_t> leaf_cost,
                           std::span<const std::uint64_t> near_cost,
                           std::span<const std::uint32_t> leaf_count) {
  const std::size_t leaves = leaf_count.size();
  assert(leaf_cost.size() == leaves && near_cost.size() == leaves);
  assert(leaves > 0 && ranks >= 1);

  std::vector<std::uint64_t> weight(leaves);
  // Every leaf gets weight >= 1 so the greedy split never starves a rank
  // on degenerate inputs (all particles in one box).
  for (std::size_t i = 0; i < leaves; ++i)
    weight[i] = leaf_cost[i] + near_cost[i] + 1;

  const std::vector<std::size_t> bounds =
      exec::weighted_split(weight, static_cast<std::size_t>(ranks));

  Partition part;
  part.ranks = static_cast<int>(bounds.size()) - 1;
  part.leaf_begin.resize(bounds.size());
  part.body_begin.resize(bounds.size());
  part.rank_cost.assign(static_cast<std::size_t>(part.ranks), 0);

  // Prefix-sum particle counts once; both bound arrays read off it.
  std::vector<std::uint32_t> body_prefix(leaves + 1, 0);
  for (std::size_t i = 0; i < leaves; ++i)
    body_prefix[i + 1] = body_prefix[i] + leaf_count[i];

  std::uint64_t max_cost = 0, total_cost = 0;
  for (std::size_t r = 0; r < bounds.size(); ++r) {
    part.leaf_begin[r] = static_cast<std::uint32_t>(bounds[r]);
    part.body_begin[r] = body_prefix[bounds[r]];
    if (r < static_cast<std::size_t>(part.ranks)) {
      std::uint64_t c = 0;
      for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i) c += weight[i];
      part.rank_cost[r] = c;
      max_cost = std::max(max_cost, c);
      total_cost += c;
    }
  }
  const double mean =
      static_cast<double>(total_cost) / static_cast<double>(part.ranks);
  part.cost_imbalance = mean > 0.0 ? static_cast<double>(max_cost) / mean : 1.0;
  return part;
}

}  // namespace hfmm::dist
