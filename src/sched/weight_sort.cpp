#include "sched/weight_sort.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace symbiosis::sched {

Allocation group_by_descending(const std::vector<double>& key, std::size_t groups) {
  if (groups == 0) throw std::invalid_argument("group_by_descending: groups must be > 0");
  const std::size_t n = key.size();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });

  const std::size_t group_size = (n + groups - 1) / groups;
  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of.assign(n, 0);
  for (std::size_t rank = 0; rank < n; ++rank) {
    alloc.group_of[order[rank]] = std::min(rank / group_size, groups - 1);
  }
  return alloc;
}

Allocation WeightSortAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                         std::size_t groups) {
  std::vector<double> weight;
  weight.reserve(profiles.size());
  for (const auto& p : profiles) weight.push_back(p.occupancy_weight);
  return group_by_descending(weight, groups);
}

}  // namespace symbiosis::sched
