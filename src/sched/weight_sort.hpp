// weight_sort.hpp — §3.3.1, the Weight Sorting Algorithm.
//
// Sort processes by RBV occupancy weight and group them in sorted order:
// the ⌈P/N⌉ heaviest processes share one core, the next chunk the next
// core, and so on. Heavy-footprint processes end up time-sliced on the
// same core instead of simultaneously thrashing the shared L2.
#pragma once

#include "sched/policy.hpp"

namespace symbiosis::sched {

class WeightSortAllocator final : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "weight-sort"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;
};

/// The §3.3.1 grouping over any per-task key: stable-sort the tasks by
/// @p key, largest first, and give each group ⌈P/N⌉ consecutive tasks (the
/// final group may be smaller). Throws std::invalid_argument when
/// groups == 0.
[[nodiscard]] Allocation group_by_descending(const std::vector<double>& key, std::size_t groups);

}  // namespace symbiosis::sched
