#include "sched/interference_graph.hpp"

#include <stdexcept>

namespace symbiosis::sched {

SymMatrix build_interference_graph(const std::vector<TaskProfile>& profiles, bool weighted) {
  const std::size_t n = profiles.size();
  SymMatrix w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Directed contribution Pi→Pj: Pi's interference with Pj's core.
      double contribution = profiles[i].interference_with(profiles[j].last_core);
      if (weighted) contribution *= profiles[i].occupancy_weight;  // §3.3.3
      w.add(i, j, contribution);  // consolidation: both directions sum here
    }
  }
  return w;
}

Allocation InterferenceGraphAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                                std::size_t groups) {
  if (profiles.size() < groups) {
    throw std::invalid_argument("InterferenceGraphAllocator: fewer tasks than groups");
  }
  const SymMatrix w = build_interference_graph(profiles, /*weighted=*/false);
  return balanced_min_cut(w, groups);
}

Allocation WeightedGraphAllocator::allocate(const std::vector<TaskProfile>& profiles,
                                            std::size_t groups) {
  if (profiles.size() < groups) {
    throw std::invalid_argument("WeightedGraphAllocator: fewer tasks than groups");
  }
  const SymMatrix w = build_interference_graph(profiles, /*weighted=*/true);
  return balanced_min_cut(w, groups);
}

}  // namespace symbiosis::sched
