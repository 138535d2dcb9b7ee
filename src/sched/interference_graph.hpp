// interference_graph.hpp — §3.3.2/§3.3.3, the interference-graph algorithms.
//
// Graph construction (§3.3.2): the directed edge Pi→Pj carries Pi's
// interference with the core Pj last ran on (a process is assumed to
// interfere equally with every process of a given core). The directed
// graph is consolidated into an undirected one by summing the two
// directions; a balanced MIN-CUT then minimizes inter-group interference,
// i.e. maximizes the interference KEPT INSIDE each core's time-sliced
// group.
//
// The weighted variant (§3.3.3) multiplies each directed contribution by
// the source's occupancy weight — edge(P1,P2) = W1·I12 + W2·I21 — so a
// tiny-footprint process (whose symbiosis is low merely because its RBV is
// nearly empty) no longer masquerades as a heavy interferer.
#pragma once

#include "sched/mincut.hpp"
#include "sched/policy.hpp"

namespace symbiosis::sched {

/// Build the consolidated undirected interference graph.
/// @param weighted apply the §3.3.3 occupancy weighting
[[nodiscard]] SymMatrix build_interference_graph(const std::vector<TaskProfile>& profiles,
                                                 bool weighted);

/// §3.3.2: plain interference graph + balanced MIN-CUT.
class InterferenceGraphAllocator final : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "graph"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;
};

/// §3.3.3: occupancy-weighted interference graph + balanced MIN-CUT.
/// The paper's best algorithm.
class WeightedGraphAllocator final : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "weighted-graph"; }
  [[nodiscard]] Allocation allocate(const std::vector<TaskProfile>& profiles,
                                    std::size_t groups) override;
};

}  // namespace symbiosis::sched
