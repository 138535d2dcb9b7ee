// mincut.hpp — balanced MIN-CUT over interference graphs.
//
// §3.3.2: the interference-graph algorithms need a balanced partition that
// MINIMIZES inter-group edge weight (equivalently maximizes intra-group
// interference, so mutually hostile processes share a core and time-slice
// instead of thrashing each other). The paper used an SDP solver and asks
// only for "a fast approximation"; its graphs have tens of nodes, so one
// path chosen by graph size serves:
//   * exhaustive_min_cut — full enumeration, provably optimal; used for a
//                          2-way cut up to 16 nodes and a k-way cut up to
//                          12 nodes and 4 groups (every paper-scale mix);
//   * heuristic_min_cut  — heaviest-edge greedy seed plus Kernighan–Lin
//                          pair swaps, recursing hierarchically (bisect,
//                          then split each side) exactly as §3.3.2
//                          prescribes for quad-core machines.
// Every result is exactly balanced: group sizes equal balanced_group_sizes.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/allocation.hpp"
#include "util/check.hpp"

namespace symbiosis::sched {

/// Dense symmetric non-negative weight matrix (zero diagonal).
class SymMatrix {
 public:
  SymMatrix() = default;
  explicit SymMatrix(std::size_t n) : n_(n), w_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Unchecked in release builds: at() sits inside the allocators'
  /// per-candidate O(n^2) evaluation loops (cut_weight/intra_weight are
  /// SYM_HOT roots), where vector::at's throw path would put an exception
  /// edge on every decision. Debug builds keep the bounds check.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    SYM_DCHECK_BOUNDS(i, n_, "sched.mincut");
    SYM_DCHECK_BOUNDS(j, n_, "sched.mincut");
    return w_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) {
    w_.at(i * n_ + j) = v;
    w_.at(j * n_ + i) = v;
  }
  void add(std::size_t i, std::size_t j, double v) {
    if (i == j) return;
    w_.at(i * n_ + j) += v;
    w_.at(j * n_ + i) += v;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> w_;
};

/// Sum of weights crossing group boundaries (the objective to minimize).
[[nodiscard]] double cut_weight(const SymMatrix& w, const Allocation& alloc);

/// Sum of weights inside groups (the dual objective to maximize).
[[nodiscard]] double intra_weight(const SymMatrix& w, const Allocation& alloc);

/// Partition n = w.size() nodes into @p groups balanced groups minimizing
/// the cut: exhaustive_min_cut when the graph is small enough to enumerate,
/// else heuristic_min_cut. Deterministic. Throws std::invalid_argument when
/// groups == 0 or n < groups.
[[nodiscard]] Allocation balanced_min_cut(const SymMatrix& w, std::size_t groups);

/// The optimal balanced cut by enumerating every balanced mapping (the
/// reference the heuristic is measured against).
[[nodiscard]] Allocation exhaustive_min_cut(const SymMatrix& w, std::size_t groups);

/// Greedy seed plus Kernighan–Lin refinement, recursing hierarchically for
/// more than two groups.
[[nodiscard]] Allocation heuristic_min_cut(const SymMatrix& w, std::size_t groups);

}  // namespace symbiosis::sched
