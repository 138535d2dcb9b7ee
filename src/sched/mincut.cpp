#include "sched/mincut.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::sched {

SYM_HOT double cut_weight(const SymMatrix& w, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (alloc.group_of[i] != alloc.group_of[j]) total += w.at(i, j);
    }
  }
  return total;
}

SYM_HOT double intra_weight(const SymMatrix& w, const Allocation& alloc) {
  double total = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (alloc.group_of[i] == alloc.group_of[j]) total += w.at(i, j);
    }
  }
  return total;
}

namespace {

/// Exhaustive optimal balanced 2..k-way cut via full enumeration.
Allocation solve_exhaustive(const SymMatrix& w, std::size_t groups) {
  const auto candidates = enumerate_balanced_allocations(w.size(), groups);
  const Allocation* best = nullptr;
  double best_cut = std::numeric_limits<double>::infinity();
  for (const auto& alloc : candidates) {
    const double cut = cut_weight(w, alloc);
    if (cut < best_cut) {
      best_cut = cut;
      best = &alloc;
    }
  }
  SYM_CHECK(best != nullptr, "sched.mincut") << "no candidate allocation enumerated";
  return *best;
}

/// Greedy constructive: repeatedly place the node with the largest
/// attraction (edge weight into a group) into the fullest-attracting group
/// with spare capacity; group g ends with exactly @p capacity[g] nodes.
/// Attraction INSIDE a group is what we maximize.
Allocation solve_greedy(const SymMatrix& w, const std::vector<std::size_t>& capacity) {
  const std::size_t n = w.size();
  const std::size_t groups = capacity.size();
  Allocation alloc;
  alloc.groups = groups;
  alloc.group_of.assign(n, static_cast<std::size_t>(-1));

  // Seed each group with one endpoint of the heaviest remaining edges so
  // hostile pairs start together rather than apart.
  std::vector<bool> placed(n, false);
  std::size_t placed_count = 0;

  // Seed group 0 with the heaviest edge's endpoints (they interfere most,
  // so they belong on the same core).
  double best_w = -1.0;
  std::size_t bi = 0, bj = (n > 1) ? 1 : 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (w.at(i, j) > best_w) {
        best_w = w.at(i, j);
        bi = i;
        bj = j;
      }
    }
  }
  alloc.group_of[bi] = 0;
  placed[bi] = true;
  ++placed_count;
  if (n > 1 && capacity[0] >= 2) {
    alloc.group_of[bj] = 0;
    placed[bj] = true;
    ++placed_count;
  }

  while (placed_count < n) {
    // Pick the unplaced node and target group with maximum gain.
    double best_gain = -std::numeric_limits<double>::infinity();
    std::size_t best_node = 0, best_group = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      for (std::size_t g = 0; g < groups; ++g) {
        std::size_t used = 0;
        double gain = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          if (alloc.group_of[j] == g) {
            ++used;
            gain += w.at(i, j);
          }
        }
        if (used >= capacity[g]) continue;
        // Prefer attaching to emptier groups on ties so seeds spread out.
        gain -= 1e-9 * static_cast<double>(used);
        if (gain > best_gain) {
          best_gain = gain;
          best_node = i;
          best_group = g;
        }
      }
    }
    alloc.group_of[best_node] = best_group;
    placed[best_node] = true;
    ++placed_count;
  }
  return alloc;
}

/// Kernighan–Lin style refinement: keep applying the single best
/// cross-group pair swap while it reduces the cut.
void kl_refine(const SymMatrix& w, Allocation& alloc) {
  const std::size_t n = w.size();
  bool improved = true;
  std::size_t rounds = 0;
  while (improved && rounds < 4 * n) {
    improved = false;
    ++rounds;
    double best_delta = -1e-12;
    std::size_t best_i = 0, best_j = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (alloc.group_of[i] == alloc.group_of[j]) continue;
        // Gain in intra-group weight if i and j swap groups: i's old group
        // trades its w(i,·) terms for w(j,·) and vice versa.
        double delta = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          if (k == i || k == j) continue;
          const bool k_with_i = alloc.group_of[k] == alloc.group_of[i];
          const bool k_with_j = alloc.group_of[k] == alloc.group_of[j];
          if (k_with_i) delta += w.at(j, k) - w.at(i, k);
          if (k_with_j) delta += w.at(i, k) - w.at(j, k);
        }
        // delta > 0 means the swap moves weight INTO groups (cut shrinks).
        if (delta > best_delta + 1e-12) {
          best_delta = delta;
          best_i = i;
          best_j = j;
          improved = true;
        }
      }
    }
    if (improved) std::swap(alloc.group_of[best_i], alloc.group_of[best_j]);
  }
  static obs::Counter& kl_passes = obs::counter("sched.mincut.kl_passes");
  kl_passes.add(rounds);
}

/// Restrict @p w to @p nodes.
SymMatrix submatrix(const SymMatrix& w, const std::vector<std::size_t>& nodes) {
  SymMatrix sub(nodes.size());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      sub.set(a, b, w.at(nodes[a], nodes[b]));
    }
  }
  return sub;
}

/// Hierarchical k-way (§3.3.2): bisect @p nodes into the node counts the
/// two halves' groups need — greedy seed, then KL swaps, which keep the
/// counts — and recurse on each side. Every group ends at its
/// balanced_group_sizes size.
void hierarchical(const SymMatrix& w, const std::vector<std::size_t>& nodes, std::size_t groups,
                  std::size_t group_base, Allocation& out) {
  if (groups == 1) {
    for (const auto node : nodes) out.group_of[node] = group_base;
    return;
  }
  const std::size_t left_groups = groups / 2;
  const auto sizes = balanced_group_sizes(nodes.size(), groups);
  const std::size_t left_nodes =
      std::accumulate(sizes.begin(), sizes.begin() + static_cast<std::ptrdiff_t>(left_groups),
                      std::size_t{0});

  const SymMatrix sub = submatrix(w, nodes);
  Allocation split = solve_greedy(sub, {left_nodes, nodes.size() - left_nodes});
  kl_refine(sub, split);

  std::vector<std::size_t> left, right;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    (split.group_of[i] == 0 ? left : right).push_back(nodes[i]);
  }
  hierarchical(w, left, left_groups, group_base, out);
  hierarchical(w, right, groups - left_groups, group_base + left_groups, out);
}

void require_partitionable(const SymMatrix& w, std::size_t groups) {
  if (groups == 0) throw std::invalid_argument("balanced_min_cut: groups must be > 0");
  if (w.size() < groups) throw std::invalid_argument("balanced_min_cut: fewer nodes than groups");
}

/// Partition-balance postcondition (category "sched.partition"): every task
/// is labelled with an in-range group and the group sizes match
/// balanced_group_sizes up to permutation (exhaustive results are
/// canonically relabelled, so the order may differ).
Allocation checked(Allocation alloc, std::size_t tasks, std::size_t groups) {
  SYM_CHECK_EQ(alloc.group_of.size(), tasks, "sched.partition");
  SYM_CHECK_EQ(alloc.groups, groups, "sched.partition");
  std::vector<std::size_t> sizes(groups, 0);
  for (const auto g : alloc.group_of) {
    SYM_CHECK_BOUNDS(g, groups, "sched.partition") << "task labelled with out-of-range group";
    ++sizes[g];
  }
  auto want = balanced_group_sizes(tasks, groups);
  std::sort(sizes.begin(), sizes.end());
  std::sort(want.begin(), want.end());
  SYM_CHECK(sizes == want, "sched.partition") << "group sizes not balanced";
  return alloc;
}

}  // namespace

Allocation exhaustive_min_cut(const SymMatrix& w, std::size_t groups) {
  require_partitionable(w, groups);
  return checked(solve_exhaustive(w, groups), w.size(), groups);
}

Allocation heuristic_min_cut(const SymMatrix& w, std::size_t groups) {
  require_partitionable(w, groups);
  Allocation out;
  out.groups = groups;
  out.group_of.assign(w.size(), 0);
  std::vector<std::size_t> nodes(w.size());
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  hierarchical(w, nodes, groups, 0, out);
  return checked(std::move(out), w.size(), groups);
}

Allocation balanced_min_cut(const SymMatrix& w, std::size_t groups) {
  static obs::Counter& solves = obs::counter("sched.mincut.solves");
  solves.add(1);
  // Enumeration covers every paper-scale mix and costs about 14 ms at its
  // largest (2-way, 16 nodes, on a Xeon core); the heuristic averages 1.004x
  // the optimal cut on random 10-node graphs (bench_micro_mincut).
  const bool small = groups == 2 ? w.size() <= 16 : w.size() <= 12 && groups <= 4;
  return small ? exhaustive_min_cut(w, groups) : heuristic_min_cut(w, groups);
}

}  // namespace symbiosis::sched
