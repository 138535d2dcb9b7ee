#include "sched/mincut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace symbiosis::sched {
namespace {

/// Two hostile pairs: (0,1) and (2,3) interfere heavily; everything else is
/// light. The optimal balanced MIN-CUT keeps each hostile pair together.
SymMatrix two_cliques() {
  SymMatrix w(4);
  w.set(0, 1, 10.0);
  w.set(2, 3, 10.0);
  w.set(0, 2, 1.0);
  w.set(0, 3, 1.5);
  w.set(1, 2, 0.5);
  w.set(1, 3, 1.0);
  return w;
}

/// A planted partition over 2k nodes: intra-block weight high + noise.
SymMatrix planted(std::size_t n, util::Rng& rng) {
  SymMatrix w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool same_block = (i < n / 2) == (j < n / 2);
      w.set(i, j, (same_block ? 5.0 : 0.5) + rng.next_double() * 0.2);
    }
  }
  return w;
}

TEST(MinCut, CutAndIntraPartitionTotal) {
  const SymMatrix w = two_cliques();
  Allocation a;
  a.groups = 2;
  a.group_of = {0, 0, 1, 1};
  const double total = 10 + 10 + 1 + 1.5 + 0.5 + 1;
  EXPECT_DOUBLE_EQ(cut_weight(w, a) + intra_weight(w, a), total);
  EXPECT_DOUBLE_EQ(intra_weight(w, a), 20.0);
  EXPECT_DOUBLE_EQ(cut_weight(w, a), 4.0);
}

/// The three entry points, by name, so each parameterized case runs all.
Allocation solve(const std::string& solver, const SymMatrix& w, std::size_t groups) {
  if (solver == "exhaustive") return exhaustive_min_cut(w, groups);
  if (solver == "heuristic") return heuristic_min_cut(w, groups);
  return balanced_min_cut(w, groups);
}

class MinCutSolverTest : public testing::TestWithParam<std::string> {};

TEST_P(MinCutSolverTest, SolvesTwoCliques) {
  const SymMatrix w = two_cliques();
  const Allocation result = solve(GetParam(), w, 2);
  EXPECT_EQ(result.group_of[0], result.group_of[1]);
  EXPECT_EQ(result.group_of[2], result.group_of[3]);
  EXPECT_NE(result.group_of[0], result.group_of[2]);
}

TEST_P(MinCutSolverTest, ProducesBalancedGroups) {
  util::Rng rng(11);
  const SymMatrix w = planted(10, rng);
  const Allocation result = solve(GetParam(), w, 2);
  EXPECT_EQ(result.members(0).size(), 5u);
  EXPECT_EQ(result.members(1).size(), 5u);
}

TEST_P(MinCutSolverTest, RecoversPlantedPartition) {
  util::Rng rng(13);
  const SymMatrix w = planted(12, rng);
  const Allocation result = solve(GetParam(), w, 2);
  // All of block {0..5} together, {6..11} together.
  for (std::size_t i = 1; i < 6; ++i) EXPECT_EQ(result.group_of[i], result.group_of[0]);
  for (std::size_t i = 7; i < 12; ++i) EXPECT_EQ(result.group_of[i], result.group_of[6]);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, MinCutSolverTest,
                         testing::Values("exhaustive", "heuristic", "balanced"),
                         [](const auto& param_info) { return param_info.param; });

TEST(MinCut, HeuristicsNearOptimalOnRandomGraphs) {
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    SymMatrix w(8);
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = i + 1; j < 8; ++j) w.set(i, j, rng.next_double());
    }
    const double optimal = cut_weight(w, exhaustive_min_cut(w, 2));
    const double kl = cut_weight(w, heuristic_min_cut(w, 2));
    EXPECT_LE(optimal, kl + 1e-9);
    EXPECT_LE(kl, optimal * 1.35 + 1e-9) << "KL strayed far from optimal";
  }
}

TEST(MinCut, HierarchicalFourWay) {
  // Four hostile pairs over 8 nodes; 4 groups must keep each pair together
  // (this is §3.3.2's quad-core recursion).
  SymMatrix w(8);
  for (std::size_t p = 0; p < 4; ++p) w.set(2 * p, 2 * p + 1, 10.0 + static_cast<double>(p));
  util::Rng rng(19);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) {
      if (w.at(i, j) == 0.0) w.set(i, j, rng.next_double() * 0.1);
    }
  }
  for (const auto& result : {balanced_min_cut(w, 4), heuristic_min_cut(w, 4)}) {
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(result.group_of[2 * p], result.group_of[2 * p + 1]);
      EXPECT_EQ(result.members(p).size(), 2u);
    }
  }
}

TEST(MinCut, SingleGroupIsTrivial) {
  const SymMatrix w = two_cliques();
  const Allocation result = balanced_min_cut(w, 1);
  EXPECT_EQ(result.groups, 1u);
  for (const auto g : result.group_of) EXPECT_EQ(g, 0u);
}

TEST(MinCut, Validation) {
  const SymMatrix w = two_cliques();
  EXPECT_THROW(balanced_min_cut(w, 0), std::invalid_argument);
  EXPECT_THROW(balanced_min_cut(w, 5), std::invalid_argument);
  EXPECT_THROW(exhaustive_min_cut(w, 5), std::invalid_argument);
  EXPECT_THROW(heuristic_min_cut(w, 0), std::invalid_argument);
}

TEST(MinCut, DegenerateUniformGraphStillBalances) {
  SymMatrix w(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) w.set(i, j, 1.0);
  }
  EXPECT_EQ(heuristic_min_cut(w, 2).members(0).size(), 3u);
  EXPECT_EQ(heuristic_min_cut(w, 3).members(2).size(), 2u);
}

TEST(MinCut, SizesMatchBalancedGroupSizes) {
  // Every bisection must hand each side exactly its groups' share of the
  // nodes, for even, odd and uneven group counts alike.
  util::Rng rng(31);
  for (const std::size_t groups : {2u, 3u, 5u, 6u}) {
    for (std::size_t n = groups; n <= 20; ++n) {
      SymMatrix w(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) w.set(i, j, rng.next_double());
      }
      const Allocation result = balanced_min_cut(w, groups);
      std::vector<std::size_t> got;
      for (std::size_t g = 0; g < groups; ++g) got.push_back(result.members(g).size());
      auto want = balanced_group_sizes(n, groups);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << n << " tasks / " << groups << " groups";
    }
  }
}

}  // namespace
}  // namespace symbiosis::sched
