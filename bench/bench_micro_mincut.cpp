// Micro-benchmarks of the two MIN-CUT paths and a solution-quality summary —
// the ablation behind DESIGN.md's "solver choice" row (the paper used an
// SDP solver; any fast approximation suffices at tens of nodes, §3.3.2).
// balanced_min_cut runs exhaustive up to 16 nodes (2-way), the heuristic
// beyond; both are timed at every size so the threshold's cost shows.
#include <benchmark/benchmark.h>

#include "sched/mincut.hpp"
#include "util/rng.hpp"

namespace {

using namespace symbiosis;

using Solver = sched::Allocation (*)(const sched::SymMatrix&, std::size_t);

sched::SymMatrix random_graph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  sched::SymMatrix w(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) w.set(i, j, rng.next_double());
  }
  return w;
}

void BM_MinCut(benchmark::State& state, Solver solve) {
  const sched::SymMatrix w = random_graph(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) benchmark::DoNotOptimize(solve(w, 2));
}
BENCHMARK_CAPTURE(BM_MinCut, exhaustive, &sched::exhaustive_min_cut)->Arg(8)->Arg(12)->Arg(16);
BENCHMARK_CAPTURE(BM_MinCut, heuristic, &sched::heuristic_min_cut)->Arg(8)->Arg(12)->Arg(16);

void BM_MinCutHierarchical4Way(benchmark::State& state) {
  const sched::SymMatrix w = random_graph(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) benchmark::DoNotOptimize(sched::heuristic_min_cut(w, 4));
}
BENCHMARK(BM_MinCutHierarchical4Way)->Arg(16)->Arg(32);

/// Not a timing benchmark: prints the heuristic's average cut weight
/// relative to the exhaustive optimum once at the end of the run.
void BM_MinCutQualityReport(benchmark::State& state) {
  double kl_ratio = 0.0;
  const int trials = 30;
  for (auto _ : state) {
    kl_ratio = 0.0;
    for (int t = 0; t < trials; ++t) {
      const sched::SymMatrix w = random_graph(10, 100 + t);
      kl_ratio += cut_weight(w, sched::heuristic_min_cut(w, 2)) /
                  cut_weight(w, sched::exhaustive_min_cut(w, 2));
    }
  }
  state.counters["kl_vs_optimal"] = kl_ratio / trials;
}
BENCHMARK(BM_MinCutQualityReport)->Iterations(1);

}  // namespace
