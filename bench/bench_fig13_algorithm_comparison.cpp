// Figure 13 — the three resource-allocation algorithms compared, plus
// baselines, on representative mixes.
//
// §5.2: the weight-sorting algorithm, despite its simplicity, sometimes
// gives the best results (footprint alone is a strong predictor); the
// weighted interference graph is as good or better overall; the plain
// interference graph can trail both. We add the OS-default and the
// related-work miss-rate heuristic as anchors, and an ablation of the
// allocator invocation period (the paper's 100 ms).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/threadpool.hpp"

using namespace symbiosis;

namespace {

/// Mean improvement over the worst mapping, across the mix's benchmarks.
double mean_improvement(const core::MixOutcome& outcome) {
  double sum = 0.0;
  for (std::size_t i = 0; i < outcome.mix.size(); ++i) sum += outcome.improvement_vs_worst(i);
  return sum / static_cast<double>(outcome.mix.size());
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig13", "Figure 13: allocation algorithm comparison");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return args.exit_status();

  std::printf("=== Figure 13: comparison of the three allocation algorithms ===\n\n");

  const std::vector<std::vector<std::string>> mixes = {
      {"mcf", "libquantum", "povray", "gobmk"},
      {"omnetpp", "libquantum", "astar", "perlbench"},
      {"mcf", "hmmer", "omnetpp", "sjeng"},
      {"gcc", "libquantum", "bzip2", "h264ref"},
  };
  const std::vector<std::string> algorithms = {"weight-sort", "graph", "weighted-graph",
                                               "miss-rate", "default"};

  util::TextTable table;
  {
    std::vector<std::string> header = {"algorithm"};
    for (const auto& mix : mixes) {
      header.push_back(mix[0] + "/" + mix[1] + "/..");
    }
    header.push_back("mean");
    table.set_header(header);
  }

  // One grid cell per (mix, algorithm), mix-major; the cells of a mix share
  // its measured mappings.
  const core::PipelineConfig base = bench::default_pipeline(seed);
  util::ThreadPool workers;  // one per hardware thread; the result is the same for any count
  const core::SweepGridResult grid =
      core::run_sweep_grid(base, mixes, algorithms, 1, false, &workers);
  const auto cell = [&](std::size_t mix, std::size_t algorithm) -> const core::MixOutcome& {
    return grid.outcomes[mix * algorithms.size() + algorithm];
  };

  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    std::vector<std::string> row = {algorithms[a]};
    double total = 0.0;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      const double improvement = mean_improvement(cell(i, a));
      total += improvement;
      row.push_back(util::TextTable::pct(improvement));
    }
    row.push_back(util::TextTable::pct(total / static_cast<double>(mixes.size())));
    table.add_row(row);
  }

  // Oracle row: best possible mapping per benchmark (headroom).
  {
    std::vector<std::string> row = {"(oracle best mapping)"};
    double total = 0.0;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      core::MixOutcome outcome = cell(i, 0);
      double best = 0.0;
      for (std::size_t k = 0; k < outcome.mappings.size(); ++k) {
        outcome.chosen = k;
        best = std::max(best, mean_improvement(outcome));
      }
      total += best;
      row.push_back(util::TextTable::pct(best));
    }
    row.push_back(util::TextTable::pct(total / static_cast<double>(mixes.size())));
    table.add_row(row);
  }

  std::printf("mean improvement over the worst mapping, per mix:\n");
  table.print();

  // Ablation: allocator invocation period (§5.4 argues 100 ms is cheap and
  // §4.1 uses it; shorter windows = fewer samples per vote).
  std::printf("\nablation: allocator period (weighted-graph, first mix):\n");
  util::TextTable ablation({"period (Mcycles)", "improvement"});
  const std::vector<std::uint64_t> periods = {5'000'000, 10'000'000, 20'000'000, 40'000'000};
  std::vector<sched::Allocation> chosen(periods.size());
  workers.parallel_for(0, periods.size(), [&](std::size_t p) {
    core::PipelineConfig config = base;
    config.allocator_period_cycles = periods[p];
    core::SymbioticScheduler pipeline(config);
    chosen[p] = pipeline.choose_allocation(mixes[0]);
  });
  const auto weighted_graph = static_cast<std::size_t>(
      std::find(algorithms.begin(), algorithms.end(), "weighted-graph") - algorithms.begin());
  for (std::size_t p = 0; p < periods.size(); ++p) {
    // A pick outside the measured mappings is measured, not charged another's runtime.
    core::MixOutcome outcome = cell(0, weighted_graph);
    outcome.chosen = core::locate_or_measure(outcome, base, chosen[p]);
    ablation.add_row({util::TextTable::fmt(static_cast<double>(periods[p]) / 1e6, 0),
                      util::TextTable::pct(mean_improvement(outcome))});
  }
  ablation.print();

  std::printf(
      "\nExpected shape (paper): weighted-graph >= the other two paper algorithms;\n"
      "weight-sort close behind (footprint is a strong signal); graph and the\n"
      "miss-rate heuristic trail.\n");
  return 0;
}
