// Figure 14 — Bloom-filter hash function comparison.
//
// §5.3 evaluates XOR-fold, XOR-inverse-reverse, modulo, and presence bits
// on representative mixes: the first three perform near-identically (modulo
// occasionally slightly worse); presence bits saturate for cache-heavy
// processes, convey no information, and leave the default schedule in
// place. We reproduce the comparison and add the paper's other saturation
// argument as an ablation: k = 2 hash functions on the same small filter.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace symbiosis;

namespace {

double mean_improvement(const core::MixOutcome& outcome) {
  double sum = 0.0;
  for (std::size_t i = 0; i < outcome.mix.size(); ++i) sum += outcome.improvement_vs_worst(i);
  return sum / static_cast<double>(outcome.mix.size());
}

/// Average CF fill ratio observed at the end of a short emulation — the
/// §5.3 saturation diagnostic.
double observe_saturation(const core::PipelineConfig& config,
                          const std::vector<std::string>& mix) {
  machine::Machine m(config.machine);
  (void)core::add_mix_tasks(m, mix, config.scale, config.seed);
  m.run_for(30'000'000);
  const auto* filter = m.hierarchy().filter();
  double fill = 0.0;
  for (std::size_t c = 0; c < config.machine.hierarchy.num_cores; ++c) {
    fill += filter->core_filter_fill(c);
  }
  return fill / static_cast<double>(config.machine.hierarchy.num_cores);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig14", "Figure 14: hash function comparison");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return args.exit_status();

  std::printf("=== Figure 14: comparing Bloom-filter hash functions ===\n\n");

  const std::vector<std::vector<std::string>> mixes = {
      {"perlbench", "gobmk", "libquantum", "omnetpp"},
      {"mcf", "hmmer", "libquantum", "omnetpp"},
      {"gobmk", "hmmer", "libquantum", "povray"},
  };

  struct Variant {
    std::string label;
    sig::HashKind hash;
    unsigned k;
  };
  const std::vector<Variant> variants = {
      {"xor", sig::HashKind::Xor, 1},
      {"xor-inv-rev", sig::HashKind::XorInverseReverse, 1},
      {"modulo", sig::HashKind::Modulo, 1},
      {"presence", sig::HashKind::Presence, 1},
      {"xor, k=2 (ablation)", sig::HashKind::Xor, 2},
  };

  const core::PipelineConfig base = bench::default_pipeline(seed);

  // Measure all mappings of each mix once (hash choice only affects the
  // phase-1 decision, not the measured runtimes).
  std::vector<core::MixOutcome> measured(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    measured[i].mix = mixes[i];
    for (const auto& alloc : sched::enumerate_balanced_allocations(mixes[i].size(), 2)) {
      measured[i].mappings.push_back(core::measure_mapping(base, mixes[i], alloc));
    }
  }

  util::TextTable table;
  {
    std::vector<std::string> header = {"hash"};
    for (const auto& mix : mixes) header.push_back(mix[0] + "/" + mix[1] + "/..");
    header.push_back("mean");
    header.push_back("CF fill");
    table.set_header(header);
  }

  for (const auto& variant : variants) {
    core::PipelineConfig config = base;
    config.machine.hierarchy.signature.hash = variant.hash;
    config.machine.hierarchy.signature.hash_functions = variant.k;

    std::vector<std::string> row = {variant.label};
    double total = 0.0;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      core::SymbioticScheduler pipeline(config);
      const sched::Allocation chosen = pipeline.choose_allocation(mixes[i]);
      core::MixOutcome outcome = measured[i];
      const auto it = std::find_if(
          outcome.mappings.begin(), outcome.mappings.end(),
          [&](const core::MappingRun& run) { return run.allocation == chosen; });
      if (it == outcome.mappings.end()) {
        std::fprintf(stderr, "bench_fig14: %s chose mapping %s, which mix %zu does not enumerate\n",
                     variant.label.c_str(), chosen.key().c_str(), i);
        return 1;
      }
      outcome.chosen = static_cast<std::size_t>(it - outcome.mappings.begin());
      const double improvement = mean_improvement(outcome);
      total += improvement;
      row.push_back(util::TextTable::pct(improvement));
    }
    row.push_back(util::TextTable::pct(total / static_cast<double>(mixes.size())));
    row.push_back(util::TextTable::pct(observe_saturation(config, mixes[1])));
    table.add_row(row);
  }
  std::printf("mean improvement over the worst mapping, per mix, by hash function:\n");
  table.print();

  std::printf(
      "\nExpected shape (paper): xor ~ xor-inv-rev ~ modulo; presence bits saturate\n"
      "(CF fill near 100%% for cache-heavy mixes) and add little or nothing over the\n"
      "default schedule. The k=2 ablation shows why one hash function is enough: more\n"
      "hashes only saturate the small filter faster.\n");
  return 0;
}
