#include "core/experiment.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "sched/policy.hpp"
#include "util/log.hpp"
#include "workload/parsec_model.hpp"

namespace symbiosis::core {

std::uint64_t MixOutcome::worst_user_cycles(std::size_t i) const {
  std::uint64_t worst = 0;
  for (const auto& run : mappings) worst = std::max(worst, run.user_cycles.at(i));
  return worst;
}

std::uint64_t MixOutcome::best_user_cycles(std::size_t i) const {
  std::uint64_t best = ~std::uint64_t{0};
  for (const auto& run : mappings) best = std::min(best, run.user_cycles.at(i));
  return best;
}

double MixOutcome::improvement_vs_worst(std::size_t i) const {
  const auto worst = worst_user_cycles(i);
  if (worst == 0) return 0.0;
  const auto chosen_cycles = mappings.at(chosen).user_cycles.at(i);
  return static_cast<double>(worst - chosen_cycles) / static_cast<double>(worst);
}

double MixOutcome::oracle_improvement(std::size_t i) const {
  const auto worst = worst_user_cycles(i);
  if (worst == 0) return 0.0;
  return static_cast<double>(worst - best_user_cycles(i)) / static_cast<double>(worst);
}

namespace {

/// One phase-2 measurement as the harness makes it: natively, in VMs or,
/// for a PARSEC mix, over its threads.
MappingRun measure(const PipelineConfig& config, const std::vector<std::string>& mix,
                   const sched::Allocation& allocation, bool multithreaded) {
  obs::counter("core.mappings.measured").add(1);
  if (multithreaded) return measure_mapping_mt(config, mix, allocation);
  return config.virtualized ? measure_mapping_vm(config, mix, allocation)
                            : measure_mapping(config, mix, allocation);
}

/// The mappings every cell of @p mix at config.seed is measured against:
/// all balanced mappings of a single-threaded mix; for a multi-threaded
/// one, default round-robin plus @p sampled_mappings deduplicated random
/// balanced samples. Neither depends on the allocator or on phase 1.
std::vector<sched::Allocation> reference_mappings(const PipelineConfig& config,
                                                  const std::vector<std::string>& mix,
                                                  bool multithreaded,
                                                  std::size_t sampled_mappings) {
  const std::size_t cores = config.machine.hierarchy.num_cores;
  if (!multithreaded) return sched::enumerate_balanced_allocations(mix.size(), cores);

  std::size_t threads = 0;
  for (const auto& name : mix) {
    threads += workload::make_parsec_benchmark(name, config.scale).threads;
  }
  const std::vector<sched::TaskProfile> dummy(threads);
  std::vector<sched::Allocation> references{sched::DefaultAllocator{}.allocate(dummy, cores)};
  std::set<std::string> seen{references.front().key()};
  for (std::size_t s = 0; s < sampled_mappings; ++s) {
    sched::RandomAllocator random_alloc(config.seed + 7919 * (s + 1));
    sched::Allocation alloc = random_alloc.allocate(dummy, cores);
    if (seen.insert(alloc.key()).second) references.push_back(std::move(alloc));
  }
  return references;
}

/// Phase 1 of one cell: the majority mapping and the vote table.
struct Phase1 {
  sched::Allocation chosen;
  std::map<std::string, int> votes;
};

Phase1 run_phase1(const PipelineConfig& config, const std::vector<std::string>& mix,
                  bool multithreaded) {
  obs::counter("core.mixes.run").add(1);
  SymbioticScheduler pipeline(config);
  Phase1 result;
  result.chosen = multithreaded ? pipeline.choose_allocation_mt(mix)
                                : pipeline.choose_allocation(mix);
  result.votes = pipeline.vote_table();
  return result;
}

/// The one harness behind run_mix_experiment{,_mt} and run_sweep_grid.
/// Cell i runs @p config with cells[i]'s allocator and seed. The work is one
/// flat task list: a phase-1 task per cell, then one measurement task per
/// distinct (mix, seed) and reference mapping, since measure_mapping* read
/// neither the allocator nor anything else that differs between cells. The
/// tasks run on @p pool when non-null, else serially in list order. Each
/// writes only its own slot, and the outcomes are assembled serially in
/// cell order, so the result is the same for any worker count.
std::vector<MixOutcome> run_cells(const PipelineConfig& config,
                                  const std::vector<std::vector<std::string>>& mixes,
                                  const std::vector<SweepCell>& cells, bool multithreaded,
                                  std::size_t sampled_mappings, util::ThreadPool* pool) {
  const auto cell_config = [&](const SweepCell& cell) {
    PipelineConfig c = config;
    c.allocator = cell.allocator;
    c.seed = cell.seed;
    return c;
  };

  // Cells of one mix at one seed share every reference measurement.
  struct Group {
    std::size_t first_cell = 0;
    std::vector<sched::Allocation> references;
    std::vector<MappingRun> runs;
  };
  std::vector<Group> groups;
  std::vector<std::size_t> group_of(cells.size());
  std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> group_index;
  std::vector<std::pair<std::size_t, std::size_t>> measurements;  // (group, reference)
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [it, fresh] =
        group_index.try_emplace({cells[i].mix_index, cells[i].seed}, groups.size());
    group_of[i] = it->second;
    if (!fresh) continue;
    Group group;
    group.first_cell = i;
    group.references = reference_mappings(cell_config(cells[i]), mixes.at(cells[i].mix_index),
                                          multithreaded, sampled_mappings);
    group.runs.resize(group.references.size());
    for (std::size_t r = 0; r < group.references.size(); ++r) {
      measurements.emplace_back(groups.size(), r);
    }
    groups.push_back(std::move(group));
  }

  std::vector<Phase1> phase1(cells.size());
  const auto run_task = [&](std::size_t t) {
    if (t < cells.size()) {
      phase1[t] = run_phase1(cell_config(cells[t]), mixes[cells[t].mix_index], multithreaded);
      return;
    }
    const auto [g, r] = measurements[t - cells.size()];
    Group& group = groups[g];
    const SweepCell& cell = cells[group.first_cell];
    group.runs[r] =
        measure(cell_config(cell), mixes[cell.mix_index], group.references[r], multithreaded);
  };
  const std::size_t tasks = cells.size() + measurements.size();
  if (pool) {
    pool->parallel_for(0, tasks, run_task);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) run_task(t);
  }

  std::vector<MixOutcome> outcomes(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PipelineConfig c = cell_config(cells[i]);
    MixOutcome& outcome = outcomes[i];
    outcome.mix = mixes[cells[i].mix_index];
    outcome.mappings = groups[group_of[i]].runs;
    outcome.votes = std::move(phase1[i].votes);
    outcome.chosen = locate_or_measure(outcome, c, phase1[i].chosen, multithreaded);
  }
  return outcomes;
}

}  // namespace

std::size_t locate_or_measure(MixOutcome& outcome, const PipelineConfig& config,
                              const sched::Allocation& allocation, bool multithreaded) {
  for (std::size_t i = 0; i < outcome.mappings.size(); ++i) {
    if (outcome.mappings[i].allocation == allocation) return i;
  }
  outcome.mappings.push_back(measure(config, outcome.mix, allocation, multithreaded));
  return outcome.mappings.size() - 1;
}

MixOutcome run_mix_experiment(const PipelineConfig& config, const std::vector<std::string>& mix) {
  return run_cells(config, {mix}, {SweepCell{0, config.allocator, 0, config.seed}}, false, 0,
                   nullptr)
      .front();
}

MixOutcome run_mix_experiment_mt(const PipelineConfig& config, const std::vector<std::string>& mix,
                                 std::size_t sampled_mappings) {
  return run_cells(config, {mix}, {SweepCell{0, config.allocator, 0, config.seed}}, true,
                   sampled_mappings, nullptr)
      .front();
}

std::vector<std::vector<std::string>> sample_mixes(const std::vector<std::string>& pool,
                                                   std::size_t mix_size,
                                                   std::size_t per_benchmark,
                                                   std::uint64_t seed) {
  if (pool.size() < mix_size) throw std::invalid_argument("sample_mixes: pool too small");
  const std::size_t n = pool.size();
  std::vector<std::vector<std::string>> mixes;
  std::set<std::vector<std::size_t>> seen;
  util::Rng rng(seed);
  std::vector<std::size_t> appearances(n, 0);

  // Rotation pass: deterministic coverage with varied partners, then top up
  // any under-covered benchmark with random draws.
  for (std::size_t round = 0; round < per_benchmark + 4; ++round) {
    const bool all_covered = std::all_of(appearances.begin(), appearances.end(),
                                         [&](std::size_t a) { return a >= per_benchmark; });
    if (all_covered) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (appearances[i] >= per_benchmark) continue;
      std::vector<std::size_t> mix{i};
      // Partners: a rotation pattern for early rounds, random later.
      for (std::size_t k = 1; k < mix_size; ++k) {
        std::size_t candidate;
        if (round < 2) {
          candidate = (i + round * 3 + k * (round + 2)) % n;
        } else {
          candidate = rng.next_below(n);
        }
        while (std::find(mix.begin(), mix.end(), candidate) != mix.end()) {
          candidate = (candidate + 1) % n;
        }
        mix.push_back(candidate);
      }
      std::vector<std::size_t> key = mix;
      std::sort(key.begin(), key.end());
      if (!seen.insert(key).second) continue;
      for (const auto idx : mix) ++appearances[idx];
      std::vector<std::string> named;
      named.reserve(mix_size);
      for (const auto idx : key) named.push_back(pool[idx]);
      mixes.push_back(std::move(named));
    }
  }
  return mixes;
}

std::vector<BenchmarkImprovement> summarize_improvements(
    const std::vector<std::string>& pool, const std::vector<MixOutcome>& outcomes) {
  std::vector<BenchmarkImprovement> summary;
  summary.reserve(pool.size());
  for (const auto& name : pool) {
    BenchmarkImprovement agg;
    agg.name = name;
    for (const auto& outcome : outcomes) {
      for (std::size_t i = 0; i < outcome.mix.size(); ++i) {
        if (outcome.mix[i] != name) continue;
        const double improvement = outcome.improvement_vs_worst(i);
        agg.max_improvement = std::max(agg.max_improvement, improvement);
        agg.sum_improvement += improvement;
        const double oracle = outcome.oracle_improvement(i);
        agg.max_oracle = std::max(agg.max_oracle, oracle);
        agg.sum_oracle += oracle;
        ++agg.mixes;
      }
    }
    summary.push_back(std::move(agg));
  }
  return summary;
}

SweepResult run_sweep(const PipelineConfig& config, const std::vector<std::string>& pool,
                      std::size_t mix_size, std::size_t per_benchmark, bool multithreaded,
                      util::ThreadPool* pool_threads) {
  SweepGridResult grid = run_sweep_grid(config, pool, mix_size, per_benchmark, {config.allocator},
                                        1, multithreaded, pool_threads);
  std::vector<BenchmarkImprovement> summary = summarize_improvements(pool, grid.outcomes);
  return SweepResult{std::move(grid.mixes), std::move(grid.outcomes), std::move(summary)};
}

SweepGridResult run_sweep_grid(const PipelineConfig& config, const std::vector<std::string>& pool,
                               std::size_t mix_size, std::size_t per_benchmark,
                               const std::vector<std::string>& algorithms,
                               std::size_t seed_replicates, bool multithreaded,
                               util::ThreadPool* pool_threads) {
  return run_sweep_grid(config, sample_mixes(pool, mix_size, per_benchmark, config.seed),
                        algorithms, seed_replicates, multithreaded, pool_threads);
}

SweepGridResult run_sweep_grid(const PipelineConfig& config,
                               std::vector<std::vector<std::string>> mixes,
                               const std::vector<std::string>& algorithms,
                               std::size_t seed_replicates, bool multithreaded,
                               util::ThreadPool* pool_threads) {
  if (algorithms.empty()) throw std::invalid_argument("run_sweep_grid: no algorithms");
  if (seed_replicates == 0) throw std::invalid_argument("run_sweep_grid: zero replicates");
  SweepGridResult result;
  result.mixes = std::move(mixes);
  result.cells.reserve(result.mixes.size() * algorithms.size() * seed_replicates);
  // Replicate r > 0 runs under a per-cell substream of config.seed.
  const util::Rng base(config.seed);
  for (std::size_t m = 0; m < result.mixes.size(); ++m) {
    for (const auto& algorithm : algorithms) {
      for (std::size_t r = 0; r < seed_replicates; ++r) {
        const std::uint64_t seed =
            r == 0 ? config.seed : base.split(static_cast<std::uint64_t>(result.cells.size()))();
        result.cells.push_back(SweepCell{m, algorithm, r, seed});
      }
    }
  }
  SYMBIOSIS_LOG_INFO("run_sweep_grid: %zu cells (%zu mixes x %zu algorithms x %zu replicates)",
                     result.cells.size(), result.mixes.size(), algorithms.size(),
                     seed_replicates);
  result.outcomes = run_cells(config, result.mixes, result.cells, multithreaded, kSampledMappings,
                              pool_threads);
  return result;
}

}  // namespace symbiosis::core
