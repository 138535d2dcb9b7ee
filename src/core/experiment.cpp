#include "core/experiment.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "sched/policy.hpp"
#include "util/log.hpp"

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

/// Find @p allocation among @p mappings (canonical comparison); push a
/// fresh measurement if phase 1 produced an unbalanced mapping that the
/// enumeration does not contain.
std::size_t locate_or_add(std::vector<MappingRun>& mappings, const sched::Allocation& allocation,
                          const std::function<MappingRun(const sched::Allocation&)>& measure) {
  for (std::size_t i = 0; i < mappings.size(); ++i) {
    if (mappings[i].allocation == allocation) return i;
  }
  mappings.push_back(measure(allocation));
  return mappings.size() - 1;
}

}  // namespace

MixOutcome run_mix_experiment(const PipelineConfig& config, const std::vector<std::string>& mix) {
  obs::counter("core.mixes.run").add(1);
  MixOutcome outcome;
  outcome.mix = mix;

  const std::size_t cores = config.machine.hierarchy.num_cores;
  SymbioticScheduler pipeline(config);
  const sched::Allocation chosen = pipeline.choose_allocation(mix);
  outcome.votes = pipeline.vote_table();

  auto measure = [&](const sched::Allocation& alloc) {
    return config.virtualized ? measure_mapping_vm(config, mix, alloc)
                              : measure_mapping(config, mix, alloc);
  };
  for (const auto& alloc : sched::enumerate_balanced_allocations(mix.size(), cores)) {
    outcome.mappings.push_back(measure(alloc));
  }
  outcome.chosen = locate_or_add(outcome.mappings, chosen, measure);
  return outcome;
}

MixOutcome run_mix_experiment_mt(const PipelineConfig& config, const std::vector<std::string>& mix,
                                 std::size_t sampled_mappings) {
  obs::counter("core.mixes.run").add(1);
  MixOutcome outcome;
  outcome.mix = mix;

  const std::size_t cores = config.machine.hierarchy.num_cores;
  SymbioticScheduler pipeline(config);
  const sched::Allocation chosen = pipeline.choose_allocation_mt(mix);
  outcome.votes = pipeline.vote_table();

  const std::size_t threads = chosen.group_of.size();
  auto measure = [&](const sched::Allocation& alloc) {
    return measure_mapping_mt(config, mix, alloc);
  };

  // Reference set: default round-robin + random balanced samples.
  std::vector<sched::TaskProfile> dummy(threads);
  sched::DefaultAllocator default_alloc;
  outcome.mappings.push_back(measure(default_alloc.allocate(dummy, cores)));

  std::set<std::string> seen{outcome.mappings.front().allocation.key()};
  for (std::size_t s = 0; s < sampled_mappings; ++s) {
    sched::RandomAllocator random_alloc(config.seed + 7919 * (s + 1));
    const sched::Allocation alloc = random_alloc.allocate(dummy, cores);
    if (!seen.insert(alloc.key()).second) continue;
    outcome.mappings.push_back(measure(alloc));
  }
  outcome.chosen = locate_or_add(outcome.mappings, chosen, measure);
  return outcome;
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
  if (algorithms.empty()) throw std::invalid_argument("run_sweep_grid: no algorithms");
  if (seed_replicates == 0) throw std::invalid_argument("run_sweep_grid: zero replicates");
  SweepGridResult result;
  result.mixes = sample_mixes(pool, mix_size, per_benchmark, config.seed);
  result.cells.reserve(result.mixes.size() * algorithms.size() * seed_replicates);
  for (std::size_t m = 0; m < result.mixes.size(); ++m) {
    for (const auto& algorithm : algorithms) {
      for (std::size_t r = 0; r < seed_replicates; ++r) {
        result.cells.push_back(SweepCell{m, algorithm, r, config.seed});
      }
    }
  }
  SYMBIOSIS_LOG_INFO("run_sweep_grid: %zu cells (%zu mixes x %zu algorithms x %zu replicates)",
                     result.cells.size(), result.mixes.size(), algorithms.size(),
                     seed_replicates);
  result.outcomes.resize(result.cells.size());

  // Cells are independent experiments; each writes only cells[i]/outcomes[i]
  // so the grid is identical for any worker count and any shard cut. `base`
  // is shared by reference but only .split() (const) is ever called on it —
  // replicate seeds come from per-cell substreams.
  const util::Rng base(config.seed);
  auto run_one = [&](std::size_t i) {
    SweepCell& cell = result.cells[i];
    PipelineConfig cell_config = config;
    cell_config.allocator = cell.allocator;
    if (cell.replicate != 0) {
      util::Rng cell_rng = base.split(static_cast<std::uint64_t>(i));
      cell_config.seed = cell_rng();
      cell.seed = cell_config.seed;
    }
    result.outcomes[i] = multithreaded
                             ? run_mix_experiment_mt(cell_config, result.mixes[cell.mix_index])
                             : run_mix_experiment(cell_config, result.mixes[cell.mix_index]);
  };
  if (pool_threads) {
    const std::size_t grain = std::max<std::size_t>(
        1, result.cells.size() / (pool_threads->size() * 4));
    pool_threads->parallel_for_sharded(0, result.cells.size(), run_one, grain);
  } else {
    for (std::size_t i = 0; i < result.cells.size(); ++i) run_one(i);
  }
  return result;
}

}  // namespace symbiosis::core
