// experiment.hpp — the paper's measurement harness (§4.2, Table 1, Figs
// 10–13): run EVERY possible mapping of a mix, find which one phase 1
// chose, and report per-benchmark improvements of the chosen mapping over
// the worst mapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/symbiotic_scheduler.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::core {

/// Full outcome of one mix: all mappings measured + the phase-1 choice.
struct MixOutcome {
  std::vector<std::string> mix;
  std::vector<MappingRun> mappings;  ///< every enumerated balanced mapping
  std::size_t chosen = 0;            ///< index into mappings of the phase-1 pick
  std::map<std::string, int> votes;  ///< the phase-1 vote table

  /// Worst (max) user time of entity @p i across all mappings.
  [[nodiscard]] std::uint64_t worst_user_cycles(std::size_t i) const;
  /// Best (min) user time of entity @p i across all mappings.
  [[nodiscard]] std::uint64_t best_user_cycles(std::size_t i) const;
  /// Improvement of the CHOSEN mapping over the worst for entity @p i, as
  /// the paper reports it: (worst - chosen) / worst.
  [[nodiscard]] double improvement_vs_worst(std::size_t i) const;
  /// Headroom: improvement of the best possible mapping over the worst.
  [[nodiscard]] double oracle_improvement(std::size_t i) const;

  /// Field-wise equality: the determinism suite asserts serial and
  /// thread-pool sweeps produce BIT-IDENTICAL outcomes for one seed.
  [[nodiscard]] bool operator==(const MixOutcome&) const = default;
};

/// Run the full experiment for one single-threaded mix: phase 1, then every
/// balanced mapping measured in enumeration order, then the chosen mapping
/// if the enumeration lacks it. This is the sweep grid's harness for one
/// cell with no pool. When config.virtualized is set, phase 2 measures
/// inside VMs (phase 1 stays process-based, as in the paper — Simics could
/// not run Xen).
[[nodiscard]] MixOutcome run_mix_experiment(const PipelineConfig& config,
                                            const std::vector<std::string>& mix);

/// Random balanced mappings a multi-threaded reference set samples.
inline constexpr std::size_t kSampledMappings = 6;

/// Multi-threaded variant: thread-level mappings cannot be enumerated
/// exhaustively (C(16,8) for four 4-thread apps), so the reference set is
/// {default, @p sampled_mappings random balanced mappings}, deduplicated,
/// plus the chosen mapping, and improvements are relative to the worst of
/// that set. This substitution is recorded in DESIGN.md.
[[nodiscard]] MixOutcome run_mix_experiment_mt(const PipelineConfig& config,
                                               const std::vector<std::string>& mix,
                                               std::size_t sampled_mappings = kSampledMappings);

/// Index of @p allocation in outcome.mappings (canonical comparison). A
/// mapping the reference set lacks (phase 1 may pick one) is first measured
/// under @p config and appended, so a vote is always charged the runtime of
/// the mapping it chose. @p multithreaded selects measure_mapping_mt.
[[nodiscard]] std::size_t locate_or_measure(MixOutcome& outcome, const PipelineConfig& config,
                                            const sched::Allocation& allocation,
                                            bool multithreaded = false);

/// Deterministic sample of distinct mixes of @p mix_size from @p pool such
/// that every pool entry appears in at least @p per_benchmark mixes.
[[nodiscard]] std::vector<std::vector<std::string>> sample_mixes(
    const std::vector<std::string>& pool, std::size_t mix_size, std::size_t per_benchmark,
    std::uint64_t seed);

/// Per-benchmark aggregate across many mix outcomes (a Fig 10/11/12 bar).
struct BenchmarkImprovement {
  std::string name;
  double max_improvement = 0.0;
  double sum_improvement = 0.0;
  double max_oracle = 0.0;   ///< best-mapping headroom (diagnostic)
  double sum_oracle = 0.0;
  int mixes = 0;

  [[nodiscard]] double avg_improvement() const noexcept {
    return mixes ? sum_improvement / mixes : 0.0;
  }
  [[nodiscard]] double avg_oracle() const noexcept { return mixes ? sum_oracle / mixes : 0.0; }

  [[nodiscard]] bool operator==(const BenchmarkImprovement&) const = default;
};

/// Fold outcomes into per-benchmark max/avg improvements, ordered by @p pool.
[[nodiscard]] std::vector<BenchmarkImprovement> summarize_improvements(
    const std::vector<std::string>& pool, const std::vector<MixOutcome>& outcomes);

/// Everything one sweep produced: the sampled mixes, the raw per-mix
/// outcomes (in mix order, independent of execution interleaving), and the
/// per-benchmark summary. Report export and the determinism suite need the
/// raw outcomes; the figure benches need only the summary.
struct SweepResult {
  std::vector<std::vector<std::string>> mixes;
  std::vector<MixOutcome> outcomes;
  std::vector<BenchmarkImprovement> summary;
};

/// Single-allocator sweep: run_sweep_grid over {config.allocator} with one
/// replicate (so every mix runs at config.seed), then summarize. Outcomes
/// are stored at the index of their mix, so the result is identical for any
/// worker count.
[[nodiscard]] SweepResult run_sweep(const PipelineConfig& config,
                                    const std::vector<std::string>& pool, std::size_t mix_size,
                                    std::size_t per_benchmark, bool multithreaded = false,
                                    util::ThreadPool* pool_threads = nullptr);

/// One (mix, allocator, seed-replicate) cell of a sweep grid.
struct SweepCell {
  std::size_t mix_index = 0;   ///< into SweepGridResult::mixes
  std::string allocator;       ///< sched::make_allocator name
  std::size_t replicate = 0;   ///< 0 = the configured seed, >0 = derived
  std::uint64_t seed = 0;      ///< pipeline seed this cell ran with

  [[nodiscard]] bool operator==(const SweepCell&) const = default;
};

/// Everything a grid sweep produced; outcomes[i] is cells[i]'s result.
struct SweepGridResult {
  std::vector<std::vector<std::string>> mixes;
  std::vector<SweepCell> cells;
  std::vector<MixOutcome> outcomes;

  [[nodiscard]] bool operator==(const SweepGridResult&) const = default;
};

/// Sweep the full (mix × allocator × seed-replicate) grid over @p mixes.
/// Cell i runs config with cells[i].allocator and cells[i].seed: replicate
/// 0 keeps config.seed, and replicate r > 0 derives its seed from a per-cell
/// substream of config.seed (util::Rng .split(cell index)), drawn serially
/// before any work starts. The work is one flat task list, on
/// @p pool_threads when non-null: one phase-1 task per cell, and one
/// measurement task per distinct (mix, seed) and reference mapping. The
/// measurements read neither the allocator nor anything else that differs
/// between cells, so cells of one mix at one seed share every reference
/// MappingRun exactly, and each mapping is measured once, not once per
/// allocator. Outcomes are then assembled serially in cell order; a chosen
/// mapping outside the reference set is measured there (locate_or_measure).
/// The result is BIT-IDENTICAL for any worker count — the determinism suite
/// pins this at 1/2/8 workers, and that every cell equals
/// run_mix_experiment{,_mt} of its config.
[[nodiscard]] SweepGridResult run_sweep_grid(const PipelineConfig& config,
                                             std::vector<std::vector<std::string>> mixes,
                                             const std::vector<std::string>& algorithms,
                                             std::size_t seed_replicates = 1,
                                             bool multithreaded = false,
                                             util::ThreadPool* pool_threads = nullptr);

/// The grid over sample_mixes(@p pool, @p mix_size, @p per_benchmark,
/// config.seed); run_sweep is this grid over {config.allocator} with one
/// replicate.
[[nodiscard]] SweepGridResult run_sweep_grid(const PipelineConfig& config,
                                             const std::vector<std::string>& pool,
                                             std::size_t mix_size, std::size_t per_benchmark,
                                             const std::vector<std::string>& algorithms,
                                             std::size_t seed_replicates = 1,
                                             bool multithreaded = false,
                                             util::ThreadPool* pool_threads = nullptr);

}  // namespace symbiosis::core
