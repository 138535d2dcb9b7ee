// symbiotic_scheduler.hpp — the public two-phase pipeline (§4, Fig 9).
//
// Phase 1 ("gathering footprint"): run the mix on the signature-equipped
// machine; every allocator period the user-level monitor reads the
// per-task signatures, computes an allocation, applies it via affinity
// bits, and casts a vote. The majority allocation wins.
//
// Phase 2 ("real machine execution"): run the mix — natively or inside
// VMs on the hypervisor — pinned to a given allocation, to completion,
// and report per-benchmark user times.
//
// This header is the library's primary entry point; see examples/ for
// usage and core/experiment.hpp for the all-mappings measurement harness.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "sched/allocation.hpp"
#include "vm/hypervisor.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::core {

/// End-to-end pipeline configuration.
struct PipelineConfig {
  machine::MachineConfig machine = machine::core2duo_config();
  workload::ScaleConfig scale{};  ///< keep scale.l2_bytes == machine L2 size
  std::string allocator = "weighted-graph";
  /// Allocator invocation period in cycles (the paper's "every 100 ms").
  /// With the 3M-cycle quantum each task accumulates ~3-4 signature samples
  /// per window on a loaded dual-core — enough for the window means to
  /// cover both timeshared and concurrent pairings.
  std::uint64_t allocator_period_cycles = 20'000'000;
  /// Phase-1 simulated-cycle budget (also ends early once every benchmark
  /// completed one run, mirroring the paper's bounded emulation window).
  std::uint64_t emulation_cycles = 140'000'000;
  /// Safety cap for phase-2 measurement runs (0 = uncapped).
  std::uint64_t measure_max_cycles = 0;
  /// Phase 2 runs inside VMs on the hypervisor when set (§5.1.2).
  bool virtualized = false;
  vm::VmConfig vm{};
  std::uint64_t seed = 42;

  /// Derive scale.l2_bytes from the machine's L2 (call after edits).
  void sync_scale() noexcept { scale.l2_bytes = machine.hierarchy.l2.size_bytes; }
};

/// Counters of one cache level over one measurement run (schema v2).
struct NamedLevelStats {
  std::string level;  ///< "l1", "l2" or "l3"
  cachesim::LevelStats stats;

  [[nodiscard]] bool operator==(const NamedLevelStats&) const = default;
};

/// One phase-2 measurement of one mapping.
struct MappingRun {
  sched::Allocation allocation;
  std::vector<std::string> names;        ///< per measured entity (task/VM/process)
  std::vector<std::uint64_t> user_cycles;  ///< first-completion user time
  std::uint64_t wall_cycles = 0;         ///< simulated time until all completed
  bool completed = false;
  /// Per-level cache counters ("l1", "l2", then "l3" when present).
  std::vector<NamedLevelStats> levels;

  /// Field-wise equality (the determinism suite compares whole runs).
  [[nodiscard]] bool operator==(const MappingRun&) const = default;
};

/// The two-phase symbiotic scheduling pipeline.
class SymbioticScheduler {
 public:
  explicit SymbioticScheduler(PipelineConfig config);

  /// Phase 1 for a single-threaded mix (names from spec2006_pool()).
  /// Returns the majority allocation of tasks onto cores. A tie for the
  /// most votes goes to the lexicographically smallest canonical key of
  /// vote_table() (e.g. "0,0,1,1" before "0,1,1,0").
  [[nodiscard]] sched::Allocation choose_allocation(const std::vector<std::string>& mix);

  /// Phase 1 for a multi-threaded (PARSEC) mix; the allocation is over ALL
  /// threads, in process-major order, computed by the §3.3.4 two-phase
  /// algorithm regardless of config.allocator.
  [[nodiscard]] sched::Allocation choose_allocation_mt(const std::vector<std::string>& mix);

  /// Vote table of the last choose_allocation* call: canonical key → votes,
  /// in key order; the winner is the first key holding the most votes.
  [[nodiscard]] const std::map<std::string, int>& vote_table() const noexcept { return votes_; }

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] sched::Allocation run_phase1(machine::Machine& m, const std::string& allocator);

  PipelineConfig config_;
  std::map<std::string, int> votes_;
  std::map<std::string, sched::Allocation> vote_allocations_;
};

/// Phase 2, native: run @p mix pinned per @p allocation to completion.
[[nodiscard]] MappingRun measure_mapping(const PipelineConfig& config,
                                         const std::vector<std::string>& mix,
                                         const sched::Allocation& allocation);

/// Phase 2, virtualized: each benchmark in its own VM, vcpus pinned per
/// @p allocation.
[[nodiscard]] MappingRun measure_mapping_vm(const PipelineConfig& config,
                                            const std::vector<std::string>& mix,
                                            const sched::Allocation& allocation);

/// Phase 2, multi-threaded: @p allocation is over threads (process-major);
/// user_cycles aggregates to the per-PROCESS user time the paper reports.
[[nodiscard]] MappingRun measure_mapping_mt(const PipelineConfig& config,
                                            const std::vector<std::string>& mix,
                                            const sched::Allocation& allocation);

/// Build the machine + workloads for a single-threaded mix (shared by the
/// pipeline and the Fig 2/3 benches). Task i runs mix[i].
[[nodiscard]] std::vector<machine::TaskId> add_mix_tasks(machine::Machine& m,
                                                         const std::vector<std::string>& mix,
                                                         const workload::ScaleConfig& scale,
                                                         std::uint64_t seed);

}  // namespace symbiosis::core
