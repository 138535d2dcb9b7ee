// online.hpp — live (deployment-mode) symbiotic scheduling.
//
// The paper evaluates with a two-phase methodology (emulate → vote → pin →
// measure) because its phase 1 ran in Simics; the DEPLOYED system it
// describes (§3.2) is a user-level monitor that periodically reads
// signatures and re-pins processes on the live machine. This header
// implements that mode: every allocator period the policy computes a
// mapping and applies it immediately — with a confirmation hysteresis so a
// single noisy window cannot migrate everything (re-pinning is only
// applied after the same mapping wins `confirm_windows` consecutive
// windows; 1 = apply instantly).
//
// run_online_experiment compares live scheduling against the OS default on
// the same mix and also reports a fairness index, connecting to the
// paper's fairness keyword: Jain's index over per-task slowdowns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/symbiotic_scheduler.hpp"

namespace symbiosis::core {

struct OnlineConfig {
  PipelineConfig pipeline{};
  /// Consecutive windows the same mapping must win before it is applied.
  unsigned confirm_windows = 2;
};

/// Outcome of one live-scheduled run.
struct OnlineRun {
  std::vector<std::string> names;
  std::vector<std::uint64_t> user_cycles;   ///< first-completion user time
  std::uint64_t wall_cycles = 0;
  std::size_t repinnings = 0;               ///< times the mapping changed
  std::string final_mapping_key;
  bool completed = false;
};

/// Run @p mix with the allocator live (per OnlineConfig); returns per-task
/// user times and re-pinning statistics. Like run_online_baseline and
/// solo_user_cycles, throws std::invalid_argument when @p mix has fewer
/// programs than the machine has cores.
[[nodiscard]] OnlineRun run_online(const OnlineConfig& config,
                                   const std::vector<std::string>& mix);

/// Run @p mix with NO allocator (OS default placement), for comparison.
[[nodiscard]] OnlineRun run_online_baseline(const OnlineConfig& config,
                                            const std::vector<std::string>& mix);

/// Jain's fairness index over per-task slowdowns relative to @p solo times:
/// (Σx)² / (n·Σx²), 1.0 = perfectly even slowdowns.
[[nodiscard]] double jain_fairness(const std::vector<double>& slowdowns);

/// Convenience: solo user time of each benchmark on an otherwise-idle
/// machine (the slowdown denominator).
[[nodiscard]] std::vector<std::uint64_t> solo_user_cycles(const PipelineConfig& config,
                                                          const std::vector<std::string>& mix);

}  // namespace symbiosis::core
