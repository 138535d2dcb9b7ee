// report.hpp — machine-readable run reports (DESIGN.md §9).
//
// Every pipeline driver (mix experiment, pool sweep, online run) can emit
// one JSON document capturing what was run and what came out: the pipeline
// config and seed, per-mapping user times, per-benchmark improvements, a
// snapshot of the global metric registry, and wall-clock phase timings.
// The report is the contract between the library and examples/trace_tools
// (inspect / diff / validate) and the CI smoke job.
//
// Stability policy: everything under "config", "outcomes" and "summary" is
// DETERMINISTIC for a fixed seed and is compared field-by-field by the
// golden-report test. "timings" (host wall-clock) and "metrics" (process-
// global, accumulate across tests) are VOLATILE and excluded from golden
// comparison and from trace_tools diff by default.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/online.hpp"
#include "obs/json.hpp"
#include "obs/stopwatch.hpp"
#include "workload/replayer.hpp"
#include "workload/symt.hpp"

namespace symbiosis::core {

/// Schema identifier + version stamped into (and checked out of) reports.
/// Every topology stamps v2: the machine object carries the cluster count
/// and topology description (plus L3/partition fields when configured) and
/// every measured mapping carries per-level "levels" stats. validate_report
/// accepts only v2.
inline constexpr std::string_view kReportSchema = "symbiosis.run_report";
inline constexpr std::uint64_t kReportSchemaVersion = 2;

/// The pipeline knobs that determine a run's outcome, as a JSON object.
[[nodiscard]] obs::Json pipeline_config_to_json(const PipelineConfig& config);

/// One measured mapping: canonical key, group vector, per-entity user times.
[[nodiscard]] obs::Json mapping_run_to_json(const MappingRun& run);

/// One mix's full outcome: mappings, the phase-1 choice and vote table, and
/// per-benchmark improvement/oracle numbers.
[[nodiscard]] obs::Json mix_outcome_to_json(const MixOutcome& outcome);

/// Snapshot of the global obs::MetricRegistry as an array of samples.
[[nodiscard]] obs::Json metrics_to_json();

/// Phase timings as an array of {phase, ms} objects (volatile by policy).
[[nodiscard]] obs::Json timings_to_json(const obs::PhaseTimings& timings);

/// Report for a single mix experiment (kind = "mix").
[[nodiscard]] obs::Json build_mix_report(const PipelineConfig& config, const MixOutcome& outcome,
                                         const obs::PhaseTimings& timings = {});

/// Report for a pool sweep (kind = "sweep"): all mixes, all outcomes, the
/// per-benchmark summary.
[[nodiscard]] obs::Json build_sweep_report(const PipelineConfig& config, const SweepResult& sweep,
                                           const obs::PhaseTimings& timings = {});

/// Report for a live run vs the OS-default baseline (kind = "online").
/// @p baseline may be nullptr when only the scheduled run was measured.
[[nodiscard]] obs::Json build_online_report(const OnlineConfig& config, const OnlineRun& online,
                                            const OnlineRun* baseline = nullptr,
                                            const obs::PhaseTimings& timings = {});

/// Report for a .symt trace replay (kind = "trace_replay"): a "trace"
/// stanza describing the input (path, threads, records, footprint, r/w
/// ratio) and a "replay" stanza with the hierarchy totals and per-thread
/// replay stats. Deterministic for a fixed trace + machine + chunk, so the
/// replay-determinism regression compares two of these with the volatile
/// sections ("metrics", "timings") excluded — same policy as golden reports.
[[nodiscard]] obs::Json build_trace_replay_report(
    const cachesim::HierarchyConfig& machine, const std::string& trace_path,
    const workload::SymtStats& stats, const workload::ReplayResult& result, std::size_t chunk,
    std::size_t workers, const obs::PhaseTimings& timings = {});

/// Structural validation: schema/version stamp, required sections, member
/// types, cross-field consistency (chosen index in range, user_cycles
/// parallel to names). Returns one message per problem; empty = valid.
/// Used by `trace_tools validate` and the CI smoke job.
[[nodiscard]] std::vector<std::string> validate_report(const obs::Json& report);

/// Pretty-print @p report to @p path (throws std::runtime_error on I/O
/// failure). A trailing newline is appended so the file is POSIX-clean.
void write_report_file(const obs::Json& report, const std::string& path);

}  // namespace symbiosis::core
