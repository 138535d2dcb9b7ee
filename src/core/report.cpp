#include "core/report.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace symbiosis::core {

namespace {

obs::Json u64_array(const std::vector<std::uint64_t>& values) {
  obs::Json arr = obs::Json::array();
  for (const auto v : values) arr.push_back(obs::Json(v));
  return arr;
}

obs::Json string_array(const std::vector<std::string>& values) {
  obs::Json arr = obs::Json::array();
  for (const auto& v : values) arr.push_back(obs::Json(v));
  return arr;
}

/// Common envelope: schema stamp, kind, config, then kind-specific payload
/// is set by the caller; metrics and timings close the document so the
/// volatile sections sit together at the end.
obs::Json report_envelope(std::string kind, const PipelineConfig& config) {
  obs::Json report = obs::Json::object();
  report.set("schema", obs::Json(kReportSchema));
  report.set("schema_version", obs::Json(kReportSchemaVersion));
  report.set("kind", obs::Json(std::move(kind)));
  report.set("config", pipeline_config_to_json(config));
  return report;
}

void close_envelope(obs::Json& report, const obs::PhaseTimings& timings) {
  report.set("metrics", metrics_to_json());
  report.set("timings", timings_to_json(timings));
}

}  // namespace

obs::Json pipeline_config_to_json(const PipelineConfig& config) {
  const auto& h = config.machine.hierarchy;
  obs::Json machine = obs::Json::object();
  machine.set("cores", obs::Json(static_cast<std::uint64_t>(h.num_cores)));
  machine.set("l1_bytes", obs::Json(static_cast<std::uint64_t>(h.l1.size_bytes)));
  machine.set("l1_ways", obs::Json(static_cast<std::uint64_t>(h.l1.ways)));
  machine.set("l2_bytes", obs::Json(static_cast<std::uint64_t>(h.l2.size_bytes)));
  machine.set("l2_ways", obs::Json(static_cast<std::uint64_t>(h.l2.ways)));
  machine.set("line_bytes", obs::Json(static_cast<std::uint64_t>(h.l1.line_bytes)));
  machine.set("shared_l2", obs::Json(h.shared_l2));
  // Optional graph parts (L3, way partitions) appear only when configured.
  const cachesim::HierarchyTopology topo = h.topology();
  machine.set("l2_clusters", obs::Json(static_cast<std::uint64_t>(topo.clusters())));
  machine.set("topology", obs::Json(topo.describe()));
  if (topo.l3) {
    machine.set("l3_bytes", obs::Json(static_cast<std::uint64_t>(topo.l3->size_bytes)));
    machine.set("l3_ways", obs::Json(static_cast<std::uint64_t>(topo.l3->ways)));
    machine.set("l3_replacement", obs::Json(cachesim::to_string(h.l3_replacement)));
  }
  if (topo.l2_partition.enabled()) {
    machine.set("l2_way_partition", u64_array({topo.l2_partition.ways_per_group.begin(),
                                               topo.l2_partition.ways_per_group.end()}));
  }
  if (topo.l3_partition.enabled()) {
    machine.set("l3_way_partition", u64_array({topo.l3_partition.ways_per_group.begin(),
                                               topo.l3_partition.ways_per_group.end()}));
  }
  machine.set("quantum_cycles", obs::Json(config.machine.quantum_cycles));
  machine.set("quantum_jitter", obs::Json(config.machine.quantum_jitter));
  machine.set("migration_prob", obs::Json(config.machine.migration_prob));

  obs::Json out = obs::Json::object();
  out.set("seed", obs::Json(config.seed));
  out.set("allocator", obs::Json(config.allocator));
  out.set("allocator_period_cycles", obs::Json(config.allocator_period_cycles));
  out.set("emulation_cycles", obs::Json(config.emulation_cycles));
  out.set("measure_max_cycles", obs::Json(config.measure_max_cycles));
  out.set("virtualized", obs::Json(config.virtualized));
  out.set("length_scale", obs::Json(config.scale.length_scale));
  out.set("machine", std::move(machine));
  return out;
}

obs::Json mapping_run_to_json(const MappingRun& run) {
  obs::Json groups = obs::Json::array();
  for (const auto g : run.allocation.group_of) {
    groups.push_back(obs::Json(static_cast<std::uint64_t>(g)));
  }
  obs::Json out = obs::Json::object();
  out.set("key", obs::Json(run.allocation.key()));
  out.set("group_of", std::move(groups));
  out.set("names", string_array(run.names));
  out.set("user_cycles", u64_array(run.user_cycles));
  out.set("wall_cycles", obs::Json(run.wall_cycles));
  out.set("completed", obs::Json(run.completed));
  if (!run.levels.empty()) {
    obs::Json levels = obs::Json::array();
    for (const auto& level : run.levels) {
      obs::Json entry = obs::Json::object();
      entry.set("level", obs::Json(level.level));
      entry.set("accesses", obs::Json(level.stats.accesses));
      entry.set("hits", obs::Json(level.stats.hits));
      entry.set("misses", obs::Json(level.stats.misses));
      entry.set("evictions", obs::Json(level.stats.evictions));
      levels.push_back(std::move(entry));
    }
    out.set("levels", std::move(levels));
  }
  return out;
}

obs::Json mix_outcome_to_json(const MixOutcome& outcome) {
  obs::Json mappings = obs::Json::array();
  for (const auto& run : outcome.mappings) mappings.push_back(mapping_run_to_json(run));

  obs::Json votes = obs::Json::object();
  for (const auto& [key, count] : outcome.votes) {
    votes.set(key, obs::Json(static_cast<std::int64_t>(count)));
  }

  obs::Json improvements = obs::Json::array();
  for (std::size_t i = 0; i < outcome.mix.size(); ++i) {
    obs::Json entry = obs::Json::object();
    entry.set("name", obs::Json(outcome.mix[i]));
    entry.set("worst_user_cycles", obs::Json(outcome.worst_user_cycles(i)));
    entry.set("best_user_cycles", obs::Json(outcome.best_user_cycles(i)));
    entry.set("improvement_vs_worst", obs::Json(outcome.improvement_vs_worst(i)));
    entry.set("oracle_improvement", obs::Json(outcome.oracle_improvement(i)));
    improvements.push_back(std::move(entry));
  }

  obs::Json out = obs::Json::object();
  out.set("mix", string_array(outcome.mix));
  out.set("chosen", obs::Json(static_cast<std::uint64_t>(outcome.chosen)));
  out.set("votes", std::move(votes));
  out.set("mappings", std::move(mappings));
  out.set("improvements", std::move(improvements));
  return out;
}

obs::Json metrics_to_json() {
  obs::Json arr = obs::Json::array();
  for (const auto& sample : obs::MetricRegistry::global().snapshot()) {
    obs::Json entry = obs::Json::object();
    entry.set("name", obs::Json(sample.name));
    entry.set("kind", obs::Json(obs::to_string(sample.kind)));
    switch (sample.kind) {
      case obs::MetricKind::Counter:
        entry.set("count", obs::Json(sample.count));
        break;
      case obs::MetricKind::Gauge:
        entry.set("value", obs::Json(sample.value));
        break;
      case obs::MetricKind::Histogram:
        entry.set("count", obs::Json(sample.count));
        entry.set("sum", obs::Json(sample.sum));
        entry.set("min", obs::Json(sample.min));
        entry.set("max", obs::Json(sample.max));
        entry.set("mean", obs::Json(sample.value));
        break;
    }
    arr.push_back(std::move(entry));
  }
  return arr;
}

obs::Json timings_to_json(const obs::PhaseTimings& timings) {
  obs::Json arr = obs::Json::array();
  for (const auto& [phase, ms] : timings.items()) {
    obs::Json entry = obs::Json::object();
    entry.set("phase", obs::Json(phase));
    entry.set("ms", obs::Json(ms));
    arr.push_back(std::move(entry));
  }
  return arr;
}

obs::Json build_mix_report(const PipelineConfig& config, const MixOutcome& outcome,
                           const obs::PhaseTimings& timings) {
  obs::Json report = report_envelope("mix", config);
  report.set("outcome", mix_outcome_to_json(outcome));
  close_envelope(report, timings);
  return report;
}

obs::Json build_sweep_report(const PipelineConfig& config, const SweepResult& sweep,
                             const obs::PhaseTimings& timings) {
  obs::Json report = report_envelope("sweep", config);

  obs::Json mixes = obs::Json::array();
  for (const auto& mix : sweep.mixes) mixes.push_back(string_array(mix));
  report.set("mixes", std::move(mixes));

  obs::Json outcomes = obs::Json::array();
  for (const auto& outcome : sweep.outcomes) outcomes.push_back(mix_outcome_to_json(outcome));
  report.set("outcomes", std::move(outcomes));

  obs::Json summary = obs::Json::array();
  for (const auto& agg : sweep.summary) {
    obs::Json entry = obs::Json::object();
    entry.set("name", obs::Json(agg.name));
    entry.set("mixes", obs::Json(static_cast<std::int64_t>(agg.mixes)));
    entry.set("max_improvement", obs::Json(agg.max_improvement));
    entry.set("avg_improvement", obs::Json(agg.avg_improvement()));
    entry.set("max_oracle", obs::Json(agg.max_oracle));
    entry.set("avg_oracle", obs::Json(agg.avg_oracle()));
    summary.push_back(std::move(entry));
  }
  report.set("summary", std::move(summary));

  close_envelope(report, timings);
  return report;
}

namespace {

obs::Json online_run_to_json(const OnlineRun& run) {
  obs::Json out = obs::Json::object();
  out.set("names", string_array(run.names));
  out.set("user_cycles", u64_array(run.user_cycles));
  out.set("wall_cycles", obs::Json(run.wall_cycles));
  out.set("repinnings", obs::Json(static_cast<std::uint64_t>(run.repinnings)));
  out.set("final_mapping_key", obs::Json(run.final_mapping_key));
  out.set("completed", obs::Json(run.completed));
  return out;
}

}  // namespace

obs::Json build_online_report(const OnlineConfig& config, const OnlineRun& online,
                              const OnlineRun* baseline, const obs::PhaseTimings& timings) {
  obs::Json report = report_envelope("online", config.pipeline);
  report.set("confirm_windows", obs::Json(static_cast<std::uint64_t>(config.confirm_windows)));
  report.set("online", online_run_to_json(online));
  if (baseline) report.set("baseline", online_run_to_json(*baseline));
  close_envelope(report, timings);
  return report;
}

obs::Json build_trace_replay_report(const cachesim::HierarchyConfig& machine,
                                    const std::string& trace_path,
                                    const workload::SymtStats& stats,
                                    const workload::ReplayResult& result, std::size_t chunk,
                                    std::size_t workers, const obs::PhaseTimings& timings) {
  obs::Json report = obs::Json::object();
  report.set("schema", obs::Json(kReportSchema));
  report.set("schema_version", obs::Json(kReportSchemaVersion));
  report.set("kind", obs::Json("trace_replay"));

  obs::Json machine_json = obs::Json::object();
  machine_json.set("cores", obs::Json(static_cast<std::uint64_t>(machine.num_cores)));
  machine_json.set("l1_bytes", obs::Json(static_cast<std::uint64_t>(machine.l1.size_bytes)));
  machine_json.set("l2_bytes", obs::Json(static_cast<std::uint64_t>(machine.l2.size_bytes)));
  machine_json.set("line_bytes", obs::Json(static_cast<std::uint64_t>(machine.l1.line_bytes)));
  machine_json.set("shared_l2", obs::Json(machine.shared_l2));
  machine_json.set("topology", obs::Json(machine.topology().describe()));
  obs::Json config = obs::Json::object();
  config.set("seed", obs::Json(machine.seed));
  config.set("allocator", obs::Json("none"));
  config.set("machine", std::move(machine_json));
  report.set("config", std::move(config));

  obs::Json trace = obs::Json::object();
  trace.set("path", obs::Json(trace_path));
  trace.set("threads", obs::Json(stats.threads));
  trace.set("records", obs::Json(stats.records));
  trace.set("mem_refs", obs::Json(stats.mem_refs));
  trace.set("writes", obs::Json(stats.writes));
  trace.set("write_ratio", obs::Json(stats.write_ratio()));
  trace.set("sync_events", obs::Json(stats.sync_events));
  trace.set("footprint_lines", obs::Json(stats.footprint_lines));
  report.set("trace", std::move(trace));

  obs::Json totals = obs::Json::object();
  totals.set("accesses", obs::Json(result.totals.accesses));
  totals.set("cycles", obs::Json(result.totals.cycles));
  totals.set("l1_hits", obs::Json(result.totals.l1_hits));
  totals.set("l2_hits", obs::Json(result.totals.l2_hits));
  totals.set("l3_hits", obs::Json(result.totals.l3_hits));
  totals.set("tlb_hits", obs::Json(result.totals.tlb_hits));
  totals.set("stream_prefetched", obs::Json(result.totals.stream_prefetched));

  obs::Json threads = obs::Json::array();
  for (const auto& t : result.threads) {
    obs::Json entry = obs::Json::object();
    entry.set("mem_refs", obs::Json(t.mem_refs));
    entry.set("barriers", obs::Json(t.barriers));
    entry.set("lock_acquires", obs::Json(t.lock_acquires));
    entry.set("lock_releases", obs::Json(t.lock_releases));
    entry.set("signals", obs::Json(t.signals));
    entry.set("waits", obs::Json(t.waits));
    entry.set("blocked_visits", obs::Json(t.blocked_visits));
    threads.push_back(std::move(entry));
  }

  obs::Json replay = obs::Json::object();
  replay.set("chunk", obs::Json(static_cast<std::uint64_t>(chunk)));
  replay.set("workers", obs::Json(static_cast<std::uint64_t>(workers)));
  replay.set("rounds", obs::Json(result.rounds));
  replay.set("sync_events", obs::Json(result.sync_events));
  replay.set("totals", std::move(totals));
  replay.set("threads", std::move(threads));
  report.set("replay", std::move(replay));

  close_envelope(report, timings);
  return report;
}

namespace {

/// Validation helpers accumulating problems instead of throwing: the CLI
/// wants ALL problems, not the first.
void require_member(const obs::Json& obj, std::string_view key, std::string_view type,
                    std::vector<std::string>& problems) {
  const obs::Json* member = obj.find(key);
  if (!member) {
    problems.push_back("missing member: " + std::string(key));
    return;
  }
  const bool ok = (type == "object" && member->is_object()) ||
                  (type == "array" && member->is_array()) ||
                  (type == "string" && member->is_string()) ||
                  (type == "number" && member->is_number()) ||
                  (type == "bool" && member->is_bool());
  if (!ok) {
    problems.push_back(std::string(key) + ": expected " + std::string(type));
  }
}

void validate_mapping(const obs::Json& mapping, const std::string& where,
                      std::vector<std::string>& problems) {
  if (!mapping.is_object()) {
    problems.push_back(where + ": mapping is not an object");
    return;
  }
  for (const auto* key : {"key", "group_of", "names", "user_cycles"}) {
    if (!mapping.find(key)) problems.push_back(where + ": missing " + key);
  }
  const obs::Json* names = mapping.find("names");
  const obs::Json* cycles = mapping.find("user_cycles");
  if (names && cycles && names->is_array() && cycles->is_array() &&
      names->size() != cycles->size()) {
    problems.push_back(where + ": names and user_cycles lengths differ");
  }
  // "levels" is optional (hand-built outcomes may lack it), but when
  // present each entry must carry the full counter set.
  if (const obs::Json* levels = mapping.find("levels")) {
    if (!levels->is_array()) {
      problems.push_back(where + ": levels is not an array");
      return;
    }
    for (std::size_t i = 0; i < levels->size(); ++i) {
      const obs::Json& entry = levels->as_array()[i];
      const std::string entry_where = where + ".levels." + std::to_string(i);
      if (!entry.is_object()) {
        problems.push_back(entry_where + ": not an object");
        continue;
      }
      require_member(entry, "level", "string", problems);
      for (const auto* key : {"accesses", "hits", "misses", "evictions"}) {
        require_member(entry, key, "number", problems);
      }
    }
  }
}

void validate_outcome(const obs::Json& outcome, const std::string& where,
                      std::vector<std::string>& problems) {
  if (!outcome.is_object()) {
    problems.push_back(where + ": outcome is not an object");
    return;
  }
  for (const auto* key : {"mix", "chosen", "votes", "mappings", "improvements"}) {
    if (!outcome.find(key)) problems.push_back(where + ": missing " + key);
  }
  const obs::Json* mappings = outcome.find("mappings");
  const obs::Json* chosen = outcome.find("chosen");
  if (mappings && mappings->is_array()) {
    if (chosen && chosen->is_number() && chosen->as_u64() >= mappings->size()) {
      problems.push_back(where + ": chosen index out of range");
    }
    for (std::size_t i = 0; i < mappings->size(); ++i) {
      validate_mapping(mappings->as_array()[i], where + ".mappings." + std::to_string(i),
                       problems);
    }
  }
}

}  // namespace

std::vector<std::string> validate_report(const obs::Json& report) {
  std::vector<std::string> problems;
  if (!report.is_object()) {
    problems.push_back("report is not a JSON object");
    return problems;
  }

  require_member(report, "schema", "string", problems);
  require_member(report, "schema_version", "number", problems);
  require_member(report, "kind", "string", problems);
  require_member(report, "config", "object", problems);
  require_member(report, "metrics", "array", problems);
  require_member(report, "timings", "array", problems);

  const obs::Json* schema = report.find("schema");
  if (schema && schema->is_string() && schema->as_string() != kReportSchema) {
    problems.push_back("schema: expected \"" + std::string(kReportSchema) + "\", got \"" +
                       schema->as_string() + "\"");
  }
  const obs::Json* version = report.find("schema_version");
  if (version && version->is_number() && version->as_u64() != kReportSchemaVersion) {
    problems.push_back("schema_version: expected " + std::to_string(kReportSchemaVersion) +
                       ", got " + std::to_string(version->as_u64()));
  }

  const obs::Json* config = report.find("config");
  if (config && config->is_object()) {
    require_member(*config, "seed", "number", problems);
    require_member(*config, "allocator", "string", problems);
    require_member(*config, "machine", "object", problems);
  }

  const obs::Json* kind = report.find("kind");
  const std::string kind_name = kind && kind->is_string() ? kind->as_string() : "";
  if (kind_name == "mix") {
    require_member(report, "outcome", "object", problems);
    if (const obs::Json* outcome = report.find("outcome")) {
      validate_outcome(*outcome, "outcome", problems);
    }
  } else if (kind_name == "sweep") {
    require_member(report, "mixes", "array", problems);
    require_member(report, "outcomes", "array", problems);
    require_member(report, "summary", "array", problems);
    const obs::Json* mixes = report.find("mixes");
    const obs::Json* outcomes = report.find("outcomes");
    if (mixes && outcomes && mixes->is_array() && outcomes->is_array()) {
      if (mixes->size() != outcomes->size()) {
        problems.push_back("mixes and outcomes lengths differ");
      }
      for (std::size_t i = 0; i < outcomes->size(); ++i) {
        validate_outcome(outcomes->as_array()[i], "outcomes." + std::to_string(i), problems);
      }
    }
  } else if (kind_name == "online") {
    require_member(report, "online", "object", problems);
  } else if (kind_name == "trace_replay") {
    require_member(report, "trace", "object", problems);
    require_member(report, "replay", "object", problems);
    const obs::Json* trace = report.find("trace");
    if (trace && trace->is_object()) {
      require_member(*trace, "path", "string", problems);
      for (const auto* key : {"threads", "records", "mem_refs", "sync_events"}) {
        require_member(*trace, key, "number", problems);
      }
    }
    const obs::Json* replay = report.find("replay");
    if (replay && replay->is_object()) {
      require_member(*replay, "rounds", "number", problems);
      require_member(*replay, "totals", "object", problems);
      require_member(*replay, "threads", "array", problems);
      if (const obs::Json* totals = replay->find("totals")) {
        if (totals->is_object()) {
          require_member(*totals, "accesses", "number", problems);
          require_member(*totals, "cycles", "number", problems);
        }
      }
      const obs::Json* rthreads = replay->find("threads");
      const obs::Json* tthreads = trace && trace->is_object() ? trace->find("threads") : nullptr;
      if (rthreads && rthreads->is_array() && tthreads && tthreads->is_number() &&
          rthreads->size() != tthreads->as_u64()) {
        problems.push_back("replay.threads length disagrees with trace.threads");
      }
    }
  } else if (!kind_name.empty()) {
    problems.push_back("kind: unknown report kind \"" + kind_name + "\"");
  }

  return problems;
}

void write_report_file(const obs::Json& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_report_file: cannot open " + path);
  out << report.dump(2) << '\n';
  if (!out) throw std::runtime_error("write_report_file: write failed: " + path);
}

}  // namespace symbiosis::core
