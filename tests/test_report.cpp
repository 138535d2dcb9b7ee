// Run-report exporter tests: build/validate round-trips, validator error
// detection on corrupted documents, and the golden-report regression — a
// fixed-seed 2-mix sweep compared field-by-field against the committed
// tests/data/golden_report.json (volatile "timings"/"metrics" sections
// excluded per the DESIGN.md §9 stability policy).
//
// Regenerating the golden file after an INTENTIONAL schema or simulation
// change:  scripts/regen_golden_report.sh  (sets SYMBIOSIS_REGEN_GOLDEN=1
// and reruns this suite, which then rewrites the file instead of comparing).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report.hpp"
#include "obs/json.hpp"

#ifndef SYMBIOSIS_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define SYMBIOSIS_TEST_DATA_DIR"
#endif

namespace symbiosis::core {
namespace {

PipelineConfig tiny_pipeline() {
  PipelineConfig c;
  c.machine.hierarchy.num_cores = 2;
  c.machine.hierarchy.l1 = {1024, 2, 64};
  c.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  c.machine.quantum_cycles = 100'000;
  c.sync_scale();
  c.scale.length_scale = 0.05;
  c.allocator_period_cycles = 500'000;
  c.emulation_cycles = 4'000'000;
  c.measure_max_cycles = 400'000'000;
  return c;
}

/// A hand-built outcome with two mappings — enough structure for the
/// exporter without running a simulation.
MixOutcome synthetic_outcome() {
  MixOutcome outcome;
  outcome.mix = {"mcf", "povray"};
  for (int m = 0; m < 2; ++m) {
    MappingRun run;
    run.allocation.groups = 2;
    run.allocation.group_of = {0, 1};
    run.names = outcome.mix;
    run.user_cycles = {100 + static_cast<std::uint64_t>(m) * 20, 200};
    run.wall_cycles = 500;
    run.completed = true;
    outcome.mappings.push_back(std::move(run));
  }
  outcome.chosen = 0;
  outcome.votes = {{"0,1", 3}};
  return outcome;
}

obs::Json load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::parse(buffer.str());
}

TEST(Report, MixReportValidatesAndRoundTrips) {
  const obs::Json report = build_mix_report(tiny_pipeline(), synthetic_outcome());
  EXPECT_TRUE(validate_report(report).empty());

  // File round trip: write_report_file -> parse -> structurally equal.
  const std::string path = ::testing::TempDir() + "symbiosis_mix_report.json";
  write_report_file(report, path);
  EXPECT_EQ(load_json_file(path), report);
  std::remove(path.c_str());

  // Deterministic sections carry the inputs through exactly.
  EXPECT_EQ(report.at("kind").as_string(), "mix");
  EXPECT_EQ(report.at("config").at("seed").as_u64(), tiny_pipeline().seed);
  const obs::Json& outcome = report.at("outcome");
  EXPECT_EQ(outcome.at("chosen").as_u64(), 0u);
  EXPECT_EQ(outcome.at("mappings").size(), 2u);
  EXPECT_EQ(outcome.at("improvements").as_array()[0].at("name").as_string(), "mcf");
  // mcf: worst 120, chosen 100 -> (120-100)/120.
  EXPECT_DOUBLE_EQ(
      outcome.at("improvements").as_array()[0].at("improvement_vs_worst").as_double(),
      20.0 / 120.0);
}

TEST(Report, ValidatorCatchesCorruptedReports) {
  const PipelineConfig config = tiny_pipeline();
  ASSERT_TRUE(validate_report(build_mix_report(config, synthetic_outcome())).empty());

  {  // Not even an object.
    EXPECT_EQ(validate_report(obs::Json(std::int64_t{7})).size(), 1u);
  }
  {  // Empty object: every required member reported, not just the first.
    const auto problems = validate_report(obs::Json::object());
    EXPECT_GE(problems.size(), 6u);
  }
  {  // Wrong schema stamp and version.
    obs::Json report = build_mix_report(config, synthetic_outcome());
    report.set("schema", obs::Json("not.a.report"));
    report.set("schema_version", obs::Json(std::uint64_t{99}));
    const auto problems = validate_report(report);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("schema"), std::string::npos);
    EXPECT_NE(problems[1].find("99"), std::string::npos);
  }
  {  // Unknown kind.
    obs::Json report = build_mix_report(config, synthetic_outcome());
    report.set("kind", obs::Json("telemetry"));
    const auto problems = validate_report(report);
    // "telemetry" has no required sections, so exactly the kind complaint.
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("unknown report kind"), std::string::npos);
  }
  {  // Chosen index out of range.
    obs::Json report = build_mix_report(config, synthetic_outcome());
    obs::Json outcome = report.at("outcome");
    outcome.set("chosen", obs::Json(std::uint64_t{7}));
    report.set("outcome", std::move(outcome));
    const auto problems = validate_report(report);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("chosen index out of range"), std::string::npos);
  }
  {  // names / user_cycles length mismatch inside a mapping.
    MixOutcome bad = synthetic_outcome();
    bad.mappings[1].names.pop_back();
    const auto problems = validate_report(build_mix_report(config, bad));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("mappings.1"), std::string::npos);
    EXPECT_NE(problems[0].find("lengths differ"), std::string::npos);
  }
}

TEST(Report, OnlineReportValidates) {
  OnlineConfig config;
  config.pipeline = tiny_pipeline();
  OnlineRun run;
  run.names = {"mcf", "povray"};
  run.user_cycles = {100, 200};
  run.wall_cycles = 300;
  run.final_mapping_key = "0|1";
  run.completed = true;
  const obs::Json with_baseline = build_online_report(config, run, &run);
  EXPECT_TRUE(validate_report(with_baseline).empty());
  EXPECT_TRUE(with_baseline.find("baseline"));
  const obs::Json without = build_online_report(config, run);
  EXPECT_TRUE(validate_report(without).empty());
  EXPECT_FALSE(without.find("baseline"));
}

// --- schema v2 -------------------------------------------------------------

/// tiny_pipeline() on the clustered graph: 4 cores in 2 clusters + L3.
PipelineConfig clustered_pipeline() {
  PipelineConfig c = tiny_pipeline();
  c.machine.hierarchy.num_cores = 4;
  c.machine.hierarchy.l2_clusters = 2;
  c.machine.hierarchy.l3 = cachesim::CacheGeometry{64 * 1024, 16, 64};
  return c;
}

TEST(Report, DegenerateTopologyStampsV2WithGraphFields) {
  // The legacy two-level testbeds stamp v2 like every other topology: the
  // machine names its cluster count and shape, and a measured mapping
  // carries l1/l2 level stats (no L3 or partition fields on this machine).
  const PipelineConfig config = tiny_pipeline();
  MixOutcome outcome = synthetic_outcome();
  outcome.mappings[0] = measure_mapping(config, outcome.mix, outcome.mappings[0].allocation);
  const obs::Json report = build_mix_report(config, outcome);
  EXPECT_TRUE(validate_report(report).empty());
  EXPECT_EQ(report.at("schema_version").as_u64(), kReportSchemaVersion);
  const obs::Json& machine = report.at("config").at("machine");
  EXPECT_EQ(machine.at("l2_clusters").as_u64(), 1u);
  EXPECT_FALSE(machine.at("topology").as_string().empty());
  EXPECT_FALSE(machine.find("l3_bytes"));
  EXPECT_FALSE(machine.find("l2_way_partition"));
  const obs::Json& levels = report.at("outcome").at("mappings").as_array()[0].at("levels");
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels.as_array()[0].at("level").as_string(), "l1");
  EXPECT_EQ(levels.as_array()[1].at("level").as_string(), "l2");
  EXPECT_GT(levels.as_array()[0].at("accesses").as_u64(), 0u);
}

TEST(Report, ClusteredTopologyStampsV2WithGraphFieldsAndLevels) {
  MixOutcome outcome = synthetic_outcome();
  for (auto& run : outcome.mappings) {
    run.levels = {{"l1", {100, 80, 20, 5}}, {"l2", {20, 12, 8, 2}}, {"l3", {8, 6, 2, 0}}};
  }
  const obs::Json report = build_mix_report(clustered_pipeline(), outcome);
  EXPECT_TRUE(validate_report(report).empty());
  EXPECT_EQ(report.at("schema_version").as_u64(), kReportSchemaVersion);

  const obs::Json& machine = report.at("config").at("machine");
  EXPECT_EQ(machine.at("l2_clusters").as_u64(), 2u);
  EXPECT_EQ(machine.at("l3_bytes").as_u64(), 64u * 1024);
  EXPECT_EQ(machine.at("l3_ways").as_u64(), 16u);
  EXPECT_EQ(machine.at("l3_replacement").as_string(), "srrip");
  EXPECT_NE(machine.at("topology").as_string().find("2x"), std::string::npos);

  const obs::Json& mapping = report.at("outcome").at("mappings").as_array()[0];
  const obs::Json& levels = mapping.at("levels");
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels.as_array()[0].at("level").as_string(), "l1");
  EXPECT_EQ(levels.as_array()[0].at("hits").as_u64(), 80u);
  EXPECT_EQ(levels.as_array()[2].at("level").as_string(), "l3");
  EXPECT_EQ(levels.as_array()[2].at("evictions").as_u64(), 0u);
}

TEST(Report, WayPartitionsAppearInMachineConfig) {
  PipelineConfig c = clustered_pipeline();
  c.machine.hierarchy.l2_way_partition.ways_per_group = {2, 2};
  c.machine.hierarchy.l3_way_partition.ways_per_group = {8, 8};
  const obs::Json report = build_mix_report(c, synthetic_outcome());
  EXPECT_TRUE(validate_report(report).empty());
  const obs::Json& machine = report.at("config").at("machine");
  ASSERT_TRUE(machine.find("l2_way_partition"));
  EXPECT_EQ(machine.at("l2_way_partition").size(), 2u);
  EXPECT_EQ(machine.at("l2_way_partition").as_array()[0].as_u64(), 2u);
  EXPECT_EQ(machine.at("l3_way_partition").as_array()[1].as_u64(), 8u);
}

TEST(Report, ValidatorChecksLevelEntries) {
  MixOutcome outcome = synthetic_outcome();
  outcome.mappings[0].levels = {{"l1", {10, 8, 2, 0}}};
  obs::Json report = build_mix_report(clustered_pipeline(), outcome);
  ASSERT_TRUE(validate_report(report).empty());

  // Corrupt one level entry: drop its "misses" member.
  obs::Json out = report.at("outcome");
  obs::Json mappings = out.at("mappings");
  obs::Json mapping = mappings.as_array()[0];
  obs::Json levels = obs::Json::array();
  obs::Json entry = obs::Json::object();
  entry.set("level", obs::Json("l1"));
  entry.set("accesses", obs::Json(std::uint64_t{10}));
  entry.set("hits", obs::Json(std::uint64_t{8}));
  entry.set("evictions", obs::Json(std::uint64_t{0}));
  levels.push_back(std::move(entry));
  mapping.set("levels", std::move(levels));
  obs::Json fixed_mappings = obs::Json::array();
  fixed_mappings.push_back(std::move(mapping));
  for (std::size_t i = 1; i < mappings.size(); ++i) {
    fixed_mappings.push_back(mappings.as_array()[i]);
  }
  out.set("mappings", std::move(fixed_mappings));
  report.set("outcome", std::move(out));

  const auto problems = validate_report(report);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("misses"), std::string::npos);
}

TEST(Report, ValidatorAcceptsOnlyV2) {
  // Only v2 is accepted; the retired v1 stamp is rejected by name.
  obs::Json report = build_mix_report(tiny_pipeline(), synthetic_outcome());
  EXPECT_TRUE(validate_report(report).empty());
  for (const std::uint64_t version : {1u, 3u}) {
    report.set("schema_version", obs::Json(version));
    const auto problems = validate_report(report);
    ASSERT_EQ(problems.size(), 1u) << "version " << version;
    EXPECT_NE(problems[0].find("expected 2"), std::string::npos) << problems[0];
  }
}

// --- golden report --------------------------------------------------------

TEST(GoldenReport, FixedSeedSweepMatchesCommittedGolden) {
  // Same tiny configuration the determinism suite uses: 4-program pool,
  // mixes of 2, every program covered once -> a 2-mix sweep.
  const PipelineConfig config = tiny_pipeline();
  const SweepResult sweep =
      run_sweep(config, {"mcf", "libquantum", "povray", "gobmk"}, 2, 1);
  const obs::Json report = build_sweep_report(config, sweep);
  ASSERT_TRUE(validate_report(report).empty());

  const std::string golden_path = std::string(SYMBIOSIS_TEST_DATA_DIR) + "/golden_report.json";
  if (std::getenv("SYMBIOSIS_REGEN_GOLDEN")) {
    write_report_file(report, golden_path);
    GTEST_SKIP() << "regenerated " << golden_path << " — review and commit the diff";
  }

  obs::Json golden;
  try {
    golden = load_json_file(golden_path);
  } catch (const std::exception& e) {
    FAIL() << e.what() << "\nrun scripts/regen_golden_report.sh to create the golden file";
  }
  EXPECT_TRUE(validate_report(golden).empty());

  // Field-by-field compare of the deterministic sections only.
  const auto diffs = obs::json_diff(golden, report, {"timings", "metrics"});
  for (const auto& d : diffs) ADD_FAILURE() << d;
  EXPECT_TRUE(diffs.empty())
      << "golden report drifted; if the change is intentional, rerun "
         "scripts/regen_golden_report.sh and commit the new golden file";
}

}  // namespace
}  // namespace symbiosis::core
