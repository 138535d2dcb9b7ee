// Integration tests for the core façade: profiles, allocation application,
// the two-phase pipeline, and the §5.4 overhead model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/overheads.hpp"
#include "core/profile.hpp"
#include "core/symbiotic_scheduler.hpp"

namespace symbiosis::core {
namespace {

/// A small-but-real pipeline config: tiny machine + very short benchmarks so
/// the end-to-end tests run in tens of milliseconds.
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

TEST(Profile, ExtractsSignatureAndCounters) {
  machine::Machine m(tiny_pipeline().machine);
  const auto ids = add_mix_tasks(m, {"povray", "gobmk"}, tiny_pipeline().scale, 1);
  m.set_affinity(ids[0], 0);
  m.set_affinity(ids[1], 0);
  ASSERT_TRUE(m.run_to_all_complete());
  const auto profiles = collect_profiles(m);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].name, "povray");
  EXPECT_EQ(profiles[0].task_index, 0u);
  EXPECT_EQ(profiles[0].symbiosis_per_core.size(), 2u);
  EXPECT_GT(profiles[1].occupancy_weight, 0.0);
  EXPECT_GE(profiles[0].l2_miss_rate, 0.0);
}

TEST(Profile, ApplyAllocationSetsAffinities) {
  machine::Machine m(tiny_pipeline().machine);
  const auto ids = add_mix_tasks(m, {"povray", "gobmk", "sjeng", "bzip2"},
                                 tiny_pipeline().scale, 1);
  sched::Allocation alloc;
  alloc.groups = 2;
  alloc.group_of = {0, 1, 1, 0};
  apply_allocation(m, ids, alloc);
  EXPECT_EQ(m.task(ids[0]).affinity(), 0u);
  EXPECT_EQ(m.task(ids[1]).affinity(), 1u);
  EXPECT_EQ(m.task(ids[2]).affinity(), 1u);
  EXPECT_EQ(m.task(ids[3]).affinity(), 0u);
}

TEST(Profile, ApplyAllocationValidates) {
  machine::Machine m(tiny_pipeline().machine);
  const auto ids = add_mix_tasks(m, {"povray", "gobmk"}, tiny_pipeline().scale, 1);
  sched::Allocation wrong_size;
  wrong_size.groups = 2;
  wrong_size.group_of = {0};
  EXPECT_THROW(apply_allocation(m, ids, wrong_size), std::invalid_argument);
  sched::Allocation too_many_groups;
  too_many_groups.groups = 4;
  too_many_groups.group_of = {0, 3};
  EXPECT_THROW(apply_allocation(m, ids, too_many_groups), std::invalid_argument);
}

TEST(Pipeline, ChooseAllocationReturnsBalancedMapping) {
  SymbioticScheduler pipeline(tiny_pipeline());
  const auto alloc = pipeline.choose_allocation({"mcf", "libquantum", "povray", "gobmk"});
  EXPECT_EQ(alloc.group_of.size(), 4u);
  EXPECT_EQ(alloc.groups, 2u);
  EXPECT_FALSE(pipeline.vote_table().empty());
  // Balanced: two per core.
  EXPECT_EQ(alloc.members(0).size(), 2u);
}

TEST(Pipeline, VoteTieGoesToSmallestCanonicalKey) {
  // mix_runner's default mix and configuration: its phase 1 ties at the
  // top of the vote table, and the smallest tied key must win.
  PipelineConfig config;
  config.machine.hierarchy.num_cores = 2;
  config.machine.hierarchy.l2.size_bytes = 256 * 1024;
  config.sync_scale();
  config.allocator = "weighted-graph";
  config.seed = 42;
  SymbioticScheduler pipeline(config);
  const auto alloc = pipeline.choose_allocation({"mcf", "libquantum", "povray", "gobmk"});
  const auto& votes = pipeline.vote_table();
  int most = 0;
  for (const auto& [key, count] : votes) most = std::max(most, count);
  std::vector<std::string> tied;
  for (const auto& [key, count] : votes) {
    if (count == most) tied.push_back(key);
  }
  ASSERT_GE(tied.size(), 2u) << "this mix no longer ties; pick one that does";
  EXPECT_EQ(alloc.key(), tied.front());
}

TEST(Pipeline, MeasureMappingProducesUserTimes) {
  const PipelineConfig config = tiny_pipeline();
  sched::Allocation alloc;
  alloc.groups = 2;
  alloc.group_of = {0, 0, 1, 1};
  const MappingRun run = measure_mapping(config, {"povray", "gobmk", "sjeng", "bzip2"}, alloc);
  EXPECT_TRUE(run.completed);
  ASSERT_EQ(run.user_cycles.size(), 4u);
  for (const auto cycles : run.user_cycles) EXPECT_GT(cycles, 0u);
  EXPECT_GT(run.wall_cycles, *std::max_element(run.user_cycles.begin(), run.user_cycles.end()) / 2);
}

TEST(Pipeline, MeasureMappingVmIsSlowerThanNative) {
  PipelineConfig config = tiny_pipeline();
  sched::Allocation alloc;
  alloc.groups = 2;
  alloc.group_of = {0, 0, 1, 1};
  const std::vector<std::string> mix = {"povray", "gobmk", "sjeng", "bzip2"};
  const MappingRun native = measure_mapping(config, mix, alloc);
  config.vm.dom0_region_bytes = 4 * 1024;
  const MappingRun vm = measure_mapping_vm(config, mix, alloc);
  ASSERT_TRUE(native.completed);
  ASSERT_TRUE(vm.completed);
  std::uint64_t native_total = 0, vm_total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    native_total += native.user_cycles[i];
    vm_total += vm.user_cycles[i];
  }
  EXPECT_GT(vm_total, native_total);
}

TEST(Pipeline, MultiThreadedMeasurementAggregatesPerProcess) {
  PipelineConfig config = tiny_pipeline();
  config.scale.length_scale = 0.02;
  const std::vector<std::string> mix = {"blackscholes", "swaptions"};
  sched::Allocation alloc;
  alloc.groups = 2;
  alloc.group_of = {0, 1, 0, 1, 0, 1, 0, 1};  // 8 threads round-robin
  const MappingRun run = measure_mapping_mt(config, mix, alloc);
  EXPECT_TRUE(run.completed);
  ASSERT_EQ(run.names.size(), 2u);  // per PROCESS, not per thread
  EXPECT_EQ(run.names[0], "blackscholes");
  EXPECT_GT(run.user_cycles[0], 0u);
}

TEST(Pipeline, ChooseAllocationMtCoversAllThreads) {
  PipelineConfig config = tiny_pipeline();
  config.scale.length_scale = 0.02;
  SymbioticScheduler pipeline(config);
  const auto alloc = pipeline.choose_allocation_mt({"blackscholes", "ferret"});
  EXPECT_EQ(alloc.group_of.size(), 8u);  // 2 processes x 4 threads
  EXPECT_EQ(alloc.members(0).size(), 4u);
}

TEST(Overheads, PaperArithmetic) {
  // §5.4: dual-core, 3-bit counters -> (2*2+3)/(64+18) = 8.54%; with 25%
  // sampling -> 2.13%.
  OverheadModel unsampled;
  EXPECT_NEAR(unsampled.relative_overhead_paper(), 0.0854, 0.0005);
  OverheadModel sampled;
  sampled.sample_ratio = 0.25;
  EXPECT_NEAR(sampled.relative_overhead_paper(), 0.0213, 0.0005);
  // First-principles 64-byte-line variant is ~6.5x smaller.
  EXPECT_LT(unsampled.relative_overhead_64byte_line(), 0.015);
}

TEST(Overheads, StorageScalesWithCoresAndSampling) {
  OverheadModel dual;
  OverheadModel quad;
  quad.num_cores = 4;
  EXPECT_GT(quad.storage_bytes(65536), dual.storage_bytes(65536));
  OverheadModel sampled = dual;
  sampled.sample_ratio = 0.25;
  EXPECT_DOUBLE_EQ(sampled.storage_bytes(65536), dual.storage_bytes(65536) / 4.0);
}

TEST(Overheads, SoftwareSummaryMentionsRbvTraffic) {
  const std::string summary = software_cost_summary(2, 65536, 240'000'000);
  EXPECT_NE(summary.find("8.00 KB"), std::string::npos);
  EXPECT_NE(summary.find("240000000"), std::string::npos);
}

}  // namespace
}  // namespace symbiosis::core
