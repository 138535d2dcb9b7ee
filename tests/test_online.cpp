#include "core/online.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace symbiosis::core {
namespace {

OnlineConfig tiny_online() {
  OnlineConfig c;
  c.pipeline.machine.hierarchy.num_cores = 2;
  c.pipeline.machine.hierarchy.l1 = {1024, 2, 64};
  c.pipeline.machine.hierarchy.l2 = {32 * 1024, 4, 64};
  c.pipeline.machine.quantum_cycles = 100'000;
  c.pipeline.sync_scale();
  c.pipeline.scale.length_scale = 0.05;
  c.pipeline.allocator_period_cycles = 500'000;
  c.pipeline.measure_max_cycles = 400'000'000;
  c.confirm_windows = 1;
  return c;
}

TEST(Online, RunsToCompletionAndRepins) {
  const OnlineConfig config = tiny_online();
  const std::vector<std::string> mix = {"mcf", "libquantum", "povray", "gobmk"};
  const OnlineRun run = run_online(config, mix);
  EXPECT_TRUE(run.completed);
  ASSERT_EQ(run.user_cycles.size(), 4u);
  for (const auto cycles : run.user_cycles) EXPECT_GT(cycles, 0u);
  // With confirm_windows = 1 the monitor applies at least its first vote.
  EXPECT_GE(run.repinnings, 1u);
  EXPECT_FALSE(run.final_mapping_key.empty());
}

TEST(Online, BaselineNeverRepins) {
  const OnlineConfig config = tiny_online();
  const std::vector<std::string> mix = {"povray", "gobmk", "sjeng", "bzip2"};
  const OnlineRun run = run_online_baseline(config, mix);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.repinnings, 0u);
}

TEST(Online, ConfirmationHysteresisLimitsRepinning) {
  OnlineConfig eager = tiny_online();
  eager.confirm_windows = 1;
  OnlineConfig cautious = tiny_online();
  cautious.confirm_windows = 4;
  const std::vector<std::string> mix = {"mcf", "libquantum", "povray", "gobmk"};
  const OnlineRun eager_run = run_online(eager, mix);
  const OnlineRun cautious_run = run_online(cautious, mix);
  EXPECT_LE(cautious_run.repinnings, eager_run.repinnings);
}

TEST(Online, RejectsMixWithFewerProgramsThanCores) {
  const OnlineConfig config = tiny_online();
  const std::vector<std::string> empty;
  const std::vector<std::string> one = {"mcf"};
  EXPECT_THROW((void)run_online(config, empty), std::invalid_argument);
  EXPECT_THROW((void)run_online(config, one), std::invalid_argument);
  EXPECT_THROW((void)run_online_baseline(config, one), std::invalid_argument);
  EXPECT_THROW((void)solo_user_cycles(config.pipeline, empty), std::invalid_argument);
}

TEST(Online, JainFairnessIndex) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  // One task slowed 3x, three untouched: (6)^2 / (4 * 12) = 0.75.
  EXPECT_NEAR(jain_fairness({3.0, 1.0, 1.0, 1.0}), 0.75, 1e-12);
  // Fairness decreases as dispersion grows.
  EXPECT_GT(jain_fairness({1.1, 1.0}), jain_fairness({2.0, 1.0}));
}

TEST(Online, SoloBaselinesArePositiveAndPerBenchmark) {
  const OnlineConfig config = tiny_online();
  const std::vector<std::string> mix = {"povray", "mcf"};
  const auto solo = solo_user_cycles(config.pipeline, mix);
  ASSERT_EQ(solo.size(), 2u);
  EXPECT_GT(solo[0], 0u);
  EXPECT_GT(solo[1], 0u);
  EXPECT_NE(solo[0], solo[1]);
}

}  // namespace
}  // namespace symbiosis::core
