#include "workload/parsec_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

namespace symbiosis::workload {
namespace {

TEST(ParsecPool, HasEightDistinctPrograms) {
  const auto& pool = parsec_pool();
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(std::set<std::string>(pool.begin(), pool.end()).size(), 8u);
  EXPECT_TRUE(std::count(pool.begin(), pool.end(), "ferret"));
}

class ParsecModelTest : public testing::TestWithParam<std::string> {};

TEST_P(ParsecModelTest, SpecIsWellFormed) {
  const MtBenchmarkSpec spec = make_parsec_benchmark(GetParam());
  EXPECT_EQ(spec.name, GetParam());
  EXPECT_EQ(spec.threads, 4u);  // the paper runs 4 threads per app
  EXPECT_GT(spec.refs_per_thread, 0u);
  EXPECT_GE(spec.share_prob, 0.0);
  EXPECT_LE(spec.share_prob, 1.0);
  EXPECT_GT(spec.footprint_bytes(), 0u);
}

TEST_P(ParsecModelTest, ThreadsShareTheSharedRegion) {
  const MtBenchmarkSpec spec = make_parsec_benchmark(GetParam());
  const Addr base = Addr{9} << 40;
  auto threads = make_parsec_threads(spec, base, util::Rng{1});
  ASSERT_EQ(threads.size(), 4u);

  // Collect per-thread address sets over the shared region only.
  const Addr shared_end = base + spec.shared_pattern.region_bytes;
  std::vector<std::set<Addr>> shared_touched(4);
  std::vector<std::set<Addr>> private_touched(4);
  for (std::size_t t = 0; t < 4; ++t) {
    for (int i = 0; i < 8000; ++i) {
      const Step step = threads[t]->next();
      if (step.addr < shared_end) {
        shared_touched[t].insert(step.addr);
      } else {
        private_touched[t].insert(step.addr);
      }
    }
  }
  // Shared regions overlap across threads (if the model shares at all).
  if (spec.share_prob > 0.05) {
    std::set<Addr> intersection;
    for (const Addr a : shared_touched[0]) {
      if (shared_touched[1].count(a)) intersection.insert(a);
    }
    EXPECT_FALSE(intersection.empty()) << "threads never touched common lines";
  }
  // Private regions are pairwise disjoint.
  for (std::size_t t1 = 0; t1 < 4; ++t1) {
    for (std::size_t t2 = t1 + 1; t2 < 4; ++t2) {
      for (const Addr a : private_touched[t1]) {
        ASSERT_EQ(private_touched[t2].count(a), 0u)
            << "thread privates overlap at " << a;
      }
    }
  }
}

TEST_P(ParsecModelTest, ThreadsCompleteIndependently) {
  MtBenchmarkSpec spec = make_parsec_benchmark(GetParam());
  spec.refs_per_thread = 100;
  auto threads = make_parsec_threads(spec, 0, util::Rng{2});
  for (auto& thread : threads) {
    while (!thread->complete()) (void)thread->next();
    EXPECT_EQ(thread->refs_issued(), 100u);
    thread->restart();
    EXPECT_EQ(thread->refs_issued(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ParsecModelTest, testing::ValuesIn(parsec_pool()),
                         [](const auto& param_info) { return param_info.param; });

TEST(ParsecModel, ThreadNamesCarryTid) {
  const auto spec = make_parsec_benchmark("ferret");
  auto threads = make_parsec_threads(spec, 0, util::Rng{3});
  EXPECT_EQ(threads[0]->name(), "ferret.t0");
  EXPECT_EQ(threads[3]->name(), "ferret.t3");
  EXPECT_EQ(threads[2]->tid(), 2u);
}

TEST(ParsecModel, UnknownNameThrows) {
  EXPECT_THROW(make_parsec_benchmark("doom3"), std::invalid_argument);
}

TEST(ParsecModel, BadLengthScaleThrows) {
  for (const double bad : {-1.0, 0.0, std::nan(""), HUGE_VAL, 1e300}) {
    ScaleConfig scale;
    scale.length_scale = bad;
    EXPECT_THROW(make_parsec_benchmark("ferret", scale), std::invalid_argument) << bad;
  }
}

TEST(ParsecModel, TidOutOfRangeThrows) {
  const auto spec = make_parsec_benchmark("dedup");
  EXPECT_THROW(ParsecThreadStream(spec, 0, 4, util::Rng{4}), std::invalid_argument);
}

TEST(ParsecModel, FerretIsTheCacheSensitiveOne) {
  // Fig 12's top improver needs a shared working set comparable to the L2.
  ScaleConfig scale;
  const auto ferret = make_parsec_benchmark("ferret", scale);
  const auto blackscholes = make_parsec_benchmark("blackscholes", scale);
  EXPECT_GE(ferret.shared_pattern.region_bytes, scale.l2_bytes / 2);
  EXPECT_LT(blackscholes.shared_pattern.region_bytes, scale.l2_bytes / 8);
}

}  // namespace
}  // namespace symbiosis::workload
