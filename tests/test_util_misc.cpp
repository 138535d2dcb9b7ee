// Tests for TextTable, CsvWriter, ArgParser, logger, ThreadPool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
  EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(TextTable, RaggedRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3", "4"});
  EXPECT_FALSE(t.str().empty());
  EXPECT_EQ(t.rows(), 2u);
}

TEST(CsvWriter, QuotesSpecialCells) {
  const std::string path = testing::TempDir() + "/symbiosis_test.csv";
  {
    CsvWriter csv(path);
    csv.row({"plain", "with,comma", "with\"quote", "multi\nline"});
    csv.row_numeric({1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\",\"multi");
  std::getline(in, line);
  EXPECT_EQ(line, "line\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
}

TEST(CsvWriter, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(ArgParser, ParsesAllKinds) {
  ArgParser args("prog", "test");
  auto& s = args.add_string("name", "a string", "default");
  auto& i = args.add_i64("count", "an int", -1);
  auto& u = args.add_u64("seed", "a u64", 7);
  auto& d = args.add_double("ratio", "a double", 0.5);
  auto& f = args.add_flag("verbose", "a flag");
  const char* argv[] = {"prog", "--name=x",  "--count", "-42", "--seed=123",
                        "--ratio", "2.25", "--verbose", "positional"};
  ASSERT_TRUE(args.parse(9, argv));
  EXPECT_EQ(s, "x");
  EXPECT_EQ(i, -42);
  EXPECT_EQ(u, 123u);
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_TRUE(f);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ArgParser, DefaultsSurviveEmptyArgv) {
  ArgParser args("prog", "test");
  auto& u = args.add_u64("seed", "seed", 42);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(u, 42u);
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(args.parse(2, argv));
  EXPECT_EQ(args.exit_status(), 2);
}

TEST(ArgParser, RejectsBadNumber) {
  for (const char* arg : {"--n=abc", "--u=-1", "--f=ture"}) {
    ArgParser args("prog", "test");
    args.add_i64("n", "int", 0);
    auto& u = args.add_u64("u", "u64", 3);
    auto& f = args.add_flag("f", "flag");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(args.parse(2, argv)) << arg;
    EXPECT_EQ(args.exit_status(), 2) << arg;
    EXPECT_EQ(u, 3u) << arg;
    EXPECT_FALSE(f) << arg;
  }
}

TEST(ArgParser, FlagTakesExplicitValues) {
  ArgParser args("prog", "test");
  auto& f = args.add_flag("verbose", "a flag");
  const char* on[] = {"prog", "--verbose=yes"};
  ASSERT_TRUE(args.parse(2, on));
  EXPECT_TRUE(f);
  const char* off[] = {"prog", "--verbose", "--verbose=no"};
  ASSERT_TRUE(args.parse(3, off));
  EXPECT_FALSE(f);
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.parse(2, argv));
  EXPECT_EQ(args.exit_status(), 0);
}

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::Info);
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  SYMBIOSIS_LOG_DEBUG("should be dropped %d", 1);
  set_log_level(before);
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(1);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ShardedCoversAllForAnyGrain) {
  ThreadPool pool(4);
  // Grains that divide the range, leave a remainder shard, exceed it, and
  // degenerate to parallel_for must all visit every index exactly once.
  for (const std::size_t grain : {1ul, 3ul, 7ul, 50ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(101);
    pool.parallel_for_sharded(0, 101, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPool, ShardedRunsShardIndicesInAscendingOrder) {
  ThreadPool pool(2);
  // Record each index's observation order within its shard; a shard task
  // runs its slice serially in ascending order by contract.
  constexpr std::size_t kGrain = 16;
  std::vector<int> order(64, -1);
  std::array<std::atomic<int>, 4> shard_seq{};
  pool.parallel_for_sharded(
      0, 64,
      [&](std::size_t i) { order[i] = shard_seq[i / kGrain].fetch_add(1); },
      kGrain);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % kGrain)) << "index " << i;
  }
}

TEST(ThreadPool, ShardedPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_sharded(
                   0, 20,
                   [](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
}

TEST(ThreadPool, ShardedEmptyRangeIsNoop) {
  ThreadPool pool(1);
  pool.parallel_for_sharded(9, 9, [](std::size_t) { FAIL(); }, 4);
}

}  // namespace
}  // namespace symbiosis::util
