// Determinism regression suite (DESIGN.md §9): the same seed must produce
// bit-identical sweep results whether the mixes run serially or on a
// ThreadPool with any worker count. Each experiment builds its own Machine
// and writes only its own outcome slot, so worker interleaving must be
// invisible in the result — this suite is what keeps that true.
//
// Also the property tests for summarize_improvements: the production fold
// is checked against an independently written brute-force reference over
// randomly generated outcomes, including the benchmark-absent-from-all-
// mixes edge case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "machine/machine.hpp"
#include "util/determinism.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::core {
namespace {

/// Tiny machine + very short benchmarks: a full 2-mix sweep in well under a
/// second, so running it four times (serial + three pools) stays cheap.
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

const std::vector<std::string> kTinyPool = {"mcf", "libquantum", "povray", "gobmk"};

TEST(Determinism, SweepIsIdenticalForAnyWorkerCount) {
  const PipelineConfig config = tiny_pipeline();
  const SweepResult serial = run_sweep(config, kTinyPool, 2, 1);
  ASSERT_FALSE(serial.outcomes.empty());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    const SweepResult threaded = run_sweep(config, kTinyPool, 2, 1, false, &pool);
    ASSERT_EQ(threaded.mixes, serial.mixes) << workers << " workers";
    // Bit-identical MixOutcomes: every mapping's user/wall cycles, the
    // phase-1 vote table, and the chosen index — not just the summary.
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
    EXPECT_EQ(threaded.summary, serial.summary) << workers << " workers";
  }
}

/// Scaled-down clustered machine: 8 cores in 4 clusters of 2, each cluster
/// sharing a tiny L2 with its own signature unit, all under one shared
/// SRRIP L3 — the non-degenerate graph, end to end, kept small enough that
/// four sweeps finish in seconds. (Phase 1 requires mixes of num_cores
/// distinct benchmarks, so the 8-wide mix below is the largest shape the
/// 12-entry SPEC pool supports with headroom.)
PipelineConfig tiny_clustered_pipeline() {
  PipelineConfig c;
  c.machine.hierarchy.num_cores = 8;
  c.machine.hierarchy.l1 = {1024, 2, 64};
  c.machine.hierarchy.l2 = {8 * 1024, 4, 64};
  c.machine.hierarchy.l2_clusters = 4;
  c.machine.hierarchy.l3 = cachesim::CacheGeometry{64 * 1024, 16, 64};
  c.machine.quantum_cycles = 100'000;
  c.sync_scale();
  c.scale.length_scale = 0.02;
  c.allocator_period_cycles = 500'000;
  c.emulation_cycles = 2'000'000;
  c.measure_max_cycles = 100'000'000;
  return c;
}

TEST(Determinism, ClusteredSweepIsIdenticalForAnyWorkerCount) {
  // The per-cluster filters, shared L3 and the schema-v2 per-level stats
  // must all be worker-count invariant. MappingRun equality covers
  // run.levels, so the per-level counters are pinned too.
  const std::vector<std::string> pool = {"perlbench", "bzip2", "gcc",   "mcf",
                                         "gobmk",     "hmmer", "sjeng", "libquantum"};
  const PipelineConfig config = tiny_clustered_pipeline();
  const SweepResult serial = run_sweep(config, pool, 8, 1);
  ASSERT_FALSE(serial.outcomes.empty());
  for (const auto& outcome : serial.outcomes) {
    for (const auto& run : outcome.mappings) {
      ASSERT_FALSE(run.levels.empty()) << "non-degenerate runs must carry per-level stats";
      EXPECT_EQ(run.levels.back().level, "l3");
    }
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool_of(workers);
    const SweepResult threaded = run_sweep(config, pool, 8, 1, false, &pool_of);
    ASSERT_EQ(threaded.mixes, serial.mixes) << workers << " workers";
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
    EXPECT_EQ(threaded.summary, serial.summary) << workers << " workers";
  }
}

TEST(Determinism, RepeatedSerialRunsAreIdentical) {
  const PipelineConfig config = tiny_pipeline();
  const SweepResult a = run_sweep(config, kTinyPool, 2, 1);
  const SweepResult b = run_sweep(config, kTinyPool, 2, 1);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.summary, b.summary);
}

TEST(Determinism, SeedSelectsTheMixSample) {
  PipelineConfig config = tiny_pipeline();
  const SweepResult a = run_sweep(config, kTinyPool, 2, 1);
  config.seed += 1;
  const SweepResult b = run_sweep(config, kTinyPool, 2, 1);
  // Different seed, same pool: the sample may legitimately coincide for a
  // pool this small, but outcomes must still be self-consistent.
  ASSERT_EQ(a.mixes.size(), b.mixes.size());
  for (const auto& outcome : b.outcomes) {
    EXPECT_EQ(outcome.mix.size(), 2u);
    EXPECT_FALSE(outcome.mappings.empty());
    EXPECT_LT(outcome.chosen, outcome.mappings.size());
  }
}

// --- sweep-grid sharding ---------------------------------------------------

TEST(Determinism, GridSweepIsIdenticalForAnyWorkerCount) {
  // The full (mix x allocator x seed-replicate) grid must be bit-identical
  // for any worker count and any shard cut: cells land at their index and
  // replicate seeds come from per-cell Rng substreams, not shared state.
  const PipelineConfig config = tiny_pipeline();
  const std::vector<std::string> algorithms = {"weighted-graph", "default"};
  const SweepGridResult serial = run_sweep_grid(config, kTinyPool, 2, 1, algorithms, 2);
  ASSERT_FALSE(serial.cells.empty());
  ASSERT_EQ(serial.cells.size(), serial.mixes.size() * algorithms.size() * 2);
  ASSERT_EQ(serial.outcomes.size(), serial.cells.size());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    const SweepGridResult threaded =
        run_sweep_grid(config, kTinyPool, 2, 1, algorithms, 2, false, &pool);
    ASSERT_EQ(threaded.mixes, serial.mixes) << workers << " workers";
    EXPECT_EQ(threaded.cells, serial.cells) << workers << " workers";
    EXPECT_EQ(threaded.outcomes, serial.outcomes) << workers << " workers";
  }
}

TEST(Determinism, GridReplicatesDeriveDistinctSeeds) {
  const PipelineConfig config = tiny_pipeline();
  const SweepGridResult grid = run_sweep_grid(config, kTinyPool, 2, 1, {"weighted-graph"}, 3);
  std::unordered_set<std::uint64_t> derived;
  std::size_t derived_cells = 0;
  for (const auto& cell : grid.cells) {
    if (cell.replicate == 0) {
      EXPECT_EQ(cell.seed, config.seed) << "replicate 0 keeps the configured seed";
    } else {
      EXPECT_NE(cell.seed, config.seed) << "replicate " << cell.replicate;
      derived.insert(cell.seed);
      ++derived_cells;
    }
  }
  // Every derived replicate ran under its own substream seed.
  ASSERT_GT(derived_cells, 0u);
  EXPECT_EQ(derived.size(), derived_cells);
}

TEST(Determinism, GridRejectsDegenerateArguments) {
  const PipelineConfig config = tiny_pipeline();
  EXPECT_THROW(run_sweep_grid(config, kTinyPool, 2, 1, {}), std::invalid_argument);
  EXPECT_THROW(run_sweep_grid(config, kTinyPool, 2, 1, {"default"}, 0), std::invalid_argument);
}

// --- batched machine replay ----------------------------------------------

machine::MachineConfig tiny_machine() {
  machine::MachineConfig m;
  m.hierarchy.num_cores = 2;
  m.hierarchy.l1 = {1024, 2, 64};
  m.hierarchy.l2 = {16 * 1024, 4, 64};
  m.quantum_cycles = 50'000;
  return m;
}

std::unique_ptr<workload::Workload> tiny_task(const std::string& name, std::size_t pid) {
  workload::BenchmarkSpec spec;
  spec.name = name;
  workload::PhaseSpec phase;
  phase.pattern.kind = workload::PatternKind::Zipf;
  phase.pattern.region_bytes = 8 * 1024;
  phase.compute_gap = 5.0;
  phase.refs = 20'000;
  spec.phases = {phase};
  spec.total_refs = 20'000;
  return std::make_unique<workload::Workload>(spec, machine::address_space_base(pid),
                                              util::Rng{pid + 1});
}

void expect_machines_identical(machine::Machine& a, machine::Machine& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.stats().context_switches, b.stats().context_switches);
  EXPECT_EQ(a.stats().steps, b.stats().steps);
  for (machine::TaskId id = 0; id < a.task_count(); ++id) {
    const machine::Task& ta = a.task(id);
    const machine::Task& tb = b.task(id);
    EXPECT_EQ(ta.counters().instructions, tb.counters().instructions) << "task " << id;
    EXPECT_EQ(ta.counters().memory_refs, tb.counters().memory_refs) << "task " << id;
    EXPECT_EQ(ta.counters().l1_misses, tb.counters().l1_misses) << "task " << id;
    EXPECT_EQ(ta.counters().l2_misses, tb.counters().l2_misses) << "task " << id;
    EXPECT_EQ(ta.counters().tlb_misses, tb.counters().tlb_misses) << "task " << id;
    EXPECT_EQ(ta.counters().context_switches, tb.counters().context_switches) << "task " << id;
    EXPECT_EQ(ta.total_user_cycles, tb.total_user_cycles) << "task " << id;
    EXPECT_EQ(ta.completed_runs, tb.completed_runs) << "task " << id;
  }
  const auto& ha = a.hierarchy().l2().stats();
  const auto& hb = b.hierarchy().l2().stats();
  EXPECT_EQ(ha.accesses, hb.accesses);
  EXPECT_EQ(ha.misses, hb.misses);
  EXPECT_EQ(ha.evictions, hb.evictions);
}

TEST(Determinism, RunBatchMatchesRunFor) {
  // Driving the machine batch-by-batch must be bit-identical to one
  // run_for() over the same simulated span: same clocks, same per-task
  // counters, same shared-L2 history.
  machine::Machine a(tiny_machine());
  machine::Machine b(tiny_machine());
  for (std::size_t pid = 0; pid < 3; ++pid) {
    a.add_task(tiny_task("t" + std::to_string(pid), pid));
    b.add_task(tiny_task("t" + std::to_string(pid), pid));
  }

  const std::uint64_t span = 2'000'000;
  a.run_for(span);

  const std::uint64_t deadline = b.now() + span;
  while (b.now() < deadline) {
    if (b.run_batch(1) == 0) break;
  }
  expect_machines_identical(a, b);
}

TEST(Determinism, RunBatchGranularityIsIrrelevant) {
  // 1-batch steps and 64-batch strides must land on the same state.
  machine::Machine a(tiny_machine());
  machine::Machine b(tiny_machine());
  a.add_task(tiny_task("x", 0));
  a.add_task(tiny_task("y", 1));
  b.add_task(tiny_task("x", 0));
  b.add_task(tiny_task("y", 1));

  std::uint64_t ran_a = 0, ran_b = 0;
  for (int i = 0; i < 640; ++i) ran_a += a.run_batch(1);
  for (int i = 0; i < 10; ++i) ran_b += b.run_batch(64);
  ASSERT_EQ(ran_a, 640u);
  ASSERT_EQ(ran_b, 640u);
  expect_machines_identical(a, b);
}

TEST(Determinism, RunBatchReportsExecutedCount) {
  machine::Machine m(tiny_machine());
  m.add_task(tiny_task("solo", 0));
  EXPECT_EQ(m.run_batch(5), 5u);
  EXPECT_GT(m.now(), 0u);
  // A machine with no work executes zero batches.
  machine::Machine idle(tiny_machine());
  EXPECT_EQ(idle.run_batch(5), 0u);
}

// --- summarize_improvements property tests --------------------------------

/// Independent reference implementation: for one benchmark, walk every
/// (outcome, slot) pair the straightforward way and aggregate.
BenchmarkImprovement reference_summary(const std::string& name,
                                       const std::vector<MixOutcome>& outcomes) {
  BenchmarkImprovement agg;
  agg.name = name;
  for (const auto& outcome : outcomes) {
    for (std::size_t i = 0; i < outcome.mix.size(); ++i) {
      if (outcome.mix[i] != name) continue;
      const double improvement = outcome.improvement_vs_worst(i);
      const double oracle = outcome.oracle_improvement(i);
      agg.max_improvement = std::max(agg.max_improvement, improvement);
      agg.sum_improvement += improvement;
      agg.max_oracle = std::max(agg.max_oracle, oracle);
      agg.sum_oracle += oracle;
      ++agg.mixes;
    }
  }
  return agg;
}

/// Random outcome over @p pool: mix of @p mix_size drawn without
/// replacement, 2-4 mappings with arbitrary user cycles (zeros included to
/// exercise the worst==0 guard).
MixOutcome random_outcome(util::Rng& rng, const std::vector<std::string>& pool,
                          std::size_t mix_size) {
  MixOutcome outcome;
  std::vector<std::string> names = pool;
  for (std::size_t i = 0; i < mix_size; ++i) {
    const std::size_t pick = i + static_cast<std::size_t>(rng.next_below(names.size() - i));
    std::swap(names[i], names[pick]);
    outcome.mix.push_back(names[i]);
  }
  const std::size_t mappings = 2 + static_cast<std::size_t>(rng.next_below(3));
  for (std::size_t m = 0; m < mappings; ++m) {
    MappingRun run;
    run.names = outcome.mix;
    for (std::size_t i = 0; i < mix_size; ++i) {
      // ~10% zeros: a benchmark whose worst time is 0 must contribute 0.
      const bool zero = rng.next_below(10) == 0;
      run.user_cycles.push_back(zero ? 0 : 1 + rng.next_below(1'000'000));
    }
    run.completed = true;
    outcome.mappings.push_back(std::move(run));
  }
  outcome.chosen = static_cast<std::size_t>(rng.next_below(outcome.mappings.size()));
  return outcome;
}

TEST(SummarizeImprovements, MatchesBruteForceReference) {
  const std::vector<std::string> pool = {"a", "b", "c", "d", "e", "f"};
  util::Rng rng(20260806);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<MixOutcome> outcomes;
    const std::size_t count = 1 + static_cast<std::size_t>(rng.next_below(6));
    for (std::size_t i = 0; i < count; ++i) outcomes.push_back(random_outcome(rng, pool, 3));

    const auto summary = summarize_improvements(pool, outcomes);
    ASSERT_EQ(summary.size(), pool.size()) << "one entry per pool benchmark, in pool order";
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(summary[i].name, pool[i]);
      // The reference walks (outcome, slot) pairs in the same order, so the
      // floating-point sums must be EXACTLY equal, not just close.
      EXPECT_EQ(summary[i], reference_summary(pool[i], outcomes)) << "trial " << trial;
    }
  }
}

TEST(SummarizeImprovements, BenchmarkAbsentFromAllMixesIsZeroed) {
  const std::vector<std::string> pool = {"present", "absent"};
  util::Rng rng(7);
  std::vector<MixOutcome> outcomes;
  for (int i = 0; i < 4; ++i) outcomes.push_back(random_outcome(rng, {"present"}, 1));

  const auto summary = summarize_improvements(pool, outcomes);
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[1].name, "absent");
  EXPECT_EQ(summary[1].mixes, 0);
  EXPECT_EQ(summary[1].max_improvement, 0.0);
  EXPECT_EQ(summary[1].sum_improvement, 0.0);
  EXPECT_EQ(summary[1].avg_improvement(), 0.0) << "no division by zero mixes";
  EXPECT_EQ(summary[1].avg_oracle(), 0.0);
}

TEST(SummarizeImprovements, EmptyOutcomesYieldPoolOfZeroEntries) {
  const std::vector<std::string> pool = {"x", "y"};
  const auto summary = summarize_improvements(pool, {});
  ASSERT_EQ(summary.size(), 2u);
  for (const auto& entry : summary) {
    EXPECT_EQ(entry.mixes, 0);
    EXPECT_EQ(entry.max_improvement, 0.0);
  }
}

// --- SYM_ORDER_INSENSITIVE (util/determinism.hpp) --------------------------
// The annotation symdet accepts on unordered traversals must (a) compile to
// nothing and (b) only ever mark accumulations that really are commutative:
// the unordered-order fold has to equal the sorted-order fold.

TEST(OrderInsensitiveAnnotation, CommutativeFoldMatchesSortedTraversal) {
  std::unordered_set<std::uint64_t> pages;
  util::Rng rng(21);
  for (int i = 0; i < 500; ++i) pages.insert(rng.next_below(1u << 20));

  std::uint64_t sum = 0, xr = 0;
  SYM_ORDER_INSENSITIVE("integer sum and xor are commutative");
  for (const auto page : pages) {
    sum += page;
    xr ^= page;
  }

  std::vector<std::uint64_t> sorted(pages.begin(), pages.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t sorted_sum = 0, sorted_xr = 0;
  for (const auto page : sorted) {
    sorted_sum += page;
    sorted_xr ^= page;
  }
  EXPECT_EQ(sum, sorted_sum);
  EXPECT_EQ(xr, sorted_xr);
}

}  // namespace
}  // namespace symbiosis::core
