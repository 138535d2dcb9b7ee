// Differential suite: the optimised hot-path kernels (cached-geometry cache
// access, single-index and deduplicated multi-index filter events,
// word-parallel bit-vector metrics, batched hierarchy replay) are checked
// against the deliberately naive models in tests/reference/ on tens of
// thousands of randomised accesses. Any divergence — a result field, a
// counter, a stats entry — is a bug in one of the two implementations.
//
// The suite runs under the plain, asan-ubsan and tsan presets (it is part of
// symbiosis_tests), so the optimised kernels also get sanitizer coverage on
// exactly the adversarial inputs that exercise their fast paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "reference/reference_kernels.hpp"
#include "sig/bitvector.hpp"
#include "sig/filter_unit.hpp"
#include "util/rng.hpp"

namespace symbiosis {
namespace {

constexpr std::size_t kAccessesPerKernel = 10000;

void expect_stats_eq(const cachesim::CacheStats& got, const cachesim::CacheStats& want,
                     const char* label) {
  EXPECT_EQ(got.accesses, want.accesses) << label;
  EXPECT_EQ(got.hits, want.hits) << label;
  EXPECT_EQ(got.misses, want.misses) << label;
  EXPECT_EQ(got.evictions, want.evictions) << label;
  EXPECT_EQ(got.writebacks, want.writebacks) << label;
}

// ---------------------------------------------------------------------------
// Cache access vs ReferenceCache (LRU and FIFO).
// ---------------------------------------------------------------------------

void run_cache_differential(cachesim::ReplacementKind replacement, std::uint64_t seed) {
  // 16 sets x 4 ways over a 128-line address space: heavy conflict pressure
  // so evictions, dirty writebacks and way-reuse all happen constantly.
  const cachesim::CacheGeometry geom{4096, 4, 64};
  const std::size_t requestors = 3;
  cachesim::Cache opt(geom, replacement, requestors);
  testref::ReferenceCache ref(geom, replacement, requestors);

  util::Rng rng(seed);
  for (std::size_t i = 0; i < kAccessesPerKernel; ++i) {
    const cachesim::LineAddr line = rng.next_below(128);
    const bool is_write = rng.next_bool(0.3);
    const auto requestor = static_cast<std::size_t>(rng.next_below(requestors));

    const cachesim::AccessResult got = opt.access(line, is_write, requestor);
    const cachesim::AccessResult want = ref.access(line, is_write, requestor);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.set, want.set) << "access " << i;
    ASSERT_EQ(got.way, want.way) << "access " << i;
    ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
    ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
    ASSERT_EQ(got.victim_dirty, want.victim_dirty) << "access " << i;
  }

  expect_stats_eq(opt.stats(), ref.stats(), "total");
  for (std::size_t r = 0; r < requestors; ++r) {
    expect_stats_eq(opt.stats_for(r), ref.stats_for(r), "per-requestor");
    EXPECT_EQ(opt.occupancy(r), ref.occupancy(r));
  }
  EXPECT_EQ(opt.occupancy(), ref.occupancy(cachesim::Cache::kAnyRequestor));
}

TEST(DifferentialCache, LruMatchesReference) {
  run_cache_differential(cachesim::ReplacementKind::Lru, 11);
}

TEST(DifferentialCache, FifoMatchesReference) {
  run_cache_differential(cachesim::ReplacementKind::Fifo, 12);
}

TEST(DifferentialCache, LruWideGeometryMatchesReference) {
  // A second geometry (64 sets x 16 ways) so the cached set_mask_/set_bits_
  // fast path is exercised at a different width than the tiny case.
  const cachesim::CacheGeometry geom{64 * 16 * 64, 16, 64};
  cachesim::Cache opt(geom, cachesim::ReplacementKind::Lru, 2);
  testref::ReferenceCache ref(geom, cachesim::ReplacementKind::Lru, 2);
  util::Rng rng(13);
  for (std::size_t i = 0; i < kAccessesPerKernel; ++i) {
    // Sparse high-bit addresses: tags far wider than the set index.
    const cachesim::LineAddr line = rng() >> rng.next_below(40);
    const bool is_write = rng.next_bool(0.5);
    const auto requestor = static_cast<std::size_t>(rng.next_below(2));
    const cachesim::AccessResult got = opt.access(line, is_write, requestor);
    const cachesim::AccessResult want = ref.access(line, is_write, requestor);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.way, want.way) << "access " << i;
    ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
  }
  expect_stats_eq(opt.stats(), ref.stats(), "total");
}

// ---------------------------------------------------------------------------
// FilterUnit vs ReferenceFilterUnit, driven by matched fill/evict pairs.
// ---------------------------------------------------------------------------

void run_filter_differential(const sig::FilterUnitConfig& config, std::uint64_t seed,
                             bool expect_saturation = false) {
  sig::FilterUnit opt(config);
  testref::ReferenceFilterUnit ref(config);

  // A shadow tag array generates realistic event streams: filling an
  // occupied (set, way) evicts its previous line first, as the L2 would.
  struct Slot {
    sig::LineAddr line = 0;
    bool valid = false;
  };
  std::vector<Slot> slots(config.cache_sets * config.cache_ways);

  util::Rng rng(seed);
  for (std::size_t i = 0; i < kAccessesPerKernel; ++i) {
    const auto set = static_cast<std::size_t>(rng.next_below(config.cache_sets));
    const auto way = static_cast<std::size_t>(rng.next_below(config.cache_ways));
    const auto core = static_cast<std::size_t>(rng.next_below(config.num_cores));
    Slot& slot = slots[set * config.cache_ways + way];
    if (slot.valid) {
      opt.on_evict(slot.line, set, way);
      ref.on_evict(slot.line, set, way);
    }
    slot.line = rng.next_below(1 << 18);
    slot.valid = true;
    opt.on_fill(slot.line, core, set, way);
    ref.on_fill(slot.line, core, set, way);

    if (rng.next_bool(0.01)) {
      const auto snap = static_cast<std::size_t>(rng.next_below(config.num_cores));
      opt.snapshot(snap);
      ref.snapshot(snap);
    }

    if (i % 1000 == 0) {
      for (std::size_t c = 0; c < config.num_cores; ++c) {
        ASSERT_EQ(opt.core_filter_weight(c), ref.cf(c).size()) << "event " << i;
        const sig::BitVector rbv = opt.compute_rbv(c);
        ASSERT_EQ(rbv.popcount(), ref.rbv(c).size()) << "event " << i;
        for (std::size_t o = 0; o < config.num_cores; ++o) {
          ASSERT_EQ(opt.symbiosis(rbv, o),
                    testref::ReferenceFilterUnit::sym_diff(ref.rbv(c), ref.cf(o)))
              << "event " << i;
        }
        ASSERT_EQ(opt.self_symbiosis(rbv, c),
                  testref::ReferenceFilterUnit::sym_diff(ref.rbv(c), ref.lf(c)))
            << "event " << i;
        // The batched one-pass evaluation must agree with the per-core calls.
        const std::vector<std::size_t> batched = opt.symbiosis_all(rbv, c);
        ASSERT_EQ(batched.size(), config.num_cores);
        for (std::size_t o = 0; o < config.num_cores; ++o) {
          ASSERT_EQ(batched[o],
                    o == c ? opt.self_symbiosis(rbv, c) : opt.symbiosis(rbv, o))
              << "event " << i << " core " << o;
        }
      }
      opt.validate();
    }
  }

  for (std::size_t e = 0; e < opt.entries(); ++e) {
    ASSERT_EQ(opt.counter_at(e), ref.counter_at(e)) << "counter " << e;
  }
  for (std::size_t c = 0; c < config.num_cores; ++c) {
    for (std::size_t e = 0; e < opt.entries(); ++e) {
      ASSERT_EQ(opt.core_filter(c).test(e), ref.cf(c).count(e) != 0)
          << "core " << c << " CF bit " << e;
      ASSERT_EQ(opt.last_filter(c).test(e), ref.lf(c).count(e) != 0)
          << "core " << c << " LF bit " << e;
    }
  }
  if (expect_saturation) {
    EXPECT_GT(opt.saturated_counters(), 0u);
  }
}

TEST(DifferentialFilterUnit, SingleHash) {
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 64;
  config.cache_ways = 4;
  config.counter_bits = 3;
  config.hash_functions = 1;  // the paper's configuration → single_index_ fast path
  run_filter_differential(config, 31);
}

TEST(DifferentialFilterUnit, MultiHash) {
  sig::FilterUnitConfig config;
  config.num_cores = 4;
  config.cache_sets = 64;
  config.cache_ways = 4;
  config.counter_bits = 3;
  config.hash_functions = 3;  // generic dedup path
  run_filter_differential(config, 32);
}

TEST(DifferentialFilterUnit, SampledSets) {
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 64;
  config.cache_ways = 4;
  config.counter_bits = 3;
  config.hash_functions = 1;
  config.sample_shift = 2;  // the paper's 25% set sampling
  run_filter_differential(config, 33);
}

TEST(DifferentialFilterUnit, PresenceMode) {
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 32;
  config.cache_ways = 4;
  config.counter_bits = 3;
  config.hash = sig::HashKind::Presence;
  run_filter_differential(config, 34);
}

TEST(DifferentialFilterUnit, ModuloTwelveWay) {
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 64;
  config.cache_ways = 12;  // 768 entries: not a power of two
  config.counter_bits = 3;
  config.hash = sig::HashKind::Modulo;
  run_filter_differential(config, 35);
}

TEST(DifferentialFilterUnit, MultiHashNarrowCountersSaturate) {
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 8;
  config.cache_ways = 4;   // 32 entries carry up to 32 live lines x 3 hashes
  config.counter_bits = 2;  // saturates at 3: the stuck-at-max evict path runs
  config.hash_functions = 3;
  run_filter_differential(config, 36, /*expect_saturation=*/true);
}

TEST(DifferentialCbf, FourBitSaturationSmallFilter) {
  // 4-bit counters crammed into 32 entries by k = 8: counters pin at 15
  // and the stuck-at-max evict path runs constantly.
  sig::FilterUnitConfig config;
  config.num_cores = 2;
  config.cache_sets = 8;
  config.cache_ways = 4;
  config.counter_bits = 4;
  config.hash_functions = 8;
  run_filter_differential(config, 25, /*expect_saturation=*/true);
}

// ---------------------------------------------------------------------------
// Word-parallel BitVector metrics vs per-bit scans.
// ---------------------------------------------------------------------------

TEST(DifferentialBitVector, PopcountsMatchPerBitScan) {
  util::Rng rng(41);
  for (const std::size_t bits : {1ul, 63ul, 64ul, 65ul, 100ul, 1000ul, 4095ul}) {
    sig::BitVector a(bits);
    sig::BitVector b(bits);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t flips = 0; flips < bits / 2 + 1; ++flips) {
        const auto i = static_cast<std::size_t>(rng.next_below(bits));
        if (rng.next_bool(0.7)) {
          a.set(i);
        } else {
          a.clear(i);
        }
        const auto j = static_cast<std::size_t>(rng.next_below(bits));
        if (rng.next_bool(0.5)) {
          b.set(j);
        } else {
          b.clear(j);
        }
      }
      ASSERT_EQ(a.popcount(), testref::naive_popcount(a)) << bits;
      ASSERT_EQ(a.xor_popcount(b), testref::naive_xor_popcount(a, b)) << bits;

      sig::BitVector rbv(bits);
      rbv.assign_and_not(a, b);
      std::size_t naive_and_not = 0;
      for (std::size_t i = 0; i < bits; ++i) naive_and_not += a.test(i) && !b.test(i);
      ASSERT_EQ(rbv.popcount(), naive_and_not) << bits;
    }
  }
}

TEST(DifferentialBitVector, ZeroWidthVectorsAreWellDefined) {
  sig::BitVector a(0);
  sig::BitVector b(0);
  EXPECT_EQ(a.popcount(), 0u);
  EXPECT_EQ(a.xor_popcount(b), 0u);
  sig::BitVector rbv(0);
  rbv.assign_and_not(a, b);
  EXPECT_EQ(rbv.popcount(), 0u);
  EXPECT_EQ(a.fill_ratio(), 0.0);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Hierarchy::access_batch vs serial access(): bit-identical replay.
// ---------------------------------------------------------------------------

cachesim::HierarchyConfig tiny_hierarchy() {
  cachesim::HierarchyConfig config;
  config.num_cores = 2;
  config.l1 = {1024, 2, 64};
  config.l2 = {8 * 1024, 4, 64};
  return config;
}

void run_batch_differential(std::size_t chunk, std::uint64_t seed) {
  const cachesim::HierarchyConfig config = tiny_hierarchy();
  cachesim::Hierarchy serial(config);
  cachesim::Hierarchy batched(config);

  util::Rng rng(seed);
  std::vector<cachesim::MemRef> refs(chunk);
  std::vector<cachesim::MemAccessResult> got(chunk);
  std::size_t total = 0;
  cachesim::Addr cursor = 0;

  while (total < kAccessesPerKernel) {
    const auto core = static_cast<std::size_t>(rng.next_below(config.num_cores));
    for (std::size_t i = 0; i < chunk; ++i) {
      // Mix sequential runs (stream-prefetch detection) with random jumps.
      if (rng.next_bool(0.6)) {
        cursor += 64;
      } else {
        cursor = rng.next_below(1 << 22);
      }
      refs[i] = {cursor, rng.next_bool(0.3)};
    }

    cachesim::BatchSummary want{};
    std::vector<cachesim::MemAccessResult> expected(chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      expected[i] = serial.access(core, refs[i].addr, refs[i].is_write);
      ++want.accesses;
      want.cycles += expected[i].cycles;
      want.l1_hits += expected[i].l1_hit;
      want.l2_hits += expected[i].l2_hit;
      want.tlb_hits += expected[i].tlb_hit;
      want.stream_prefetched += expected[i].stream_prefetched;
    }

    const cachesim::BatchSummary summary = batched.access_batch(core, refs.data(), chunk,
                                                                got.data());
    ASSERT_EQ(summary, want) << "chunk at access " << total;
    for (std::size_t i = 0; i < chunk; ++i) {
      ASSERT_EQ(got[i], expected[i]) << "access " << total + i;
    }

    // Occasional context switches so TLB flushes and LF snapshots are part
    // of the interleaving on both sides.
    if (rng.next_bool(0.05)) {
      serial.on_context_switch_in(core);
      batched.on_context_switch_in(core);
    }
    total += chunk;
  }

  for (std::size_t c = 0; c < config.num_cores; ++c) {
    expect_stats_eq(batched.l1(c).stats(), serial.l1(c).stats(), "l1");
    EXPECT_EQ(batched.tlb(c).hits(), serial.tlb(c).hits());
    EXPECT_EQ(batched.tlb(c).misses(), serial.tlb(c).misses());
    EXPECT_EQ(batched.l2_footprint(c), serial.l2_footprint(c));
  }
  expect_stats_eq(batched.l2().stats(), serial.l2().stats(), "l2");
  ASSERT_NE(batched.filter(), nullptr);
  for (std::size_t c = 0; c < config.num_cores; ++c) {
    EXPECT_EQ(batched.filter()->core_filter(c), serial.filter()->core_filter(c));
    EXPECT_EQ(batched.filter()->last_filter(c), serial.filter()->last_filter(c));
  }
}

TEST(DifferentialHierarchyBatch, ChunkOf1) { run_batch_differential(1, 51); }
TEST(DifferentialHierarchyBatch, ChunkOf7) { run_batch_differential(7, 52); }
TEST(DifferentialHierarchyBatch, ChunkOf64) { run_batch_differential(64, 53); }
TEST(DifferentialHierarchyBatch, ChunkOf1000) { run_batch_differential(1000, 54); }

TEST(DifferentialHierarchyBatch, NullResultsPointerAndEmptyBatch) {
  const cachesim::HierarchyConfig config = tiny_hierarchy();
  cachesim::Hierarchy h(config);
  const cachesim::BatchSummary empty = h.access_batch(0, nullptr, 0);
  EXPECT_EQ(empty, cachesim::BatchSummary{});

  std::vector<cachesim::MemRef> refs;
  util::Rng rng(55);
  for (int i = 0; i < 256; ++i) {
    refs.push_back({rng.next_below(1 << 20), rng.next_bool(0.5)});
  }
  const cachesim::BatchSummary summary = h.access_batch(1, refs.data(), refs.size());
  EXPECT_EQ(summary.accesses, refs.size());
  EXPECT_GT(summary.cycles, 0u);
}

}  // namespace
}  // namespace symbiosis
