// hierarchy.hpp — the memory system as a composable cache graph.
//
// This is the substrate standing in for Simics + g-cache: it decides
// hit/miss at each level, charges a simple additive latency, enforces
// inclusion downward, and drives the per-cluster sig::FilterUnits on every
// L2 fill and replacement. The graph (cachesim/topology.hpp) is per-core
// L1s → per-cluster shared L2s → optional single shared L3; the paper's two
// testbeds are its degenerate instances and stay bit-identical to the
// pre-graph two-level implementation:
//   * shared L2  — Intel Core 2 Duo (4MB 16-way shared), the main machine;
//   * private L2 — P4 Xeon SMP (2MB 8-way per processor), Fig 3(a).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cachesim/addr.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/tlb.hpp"
#include "cachesim/topology.hpp"
#include "sig/filter_unit.hpp"

namespace symbiosis::cachesim {

/// Additive access latencies in core cycles.
struct LatencyModel {
  std::uint32_t l1_hit = 3;
  std::uint32_t l2_hit = 14;
  /// Charged per L3 lookup; only topologies with an L3 ever pay it.
  std::uint32_t l3_hit = 40;
  std::uint32_t memory = 200;
  /// Effective cost of a last-level miss inside a detected stream: the
  /// stride prefetcher / MLP overlaps most of the memory latency, which is
  /// what lets real streaming programs (libquantum, hmmer) churn the shared
  /// cache fast enough to hurt co-runners.
  std::uint32_t stream_miss = 22;
  std::uint32_t tlb_miss = 30;
};

/// Signature-hardware knobs (geometry comes from the L2).
struct SignatureConfig {
  bool enabled = true;
  unsigned counter_bits = 3;
  unsigned hash_functions = 1;
  sig::HashKind hash = sig::HashKind::Xor;
  unsigned sample_shift = 0;  ///< 2 = the paper's 25% set sampling
};

struct HierarchyConfig {
  std::size_t num_cores = 2;
  CacheGeometry l1{8 * 1024, 8, 64};
  CacheGeometry l2{256 * 1024, 16, 64};
  bool shared_l2 = true;
  ReplacementKind l1_replacement = ReplacementKind::Lru;
  ReplacementKind l2_replacement = ReplacementKind::Lru;
  LatencyModel latency{};
  SignatureConfig signature{};
  std::size_t tlb_entries = 64;
  std::uint64_t seed = 1;

  // --- graph extensions (defaults keep the legacy two-level shape) ---

  /// Shared-L2 cluster count: cores split into equal groups, each sharing
  /// one L2 (1 = the legacy single shared L2). Ignored when !shared_l2.
  std::size_t l2_clusters = 1;
  /// Optional shared inclusive L3 below every cluster L2.
  std::optional<CacheGeometry> l3;
  ReplacementKind l3_replacement = ReplacementKind::Srrip;
  /// CAT-style way partitions of the shared levels (empty = unpartitioned):
  /// L2 groups are cluster-LOCAL cores, L3 groups are clusters.
  CachePartition l2_way_partition;
  CachePartition l3_way_partition;

  /// The cache graph this config describes (see topology.hpp).
  [[nodiscard]] HierarchyTopology topology() const {
    HierarchyTopology t;
    t.num_cores = num_cores;
    t.l2_shared = shared_l2;
    t.l2_clusters = l2_clusters;
    t.l1 = l1;
    t.l2 = l2;
    t.l3 = l3;
    t.l1_replacement = l1_replacement;
    t.l2_replacement = l2_replacement;
    t.l3_replacement = l3_replacement;
    t.l2_partition = l2_way_partition;
    t.l3_partition = l3_way_partition;
    return t;
  }
};

/// Result of one memory access through the hierarchy.
struct MemAccessResult {
  std::uint32_t cycles = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  bool l3_hit = false;  ///< always false on topologies without an L3
  bool tlb_hit = false;
  bool stream_prefetched = false;  ///< last-level miss served at stream_miss cost

  [[nodiscard]] bool operator==(const MemAccessResult&) const noexcept = default;
};

/// One reference of a replayed trace (batched-access input element).
struct MemRef {
  Addr addr = 0;
  bool is_write = false;
};

/// Aggregate outcome of one access_batch() call.
struct BatchSummary {
  std::uint64_t accesses = 0;
  std::uint64_t cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t stream_prefetched = 0;

  [[nodiscard]] bool operator==(const BatchSummary&) const noexcept = default;

  /// Accumulate another batch (trace replay sums per-chunk summaries).
  BatchSummary& operator+=(const BatchSummary& other) noexcept {
    accesses += other.accesses;
    cycles += other.cycles;
    l1_hits += other.l1_hits;
    l2_hits += other.l2_hits;
    l3_hits += other.l3_hits;
    tlb_hits += other.tlb_hits;
    stream_prefetched += other.stream_prefetched;
    return *this;
  }
};

/// Aggregate counters of one cache level (all caches of that level summed);
/// the per-level run-report payload (schema v2).
struct LevelStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] bool operator==(const LevelStats&) const noexcept = default;
};

/// The memory hierarchy of one simulated machine.
class Hierarchy {
 public:
  explicit Hierarchy(HierarchyConfig config);

  /// One load/store by @p core at byte address @p addr.
  MemAccessResult access(std::size_t core, Addr addr, bool is_write);

  /// Batched trace replay: process @p n references for @p core exactly as n
  /// successive access() calls would (bit-identical results, stats, filter
  /// and replacement state — the differential suite pins this down), but
  /// with the per-access overhead (core-indexed lookups, cluster/L2/filter
  /// resolution, bounds checks) hoisted out of the loop. When @p results is
  /// non-null it receives one MemAccessResult per reference.
  BatchSummary access_batch(std::size_t core, const MemRef* refs, std::size_t n,
                            MemAccessResult* results = nullptr);

  /// Context-switch hooks forwarded to TLB and signature hardware.
  void on_context_switch_in(std::size_t core);
  void flush_tlb(std::size_t core);

  [[nodiscard]] const HierarchyConfig& config() const noexcept { return config_; }
  [[nodiscard]] const HierarchyTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] std::size_t num_cores() const noexcept { return config_.num_cores; }

  // --- graph shape ---

  [[nodiscard]] std::size_t num_clusters() const noexcept { return clusters_; }
  [[nodiscard]] std::size_t cluster_of(std::size_t core) const noexcept {
    return core / cores_per_cluster_;
  }
  [[nodiscard]] std::size_t local_core(std::size_t core) const noexcept {
    return core % cores_per_cluster_;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_ != nullptr; }

  /// Cluster 0's signature unit (the only one on degenerate topologies);
  /// nullptr when disabled or when the L2 is private.
  [[nodiscard]] sig::FilterUnit* filter() noexcept {
    return filters_.empty() ? nullptr : filters_.front().get();
  }
  [[nodiscard]] const sig::FilterUnit* filter() const noexcept {
    return filters_.empty() ? nullptr : filters_.front().get();
  }
  /// The signature unit shadowing @p core's cluster L2 (nullptr when
  /// disabled). Its core slots are CLUSTER-LOCAL: pass local_core(core).
  [[nodiscard]] sig::FilterUnit* filter_for_core(std::size_t core) noexcept {
    return filters_.empty() ? nullptr : filters_[cluster_of(core)].get();
  }

  [[nodiscard]] Cache& l1(std::size_t core) { return *l1_.at(core); }
  /// @p core's L2: the cluster's shared L2, or its private L2.
  [[nodiscard]] Cache& l2(std::size_t core = 0) { return *l2_.at(cluster_of(core)); }
  [[nodiscard]] const Cache& l2(std::size_t core = 0) const { return *l2_.at(cluster_of(core)); }
  /// Cluster @p cluster's L2 directly (cluster index, not core index).
  [[nodiscard]] Cache& cluster_l2(std::size_t cluster) { return *l2_.at(cluster); }
  /// The shared L3; only valid when has_l3().
  [[nodiscard]] Cache& l3() { return *l3_; }
  [[nodiscard]] const Cache& l3() const { return *l3_; }
  [[nodiscard]] Tlb& tlb(std::size_t core) { return *tlb_.at(core); }

  /// Ground-truth L2 footprint of @p core (valid lines it owns); the
  /// Fig 2/5 reference series.
  [[nodiscard]] std::size_t l2_footprint(std::size_t core) const;

  /// Summed counters of one level across all its caches, keyed "l1", "l2",
  /// "l3" (empty stats for "l3" on topologies without one).
  [[nodiscard]] LevelStats level_stats(std::string_view level) const;

  /// Publish cache/TLB counter DELTAS since the last publish into the global
  /// obs::MetricRegistry ("cachesim.l1.hit", "cachesim.l2.miss", ...; L3
  /// counters only exist on topologies with an L3). The per-access hot path
  /// stays free of atomics; the Machine calls this at cold boundaries (hook
  /// firings and end of run).
  void publish_metrics();

  /// Clear ONLY counters — every cache's total and per-requestor CacheStats
  /// at every level, TLB hit/miss counts — and re-baseline the obs delta
  /// publisher, all in one place. Tag arrays, filters and stream state are
  /// untouched, so this is safe mid-run (e.g. to discard a warm-up phase).
  /// Resetting individual caches via l1()/l2()/l3() instead leaves the
  /// publisher baseline stale and makes the next publish_metrics() delta
  /// wrap around; use this.
  void reset_stats() noexcept;

  /// Clear all caches, TLBs, filters and stats.
  void reset();

 private:
  struct StreamState;

  /// Shared per-access body: access() and access_batch() both funnel here so
  /// the batched path cannot drift from the canonical one. @p cluster is
  /// @p core's cluster (hoisted by the callers); @p l2 and @p filter are the
  /// cluster's.
  MemAccessResult access_one(std::size_t core, std::size_t cluster, Addr addr, bool is_write,
                             Cache& l1, Cache& l2, Tlb& tlb, sig::FilterUnit* filter,
                             StreamState& ss);

  HierarchyConfig config_;
  HierarchyTopology topo_{};
  std::size_t clusters_ = 1;
  std::size_t cores_per_cluster_ = 1;
  std::vector<std::unique_ptr<Cache>> l1_;
  std::vector<std::unique_ptr<Cache>> l2_;  // one per cluster
  std::unique_ptr<Cache> l3_;               // null on topologies without an L3
  std::vector<std::unique_ptr<Tlb>> tlb_;
  std::vector<std::unique_ptr<sig::FilterUnit>> filters_;  // one per cluster; empty = disabled

  /// Per-core stream detector state (last line + last stride, in lines).
  struct StreamState {
    LineAddr last_line = 0;
    std::int64_t last_stride = 0;
    bool valid = false;
  };
  std::vector<StreamState> stream_;

  /// Counter totals as of the last publish_metrics() (delta baseline).
  struct PublishedStats {
    std::uint64_t l1_hits = 0, l1_misses = 0;
    std::uint64_t l2_hits = 0, l2_misses = 0, l2_evictions = 0;
    std::uint64_t l3_hits = 0, l3_misses = 0, l3_evictions = 0;
    std::uint64_t tlb_misses = 0;
  };
  PublishedStats published_;
};

}  // namespace symbiosis::cachesim
