// topology.hpp — the cache hierarchy as a composable graph of levels.
//
// A HierarchyTopology describes the shape of one machine's memory system:
// per-core L1s feed per-cluster shared L2s, which optionally feed a single
// shared L3 (per-core L1 → cluster L2 → L3 → memory). The two testbeds the
// paper uses are DEGENERATE instances of this graph:
//   * shared L2  (Core 2 Duo)   — 1 cluster, no L3;
//   * private L2 (P4 Xeon SMP)  — num_cores clusters of 1 core, no L3.
// The generalized graph is what the ROADMAP's 32–64-core scheduling studies
// need: allocation algorithms then PLACE processes across clusters (which
// shared cache they contend in) and can additionally CONSTRAIN them with a
// CAT-style way partition per shared level (LFOC-style clustering).
//
// Degenerate topologies are guaranteed bit-identical to the pre-graph
// two-level implementation; tests/test_differential_hierarchy.cpp pins this
// down against the naive reference models.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cachesim/addr.hpp"
#include "cachesim/replacement.hpp"

namespace symbiosis::cachesim {

/// CAT-style contiguous way partition of one shared cache: group g may only
/// FILL (and therefore evict) within its own way range; lookups still search
/// every way, so partition changes never lose cached data. An empty
/// ways_per_group means "unpartitioned" (every group fills anywhere).
struct CachePartition {
  std::vector<std::size_t> ways_per_group;

  [[nodiscard]] bool enabled() const noexcept { return !ways_per_group.empty(); }
  [[nodiscard]] std::size_t groups() const noexcept { return ways_per_group.size(); }
  [[nodiscard]] std::size_t total_ways() const noexcept;

  [[nodiscard]] bool operator==(const CachePartition&) const = default;
};

/// Shape of the cache graph for one machine. Build one from
/// machine/config.hpp (HierarchyConfig::topology()); Hierarchy validates it
/// at construction.
struct HierarchyTopology {
  std::size_t num_cores = 2;
  /// Shared L2s: cores are split into l2_clusters equal groups, each group
  /// sharing one L2. Private L2s (l2_shared = false) are the same graph
  /// with num_cores clusters of one core — the accessors below normalize.
  bool l2_shared = true;
  std::size_t l2_clusters = 1;

  CacheGeometry l1{8 * 1024, 8, 64};
  CacheGeometry l2{256 * 1024, 16, 64};
  /// Optional shared last-level cache below every cluster L2 (inclusive:
  /// an L3 eviction back-invalidates the line from all L2s and L1s).
  std::optional<CacheGeometry> l3;

  ReplacementKind l1_replacement = ReplacementKind::Lru;
  ReplacementKind l2_replacement = ReplacementKind::Lru;
  ReplacementKind l3_replacement = ReplacementKind::Srrip;

  /// Way partition of each cluster L2, one group per CLUSTER-LOCAL core.
  CachePartition l2_partition;
  /// Way partition of the L3, one group per cluster.
  CachePartition l3_partition;

  // --- normalized shape ---

  /// Number of distinct L2 caches (clusters of the sharing graph).
  [[nodiscard]] std::size_t clusters() const noexcept {
    return l2_shared ? l2_clusters : num_cores;
  }
  [[nodiscard]] std::size_t cores_per_cluster() const noexcept {
    const std::size_t n = clusters();
    return n ? num_cores / n : 0;
  }
  /// Cluster that owns @p core's L2.
  [[nodiscard]] std::size_t cluster_of(std::size_t core) const noexcept {
    return core / cores_per_cluster();
  }
  /// @p core's slot within its cluster (signature hardware is per cluster
  /// and indexes cores locally).
  [[nodiscard]] std::size_t local_core(std::size_t core) const noexcept {
    return core % cores_per_cluster();
  }

  /// True when this topology is expressible by the pre-graph two-level
  /// implementation: one shared L2 (or all-private L2s), no L3, no way
  /// partitions. The differential-hierarchy suite proves degenerate
  /// topologies bit-identical to its legacy reference model.
  [[nodiscard]] bool degenerate() const noexcept {
    return !l3.has_value() && (!l2_shared || l2_clusters == 1) && !l2_partition.enabled() &&
           !l3_partition.enabled();
  }

  /// Check every structural invariant via SYM_CHECK (category
  /// "cachesim.topology" / "cachesim.partition"): cluster count divides the
  /// core count, line sizes agree across levels, partitions fit the
  /// associativity. Honors the ambient CheckMode (tests use
  /// ScopedCheckMode(Throw) to observe CheckError).
  void validate() const;

  /// "32 cores / 4x512KiB L2 / 2MiB L3" style summary for logs and reports.
  [[nodiscard]] std::string describe() const;
};

}  // namespace symbiosis::cachesim
