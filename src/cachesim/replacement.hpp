// replacement.hpp — victim selection for set-associative caches.
//
// The paper's L2 is modelled after the Core 2 Duo's (effectively LRU-like);
// the other policies exist for tests and sensitivity studies, and because
// the signature hardware must be replacement-agnostic (§6 stresses that the
// scheme does not modify the cache's normal operation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace symbiosis::cachesim {

enum class ReplacementKind { Lru, Fifo, Random, TreePlru, Srrip };

[[nodiscard]] std::string to_string(ReplacementKind kind);
[[nodiscard]] ReplacementKind parse_replacement(const std::string& name);

/// Per-set replacement state for one whole cache; set/way coordinates are
/// passed in. The policy set is closed, so every member switches on the kind.
/// @p seed only matters for Random; tree-PLRU needs power-of-two ways.
class Replacement {
 public:
  Replacement(ReplacementKind kind, std::size_t sets, std::size_t ways, std::uint64_t seed = 1);

  /// Called on every hit of (set, way).
  void on_touch(std::size_t set, std::size_t way) noexcept;
  /// Called when (set, way) receives a brand-new line.
  void on_fill(std::size_t set, std::size_t way) noexcept;
  /// Choose the victim within ways [@p begin, @p end) of @p set, all valid:
  /// [0, ways) unpartitioned, the requestor's range when way-partitioned
  /// (cachesim/topology.hpp). Random draws exactly once per call.
  [[nodiscard]] std::size_t victim(std::size_t set, std::size_t begin, std::size_t end) noexcept;
  /// False for tree-PLRU, whose decision tree spans the whole set and so
  /// cannot confine victims to a way range; Cache::set_partition rejects it.
  [[nodiscard]] bool partitionable() const noexcept { return kind_ != ReplacementKind::TreePlru; }
  /// Drop all state (Random's stream continues).
  void reset() noexcept;

 private:
  ReplacementKind kind_;
  std::size_t ways_;
  /// LRU/FIFO: last touch (LRU) or fill (FIFO) time per line.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
  /// SRRIP: one RRPV per line. Tree-PLRU: (ways - 1) node bits per set.
  std::vector<std::uint8_t> bits_;
  util::Rng rng_;
};

}  // namespace symbiosis::cachesim
