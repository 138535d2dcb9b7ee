#include "cachesim/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::cachesim {

std::string to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::Lru: return "lru";
    case ReplacementKind::Fifo: return "fifo";
    case ReplacementKind::Random: return "random";
    case ReplacementKind::TreePlru: return "tree-plru";
    case ReplacementKind::Srrip: return "srrip";
  }
  return "?";
}

ReplacementKind parse_replacement(const std::string& name) {
  if (name == "lru") return ReplacementKind::Lru;
  if (name == "fifo") return ReplacementKind::Fifo;
  if (name == "random") return ReplacementKind::Random;
  if (name == "tree-plru") return ReplacementKind::TreePlru;
  if (name == "srrip") return ReplacementKind::Srrip;
  throw std::invalid_argument("unknown replacement policy: " + name);
}

// SRRIP-HP (Jaleel et al. ISCA'10) with 2-bit re-reference prediction values:
// fills predict "long" (kRrpvMax - 1), hits "near-immediate" (0), and the
// victim search scans the (partition range of the) set for kRrpvMax, aging it
// until one appears. Scan-resistant where LRU thrashes: a streaming
// workload's lines age out before they displace the resident working set —
// the co-runner interference pattern the paper's Fig 3 measures on the L2.
constexpr std::uint8_t kRrpvMax = 3;

Replacement::Replacement(ReplacementKind kind, std::size_t sets, std::size_t ways,
                         std::uint64_t seed)
    : kind_(kind), ways_(ways), rng_(seed) {
  switch (kind) {
    case ReplacementKind::Lru:
    case ReplacementKind::Fifo: stamp_.assign(sets * ways, 0); break;
    case ReplacementKind::Random: break;
    case ReplacementKind::Srrip: bits_.assign(sets * ways, kRrpvMax); break;
    case ReplacementKind::TreePlru:
      if (ways == 0 || (ways & (ways - 1)) != 0) {
        throw std::invalid_argument("TreePlru requires power-of-two associativity");
      }
      bits_.assign(sets * (ways > 1 ? ways - 1 : 1), 0);
      break;
  }
}

SYM_HOT void Replacement::on_touch(std::size_t set, std::size_t way) noexcept {
  switch (kind_) {
    case ReplacementKind::Lru: stamp_[set * ways_ + way] = ++clock_; break;
    case ReplacementKind::Fifo:  // hits do not refresh: the victim is the oldest fill
    case ReplacementKind::Random: break;
    case ReplacementKind::Srrip: bits_[set * ways_ + way] = 0; break;
    case ReplacementKind::TreePlru: {
      // Walk from the root toward the leaf, pointing each node AWAY from way.
      std::uint8_t* const nodes = &bits_[set * (ways_ - 1)];
      std::size_t node = 0;
      std::size_t lo = 0, hi = ways_;
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (way < mid) {
          nodes[node] = 1;  // next victim search goes right
          node = 2 * node + 1;
          hi = mid;
        } else {
          nodes[node] = 0;  // next victim search goes left
          node = 2 * node + 2;
          lo = mid;
        }
      }
      break;
    }
  }
}

SYM_HOT void Replacement::on_fill(std::size_t set, std::size_t way) noexcept {
  switch (kind_) {
    case ReplacementKind::Lru:
    case ReplacementKind::Fifo: stamp_[set * ways_ + way] = ++clock_; break;
    case ReplacementKind::Random: break;
    case ReplacementKind::Srrip: bits_[set * ways_ + way] = kRrpvMax - 1; break;
    case ReplacementKind::TreePlru: on_touch(set, way); break;
  }
}

SYM_HOT std::size_t Replacement::victim(std::size_t set, std::size_t begin,
                                        std::size_t end) noexcept {
  switch (kind_) {
    case ReplacementKind::Lru:
    case ReplacementKind::Fifo: {
      const std::uint64_t* const row = &stamp_[set * ways_];
      std::size_t best = begin;
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t w = begin; w < end; ++w) {
        if (row[w] < oldest) {
          oldest = row[w];
          best = w;
        }
      }
      return best;
    }
    case ReplacementKind::Random:
      return begin + static_cast<std::size_t>(rng_.next_below(end - begin));
    case ReplacementKind::Srrip: {
      std::uint8_t* const row = &bits_[set * ways_];
      for (;;) {
        for (std::size_t w = begin; w < end; ++w) {
          if (row[w] == kRrpvMax) return w;
        }
        // Age the range; terminates because some RRPV strictly increases
        // each round (all values are <= kRrpvMax and the range is non-empty).
        for (std::size_t w = begin; w < end; ++w) ++row[w];
      }
    }
    case ReplacementKind::TreePlru: {
      SYM_DCHECK(begin == 0 && end == ways_, "cachesim.replacement")
          << "tree-PLRU cannot confine victims to a way range";
      const std::uint8_t* const nodes = &bits_[set * (ways_ - 1)];
      std::size_t node = 0;
      std::size_t lo = 0, hi = ways_;
      while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (nodes[node] == 0) {
          node = 2 * node + 1;
          hi = mid;
        } else {
          node = 2 * node + 2;
          lo = mid;
        }
      }
      // The walk must land on a real leaf, within this set's (ways - 1) nodes.
      SYM_DCHECK_LT(lo, ways_, "cachesim.replacement") << "tree-PLRU walk escaped the set";
      SYM_DCHECK_LT(node, 2 * ways_ - 1, "cachesim.replacement");
      return lo;
    }
  }
  return begin;
}

void Replacement::reset() noexcept {
  std::fill(stamp_.begin(), stamp_.end(), std::uint64_t{0});
  clock_ = 0;
  std::fill(bits_.begin(), bits_.end(),
            kind_ == ReplacementKind::Srrip ? kRrpvMax : std::uint8_t{0});
}

}  // namespace symbiosis::cachesim
