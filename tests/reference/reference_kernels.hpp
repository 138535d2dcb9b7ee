// reference_kernels.hpp — deliberately naive reference implementations of
// the simulation hot-path kernels (cache access, split-filter signature
// unit, bit-vector metrics).
//
// These models optimise for OBVIOUSNESS, not speed: straight-line loops,
// per-bit scans, std::set-based dedup, recounted aggregates. The optimised
// kernels in src/ (word-parallel popcounts, cached geometry masks, k = 1
// fast paths, batched replay) are checked against them on randomised and
// adversarial inputs by tests/test_differential_kernels.cpp. If you change
// kernel SEMANTICS, change the reference here in the same PR — the suite
// exists to catch accidental drift from performance work, not to freeze
// behaviour forever.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "sig/bitvector.hpp"
#include "sig/filter_unit.hpp"
#include "sig/hash.hpp"

namespace symbiosis::testref {

/// Naive set-associative cache with explicit per-line timestamps. Supports
/// the three deterministic replacement policies — LRU, FIFO and SRRIP (the
/// textbook aging loop, no early-outs); Random and TreePlru keep extra
/// policy state the naive model intentionally omits.
class ReferenceCache {
 public:
  ReferenceCache(cachesim::CacheGeometry geometry, cachesim::ReplacementKind replacement,
                 std::size_t requestors)
      : geom_(geometry),
        fifo_(replacement == cachesim::ReplacementKind::Fifo),
        srrip_(replacement == cachesim::ReplacementKind::Srrip),
        lines_(geometry.lines()),
        per_requestor_(requestors) {}

  cachesim::AccessResult access(cachesim::LineAddr line, bool is_write, std::size_t requestor) {
    cachesim::AccessResult result;
    const std::size_t set = geom_.set_of(line);
    const std::uint64_t tag = geom_.tag_of(line);
    result.set = set;
    ++total_.accesses;
    ++per_requestor_[requestor].accesses;

    for (std::size_t w = 0; w < geom_.ways; ++w) {
      Line& entry = lines_[set * geom_.ways + w];
      if (entry.valid && entry.tag == tag) {
        result.hit = true;
        result.way = w;
        entry.dirty = entry.dirty || is_write;
        if (srrip_) {
          entry.rrpv = 0;  // SRRIP-HP: a hit promotes to near-immediate re-reference
        } else if (!fifo_) {
          entry.stamp = ++clock_;  // LRU refreshes on touch, FIFO does not
        }
        ++total_.hits;
        ++per_requestor_[requestor].hits;
        return result;
      }
    }

    ++total_.misses;
    ++per_requestor_[requestor].misses;

    std::size_t way = geom_.ways;
    for (std::size_t w = 0; w < geom_.ways; ++w) {
      if (!lines_[set * geom_.ways + w].valid) {
        way = w;
        break;
      }
    }
    if (way == geom_.ways) {
      if (srrip_) {
        // SRRIP victim: lowest way whose RRPV is distant (kMax); when none
        // qualifies, age the whole set by one and rescan until one does.
        while (way == geom_.ways) {
          for (std::size_t w = 0; w < geom_.ways; ++w) {
            if (lines_[set * geom_.ways + w].rrpv == kRrpvMax) {
              way = w;
              break;
            }
          }
          if (way == geom_.ways) {
            for (std::size_t w = 0; w < geom_.ways; ++w) ++lines_[set * geom_.ways + w].rrpv;
          }
        }
      } else {
        // Victim: smallest stamp, lowest way on ties (matches the policies'
        // strict < scan).
        way = 0;
        for (std::size_t w = 1; w < geom_.ways; ++w) {
          if (lines_[set * geom_.ways + w].stamp < lines_[set * geom_.ways + way].stamp) way = w;
        }
      }
      Line& victim = lines_[set * geom_.ways + way];
      result.evicted = true;
      result.victim_line = (victim.tag << geom_.set_bits()) | set;
      result.victim_dirty = victim.dirty;
      ++total_.evictions;
      ++per_requestor_[victim.owner].evictions;
      if (victim.dirty) {
        ++total_.writebacks;
        ++per_requestor_[victim.owner].writebacks;
      }
    }

    Line& entry = lines_[set * geom_.ways + way];
    entry.tag = tag;
    entry.valid = true;
    entry.dirty = is_write;
    entry.owner = requestor;
    entry.stamp = ++clock_;           // both LRU and FIFO stamp on fill
    entry.rrpv = kRrpvMax - 1;        // SRRIP-HP inserts at "long re-reference"
    result.way = way;
    return result;
  }

  /// Inclusion back-invalidation: drop @p line if present, reporting where
  /// it sat (the filter's on_evict needs the location).
  bool invalidate(cachesim::LineAddr line, std::size_t& set_out, std::size_t& way_out) {
    const std::size_t set = geom_.set_of(line);
    const std::uint64_t tag = geom_.tag_of(line);
    for (std::size_t w = 0; w < geom_.ways; ++w) {
      Line& entry = lines_[set * geom_.ways + w];
      if (entry.valid && entry.tag == tag) {
        entry.valid = false;
        entry.dirty = false;
        set_out = set;
        way_out = w;
        return true;
      }
    }
    return false;
  }

  bool invalidate(cachesim::LineAddr line) {
    std::size_t set = 0;
    std::size_t way = 0;
    return invalidate(line, set, way);
  }

  [[nodiscard]] std::size_t occupancy(std::size_t requestor) const {
    std::size_t count = 0;
    for (const Line& entry : lines_) {
      if (entry.valid &&
          (requestor == cachesim::Cache::kAnyRequestor || entry.owner == requestor)) {
        ++count;
      }
    }
    return count;
  }

  [[nodiscard]] const cachesim::CacheStats& stats() const { return total_; }
  [[nodiscard]] const cachesim::CacheStats& stats_for(std::size_t requestor) const {
    return per_requestor_.at(requestor);
  }

 private:
  static constexpr unsigned kRrpvMax = 3;  // 2-bit RRPV, matches SrripPolicy

  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    unsigned rrpv = kRrpvMax;
    bool valid = false;
    bool dirty = false;
    std::size_t owner = 0;
  };

  cachesim::CacheGeometry geom_;
  bool fifo_;
  bool srrip_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  cachesim::CacheStats total_;
  std::vector<cachesim::CacheStats> per_requestor_;
};

/// Naive split-CBF signature unit: shared counters + per-core index SETS.
class ReferenceFilterUnit {
 public:
  explicit ReferenceFilterUnit(const sig::FilterUnitConfig& config)
      : config_(config),
        max_value_((1u << config.counter_bits) - 1),
        counters_(config.entries(), 0),
        cf_(config.num_cores),
        lf_(config.num_cores) {}

  [[nodiscard]] std::set<std::size_t> indices_of(sig::LineAddr line, std::size_t set,
                                                 std::size_t way) const {
    std::set<std::size_t> out;
    if (!config_.sampled(set)) return out;
    if (config_.hash == sig::HashKind::Presence) {
      out.insert((set >> config_.sample_shift) * config_.cache_ways + way);
      return out;
    }
    const sig::IndexHash hash(config_.hash, config_.entries());
    for (unsigned k = 0; k < config_.hash_functions; ++k) out.insert(hash.index_k(line, k));
    return out;
  }

  void on_fill(sig::LineAddr line, std::size_t core, std::size_t set, std::size_t way) {
    for (const std::size_t idx : indices_of(line, set, way)) {
      if (counters_[idx] < max_value_) ++counters_[idx];
      cf_[core].insert(idx);
    }
  }

  void on_evict(sig::LineAddr line, std::size_t set, std::size_t way) {
    for (const std::size_t idx : indices_of(line, set, way)) {
      if (counters_[idx] == 0 || counters_[idx] == max_value_) continue;
      if (--counters_[idx] == 0) {
        for (auto& cf : cf_) cf.erase(idx);
      }
    }
  }

  void snapshot(std::size_t core) { lf_[core] = cf_[core]; }

  /// RBV = CF \ LF as an index set.
  [[nodiscard]] std::set<std::size_t> rbv(std::size_t core) const {
    std::set<std::size_t> out;
    for (const std::size_t idx : cf_[core]) {
      if (!lf_[core].count(idx)) out.insert(idx);
    }
    return out;
  }

  /// popcount(a XOR b) over index sets = |symmetric difference|.
  [[nodiscard]] static std::size_t sym_diff(const std::set<std::size_t>& a,
                                            const std::set<std::size_t>& b) {
    std::size_t n = 0;
    for (const std::size_t idx : a) n += !b.count(idx);
    for (const std::size_t idx : b) n += !a.count(idx);
    return n;
  }

  [[nodiscard]] unsigned counter_at(std::size_t i) const { return counters_.at(i); }
  [[nodiscard]] const std::set<std::size_t>& cf(std::size_t core) const { return cf_.at(core); }
  [[nodiscard]] const std::set<std::size_t>& lf(std::size_t core) const { return lf_.at(core); }

 private:
  sig::FilterUnitConfig config_;
  unsigned max_value_;
  std::vector<unsigned> counters_;
  std::vector<std::set<std::size_t>> cf_;
  std::vector<std::set<std::size_t>> lf_;
};

/// Naive fully-associative LRU TLB: explicit stamps, full scans. Fills take
/// the HIGHEST-index invalid slot (the optimised prefix allocator's order);
/// full-TLB victims take the first minimum-stamp slot (unique — every touch
/// assigns a fresh stamp).
class ReferenceTlb {
 public:
  explicit ReferenceTlb(std::size_t entries = 64, std::size_t page_bytes = 4096)
      : page_bytes_(page_bytes), slots_(entries) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t page = addr / page_bytes_;
    for (Slot& slot : slots_) {
      if (slot.valid && slot.page == page) {
        ++hits_;
        slot.stamp = ++clock_;
        return true;
      }
    }
    ++misses_;
    std::size_t victim = slots_.size();
    for (std::size_t i = slots_.size(); i-- > 0;) {
      if (!slots_[i].valid) {
        victim = i;
        break;
      }
    }
    if (victim == slots_.size()) {
      victim = 0;
      for (std::size_t i = 1; i < slots_.size(); ++i) {
        if (slots_[i].stamp < slots_[victim].stamp) victim = i;
      }
    }
    slots_[victim] = Slot{page, ++clock_, true};
    return false;
  }

  void flush() {
    for (Slot& slot : slots_) slot.valid = false;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Slot {
    std::uint64_t page = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };

  std::size_t page_bytes_;
  std::vector<Slot> slots_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Naive model of the PRE-GRAPH two-level hierarchy: per-core L1s over one
/// shared L2 (or per-core private L2s), TLBs, the stride-stream detector,
/// inclusion back-invalidation and the signature filter — exactly the
/// semantics Hierarchy's degenerate topologies promise to preserve. The
/// differential hierarchy suite replays identical traces through this and
/// the composable graph and requires bit-identical results.
class ReferenceTwoLevelHierarchy {
 public:
  explicit ReferenceTwoLevelHierarchy(const cachesim::HierarchyConfig& config) : config_(config) {
    for (std::size_t c = 0; c < config.num_cores; ++c) {
      l1_.emplace_back(config.l1, config.l1_replacement, 1);
      tlb_.emplace_back(config.tlb_entries);
    }
    const std::size_t l2_count = config.shared_l2 ? 1 : config.num_cores;
    for (std::size_t i = 0; i < l2_count; ++i) {
      l2_.emplace_back(config.l2, config.l2_replacement, config.num_cores);
    }
    if (config.signature.enabled && config.shared_l2) {
      sig::FilterUnitConfig fc;
      fc.num_cores = config.num_cores;
      fc.cache_sets = config.l2.sets();
      fc.cache_ways = config.l2.ways;
      fc.counter_bits = config.signature.counter_bits;
      fc.hash_functions = config.signature.hash_functions;
      fc.hash = config.signature.hash;
      fc.sample_shift = config.signature.sample_shift;
      filter_.emplace(fc);
    }
    stream_.resize(config.num_cores);
  }

  cachesim::MemAccessResult access(std::size_t core, cachesim::Addr addr, bool is_write) {
    cachesim::MemAccessResult result;
    const cachesim::LineAddr line = config_.l1.line_of(addr);

    result.tlb_hit = tlb_[core].access(addr);
    if (!result.tlb_hit) result.cycles += config_.latency.tlb_miss;

    Stream& ss = stream_[core];
    const auto stride =
        static_cast<std::int64_t>(line) - static_cast<std::int64_t>(ss.last_line);
    const bool streaming =
        ss.valid && stride == ss.last_stride && stride != 0 && stride >= -8 && stride <= 8;
    ss.last_stride = stride;
    ss.last_line = line;
    ss.valid = true;

    const cachesim::AccessResult l1r = l1_[core].access(line, is_write, 0);
    result.cycles += config_.latency.l1_hit;
    if (l1r.hit) {
      result.l1_hit = true;
      return result;
    }

    ReferenceCache& l2 = l2_[config_.shared_l2 ? 0 : core];
    const cachesim::AccessResult l2r = l2.access(line, is_write, core);
    result.cycles += config_.latency.l2_hit;
    if (l2r.hit) {
      result.l2_hit = true;
      return result;
    }

    if (l2r.evicted) {
      // Inclusion: a shared L2 shadows every L1, a private one only its own.
      if (config_.shared_l2) {
        for (ReferenceCache& l1 : l1_) l1.invalidate(l2r.victim_line);
      } else {
        l1_[core].invalidate(l2r.victim_line);
      }
      if (filter_) filter_->on_evict(l2r.victim_line, l2r.set, l2r.way);
    }
    if (filter_) filter_->on_fill(line, core, l2r.set, l2r.way);

    if (streaming) {
      result.stream_prefetched = true;
      result.cycles += config_.latency.stream_miss;
    } else {
      result.cycles += config_.latency.memory;
    }
    return result;
  }

  void on_context_switch_in(std::size_t core) {
    tlb_[core].flush();
    if (filter_) filter_->snapshot(core);
  }

  [[nodiscard]] ReferenceCache& l1(std::size_t core) { return l1_[core]; }
  [[nodiscard]] ReferenceCache& l2(std::size_t core = 0) {
    return l2_[config_.shared_l2 ? 0 : core];
  }
  [[nodiscard]] ReferenceTlb& tlb(std::size_t core) { return tlb_[core]; }
  [[nodiscard]] ReferenceFilterUnit* filter() { return filter_ ? &*filter_ : nullptr; }

 private:
  struct Stream {
    cachesim::LineAddr last_line = 0;
    std::int64_t last_stride = 0;
    bool valid = false;
  };

  cachesim::HierarchyConfig config_;
  std::vector<ReferenceCache> l1_;
  std::vector<ReferenceCache> l2_;
  std::vector<ReferenceTlb> tlb_;
  std::optional<ReferenceFilterUnit> filter_;
  std::vector<Stream> stream_;
};

/// Per-bit reference popcounts over BitVector (no word tricks).
[[nodiscard]] inline std::size_t naive_popcount(const sig::BitVector& v) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i) n += v.test(i);
  return n;
}

[[nodiscard]] inline std::size_t naive_xor_popcount(const sig::BitVector& a,
                                                    const sig::BitVector& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += a.test(i) != b.test(i);
  return n;
}

// --- raw-word references for the SIMD kernel layer (sig/kernels.hpp):
// per-bit scans, no word tricks. Every compiled backend is differentially
// tested against these on awkward widths by tests/test_kernels.cpp.

[[nodiscard]] inline std::size_t naive_word_popcount(const std::uint64_t* words, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned b = 0; b < 64; ++b) total += (words[i] >> b) & 1u;
  }
  return total;
}

[[nodiscard]] inline std::size_t naive_word_xor_popcount(const std::uint64_t* a,
                                                         const std::uint64_t* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned bit = 0; bit < 64; ++bit) total += ((a[i] ^ b[i]) >> bit) & 1u;
  }
  return total;
}

inline void naive_word_and_not(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t word = 0;
    for (unsigned bit = 0; bit < 64; ++bit) {
      const bool set = (((a[i] >> bit) & 1u) != 0) && (((b[i] >> bit) & 1u) == 0);
      if (set) word |= std::uint64_t{1} << bit;
    }
    dst[i] = word;
  }
}

}  // namespace symbiosis::testref
