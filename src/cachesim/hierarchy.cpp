#include "cachesim/hierarchy.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::cachesim {

Hierarchy::Hierarchy(HierarchyConfig config) : config_(std::move(config)) {
  if (config_.num_cores == 0) throw std::invalid_argument("Hierarchy: num_cores must be > 0");
  config_.l1.validate();
  config_.l2.validate();
  if (config_.l3) config_.l3->validate();
  if (config_.l1.line_bytes != config_.l2.line_bytes) {
    throw std::invalid_argument("Hierarchy: L1 and L2 must share a line size");
  }
  topo_ = config_.topology();
  topo_.validate();  // SYM_CHECK: divisibility, partitions, L3 line size
  clusters_ = topo_.clusters();
  cores_per_cluster_ = topo_.cores_per_cluster();

  l1_.reserve(config_.num_cores);
  tlb_.reserve(config_.num_cores);
  for (std::size_t c = 0; c < config_.num_cores; ++c) {
    l1_.push_back(std::make_unique<Cache>(config_.l1, config_.l1_replacement, 1,
                                          config_.seed + 101 * c));
    tlb_.push_back(std::make_unique<Tlb>(config_.tlb_entries));
  }

  stream_.resize(config_.num_cores);
  l2_.reserve(clusters_);
  for (std::size_t i = 0; i < clusters_; ++i) {
    l2_.push_back(std::make_unique<Cache>(config_.l2, config_.l2_replacement,
                                          config_.num_cores, config_.seed + 977 * i));
  }
  if (topo_.l2_partition.enabled()) {
    // Requestors are GLOBAL core ids; partition groups are cluster-local
    // cores, and cluster cl's core c sits at local slot c % cores_per_cluster.
    std::vector<std::size_t> group_of(config_.num_cores);
    for (std::size_t c = 0; c < config_.num_cores; ++c) group_of[c] = c % cores_per_cluster_;
    for (auto& l2 : l2_) l2->set_partition(topo_.l2_partition, group_of);
  }

  if (topo_.l3) {
    l3_ = std::make_unique<Cache>(*topo_.l3, config_.l3_replacement, clusters_,
                                  config_.seed + 50021);
    if (topo_.l3_partition.enabled()) {
      std::vector<std::size_t> group_of(clusters_);
      for (std::size_t i = 0; i < clusters_; ++i) group_of[i] = i;
      l3_->set_partition(topo_.l3_partition, group_of);
    }
  }

  if (config_.signature.enabled && config_.shared_l2) {
    sig::FilterUnitConfig fc;
    fc.num_cores = cores_per_cluster_;  // slots are cluster-local
    fc.cache_sets = config_.l2.sets();
    fc.cache_ways = config_.l2.ways;
    fc.counter_bits = config_.signature.counter_bits;
    fc.hash_functions = config_.signature.hash_functions;
    fc.hash = config_.signature.hash;
    fc.sample_shift = config_.signature.sample_shift;
    filters_.reserve(clusters_);
    for (std::size_t i = 0; i < clusters_; ++i) {
      filters_.push_back(std::make_unique<sig::FilterUnit>(fc));
    }
  }
}

SYM_HOT MemAccessResult Hierarchy::access_one(std::size_t core, std::size_t cluster, Addr addr,
                                              bool is_write, Cache& l1, Cache& l2, Tlb& tlb,
                                              sig::FilterUnit* filter, StreamState& ss) {
  MemAccessResult result;
  const LineAddr line = config_.l1.line_of(addr);

  result.tlb_hit = tlb.access(addr);
  if (!result.tlb_hit) result.cycles += config_.latency.tlb_miss;

  // Stream detection (stride prefetcher model): two consecutive accesses
  // with the same short line stride mark the core as streaming; its
  // last-level misses then cost latency.stream_miss instead of full memory
  // latency.
  const auto stride = static_cast<std::int64_t>(line) - static_cast<std::int64_t>(ss.last_line);
  const bool streaming =
      ss.valid && stride == ss.last_stride && stride != 0 && stride >= -8 && stride <= 8;
  ss.last_stride = stride;
  ss.last_line = line;
  ss.valid = true;

  const AccessResult l1r = l1.access(line, is_write, 0);
  result.cycles += config_.latency.l1_hit;
  if (l1r.hit) {
    result.l1_hit = true;
    return result;
  }
  // L1 victims are silently dropped: writeback traffic does not perturb L2
  // replacement state in this model (inclusion already guarantees presence).

  const AccessResult l2r = l2.access(line, is_write, core);
  result.cycles += config_.latency.l2_hit;
  if (l2r.hit) {
    result.l2_hit = true;
    return result;
  }

  // L2 fill bookkeeping runs BEFORE the L3 lookup so the signature filter
  // records the fill before any L3-eviction back-invalidation could retire
  // the very line just filled.
  if (l2r.evicted) {
    // Enforce L1 ⊆ L2 inclusion within the cluster: the displaced line may
    // not linger in any L1 above this L2 (degenerate shared = all L1s;
    // private = the core's own, since clusters are single cores).
    const std::size_t base = cluster * cores_per_cluster_;
    for (std::size_t c = base; c < base + cores_per_cluster_; ++c) {
      l1_[c]->invalidate(l2r.victim_line);
    }
    if (filter) {
      filter->on_evict(l2r.victim_line, l2r.set, l2r.way);
    }
  }
  if (filter) {
    filter->on_fill(line, core - cluster * cores_per_cluster_, l2r.set, l2r.way);
  }

  if (l3_) {
    const AccessResult l3r = l3_->access(line, is_write, cluster);
    result.cycles += config_.latency.l3_hit;
    if (l3r.hit) {
      result.l3_hit = true;
      return result;
    }
    if (l3r.evicted) {
      // Inclusive L3: back-invalidate the displaced line from every L2 (and
      // its shadowing filter) and every L1.
      for (std::size_t cl = 0; cl < l2_.size(); ++cl) {
        std::size_t vset = 0;
        std::size_t vway = 0;
        if (l2_[cl]->invalidate(l3r.victim_line, vset, vway) && !filters_.empty()) {
          filters_[cl]->on_evict(l3r.victim_line, vset, vway);
        }
      }
      for (auto& other : l1_) other->invalidate(l3r.victim_line);
    }
  }

  if (streaming) {
    result.stream_prefetched = true;
    result.cycles += config_.latency.stream_miss;
  } else {
    result.cycles += config_.latency.memory;
  }
  return result;
}

SYM_HOT MemAccessResult Hierarchy::access(std::size_t core, Addr addr, bool is_write) {
  SYM_DCHECK_BOUNDS(core, config_.num_cores, "cachesim.bounds");
  const std::size_t cluster = cluster_of(core);
  return access_one(core, cluster, addr, is_write, *l1_[core], *l2_[cluster], *tlb_[core],
                    filters_.empty() ? nullptr : filters_[cluster].get(), stream_[core]);
}

SYM_HOT BatchSummary Hierarchy::access_batch(std::size_t core, const MemRef* refs, std::size_t n,
                                             MemAccessResult* results) {
  SYM_DCHECK_BOUNDS(core, config_.num_cores, "cachesim.bounds");
  // Hoist every core-indexed and config-dependent lookup out of the replay
  // loop; the loop body itself is the canonical access_one().
  const std::size_t cluster = cluster_of(core);
  Cache& l1 = *l1_[core];
  Cache& l2 = *l2_[cluster];
  Tlb& tlb = *tlb_[core];
  sig::FilterUnit* const filter = filters_.empty() ? nullptr : filters_[cluster].get();
  StreamState& ss = stream_[core];

  BatchSummary summary;
  summary.accesses = n;
  for (std::size_t i = 0; i < n; ++i) {
    const MemAccessResult r =
        access_one(core, cluster, refs[i].addr, refs[i].is_write, l1, l2, tlb, filter, ss);
    summary.cycles += r.cycles;
    summary.l1_hits += r.l1_hit;
    summary.l2_hits += r.l2_hit;
    summary.l3_hits += r.l3_hit;
    summary.tlb_hits += r.tlb_hit;
    summary.stream_prefetched += r.stream_prefetched;
    if (results) results[i] = r;
  }
  return summary;
}

void Hierarchy::on_context_switch_in(std::size_t core) {
  flush_tlb(core);
  if (sig::FilterUnit* filter = filter_for_core(core)) filter->snapshot(local_core(core));
}

void Hierarchy::flush_tlb(std::size_t core) { tlb_.at(core)->flush(); }

std::size_t Hierarchy::l2_footprint(std::size_t core) const {
  const Cache& l2 = *l2_[cluster_of(core)];
  return l2.occupancy(config_.shared_l2 ? core : Cache::kAnyRequestor);
}

LevelStats Hierarchy::level_stats(std::string_view level) const {
  LevelStats out;
  auto add = [&out](const Cache& cache) {
    out.accesses += cache.stats().accesses;
    out.hits += cache.stats().hits;
    out.misses += cache.stats().misses;
    out.evictions += cache.stats().evictions;
  };
  if (level == "l1") {
    for (const auto& l1 : l1_) add(*l1);
  } else if (level == "l2") {
    for (const auto& l2 : l2_) add(*l2);
  } else if (level == "l3") {
    if (l3_) add(*l3_);
  } else {
    SYM_CHECK(false, "cachesim.topology") << "unknown cache level \"" << level << "\"";
  }
  return out;
}

void Hierarchy::publish_metrics() {
  PublishedStats now;
  for (const auto& l1 : l1_) {
    now.l1_hits += l1->stats().hits;
    now.l1_misses += l1->stats().misses;
  }
  for (const auto& l2 : l2_) {
    now.l2_hits += l2->stats().hits;
    now.l2_misses += l2->stats().misses;
    now.l2_evictions += l2->stats().evictions;
  }
  for (const auto& tlb : tlb_) now.tlb_misses += tlb->misses();

  static obs::Counter& l1_hit = obs::counter("cachesim.l1.hit");
  static obs::Counter& l1_miss = obs::counter("cachesim.l1.miss");
  static obs::Counter& l2_hit = obs::counter("cachesim.l2.hit");
  static obs::Counter& l2_miss = obs::counter("cachesim.l2.miss");
  static obs::Counter& l2_eviction = obs::counter("cachesim.l2.eviction");
  static obs::Counter& tlb_miss = obs::counter("cachesim.tlb.miss");
  l1_hit.add(now.l1_hits - published_.l1_hits);
  l1_miss.add(now.l1_misses - published_.l1_misses);
  l2_hit.add(now.l2_hits - published_.l2_hits);
  l2_miss.add(now.l2_misses - published_.l2_misses);
  l2_eviction.add(now.l2_evictions - published_.l2_evictions);
  tlb_miss.add(now.tlb_misses - published_.tlb_misses);

  if (l3_) {
    // Registered lazily so degenerate topologies never grow l3 metrics.
    now.l3_hits = l3_->stats().hits;
    now.l3_misses = l3_->stats().misses;
    now.l3_evictions = l3_->stats().evictions;
    static obs::Counter& l3_hit = obs::counter("cachesim.l3.hit");
    static obs::Counter& l3_miss = obs::counter("cachesim.l3.miss");
    static obs::Counter& l3_eviction = obs::counter("cachesim.l3.eviction");
    l3_hit.add(now.l3_hits - published_.l3_hits);
    l3_miss.add(now.l3_misses - published_.l3_misses);
    l3_eviction.add(now.l3_evictions - published_.l3_evictions);
  }
  published_ = now;
}

void Hierarchy::reset_stats() noexcept {
  // Counters and the publish baseline move together: the baseline tracks
  // the per-cache totals, so zeroing one without the other would make the
  // next publish_metrics() delta wrap around (unsigned now - published).
  // Every level participates — an L3 left out here would leak its counters
  // across sweep cells exactly the way the L1/L2 wraparound regression
  // test guards against.
  for (auto& l1 : l1_) l1->reset_stats();
  for (auto& l2 : l2_) l2->reset_stats();
  if (l3_) l3_->reset_stats();
  for (auto& tlb : tlb_) tlb->reset_stats();
  published_ = PublishedStats{};
}

void Hierarchy::reset() {
  for (auto& l1 : l1_) l1->reset();
  for (auto& l2 : l2_) l2->reset();
  if (l3_) l3_->reset();
  for (auto& tlb : tlb_) tlb->flush();
  for (auto& filter : filters_) filter->reset();
  for (auto& ss : stream_) ss = StreamState{};
  reset_stats();
}

}  // namespace symbiosis::cachesim
