#include "cachesim/cache.hpp"

#include "util/check.hpp"
#include "util/hotpath.hpp"

namespace symbiosis::cachesim {

Cache::Cache(CacheGeometry geometry, ReplacementKind replacement, std::size_t requestors,
             std::uint64_t seed)
    : geom_(geometry),
      ways_(geometry.ways),
      sets_(geometry.sets()),
      set_mask_(geometry.sets() - 1),
      set_bits_(geometry.set_bits()),
      policy_(replacement, geometry.sets(), geometry.ways, seed),
      lines_(geometry.lines()),
      per_requestor_(requestors),
      fill_range_(requestors, WayRange{0, geometry.ways}) {
  geom_.validate();
}

void Cache::set_partition(const CachePartition& partition,
                          const std::vector<std::size_t>& group_of_requestor) {
  SYM_CHECK(partition.enabled(), "cachesim.partition")
      << "set_partition with an empty partition (use the default full range)";
  SYM_CHECK(policy_.partitionable(), "cachesim.partition")
      << "replacement policy cannot confine victims to a way range";
  SYM_CHECK_EQ(group_of_requestor.size(), per_requestor_.size(), "cachesim.partition")
      << "need one group id per requestor";
  for (const std::size_t w : partition.ways_per_group) {
    SYM_CHECK(w >= 1, "cachesim.partition") << "a zero-way group could never fill a line";
  }
  SYM_CHECK_LE(partition.total_ways(), ways_, "cachesim.partition")
      << "partition claims " << partition.total_ways() << " ways of " << ways_;

  // Contiguous CAT-style ranges: group g owns [prefix(g), prefix(g) + ways).
  std::vector<WayRange> group_range(partition.groups());
  std::size_t next = 0;
  for (std::size_t g = 0; g < partition.groups(); ++g) {
    group_range[g] = WayRange{next, next + partition.ways_per_group[g]};
    next += partition.ways_per_group[g];
  }
  for (std::size_t r = 0; r < group_of_requestor.size(); ++r) {
    SYM_CHECK_BOUNDS(group_of_requestor[r], group_range.size(), "cachesim.partition")
        << "requestor " << r << " mapped to a group the partition does not define";
    fill_range_[r] = group_range[group_of_requestor[r]];
  }
  partitioned_ = true;
}

SYM_HOT AccessResult Cache::access(LineAddr line, bool is_write, std::size_t requestor) {
  SYM_DCHECK_BOUNDS(requestor, per_requestor_.size(), "cachesim.bounds");
  AccessResult result;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> set_bits_;
  SYM_DCHECK_BOUNDS(set, sets_, "cachesim.bounds") << "set index from line decode";
  result.set = set;

  ++total_.accesses;
  ++per_requestor_[requestor].accesses;

  // Hit path.
  Line* const set_lines = &lines_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& entry = set_lines[w];
    if (entry.valid && entry.tag == tag) {
      result.hit = true;
      result.way = w;
      entry.dirty = entry.dirty || is_write;
      policy_.on_touch(set, w);
      ++total_.hits;
      ++per_requestor_[requestor].hits;
      return result;
    }
  }

  // Miss: fill into an invalid way of the requestor's range if any, else
  // evict the policy's victim from that range. Unpartitioned caches have
  // every range pre-resolved to [0, ways), making this path identical to
  // the pre-partition scan.
  ++total_.misses;
  ++per_requestor_[requestor].misses;

  const WayRange range = fill_range_[requestor];
  std::size_t way = ways_;  // sentinel
  for (std::size_t w = range.begin; w < range.end; ++w) {
    if (!set_lines[w].valid) {
      way = w;
      break;
    }
  }
  if (way == ways_) {
    way = policy_.victim(set, range.begin, range.end);
    SYM_DCHECK(way >= range.begin && way < range.end, "cachesim.replacement")
        << "replacement policy chose a victim outside the requestor's way range";
    Line& victim = set_lines[way];
    SYM_DCHECK(victim.valid, "cachesim.replacement")
        << "victim way " << way << " of full set " << set << " is invalid";
    SYM_DCHECK_BOUNDS(victim.owner, per_requestor_.size(), "cachesim.bounds");
    result.evicted = true;
    result.victim_line = (victim.tag << set_bits_) | set;
    result.victim_dirty = victim.dirty;
    ++total_.evictions;
    ++per_requestor_[victim.owner].evictions;
    if (victim.dirty) {
      ++total_.writebacks;
      ++per_requestor_[victim.owner].writebacks;
    }
  }

  Line& entry = line_at(set, way);
  entry.tag = tag;
  entry.valid = true;
  entry.dirty = is_write;
  entry.owner = requestor;
  policy_.on_fill(set, way);
  result.way = way;
  return result;
}

bool Cache::probe(LineAddr line) const noexcept {
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> set_bits_;
  for (std::size_t w = 0; w < ways_; ++w) {
    const Line& entry = line_at(set, w);
    if (entry.valid && entry.tag == tag) return true;
  }
  return false;
}

bool Cache::invalidate(LineAddr line) noexcept {
  std::size_t set = 0;
  std::size_t way = 0;
  return invalidate(line, set, way);
}

bool Cache::invalidate(LineAddr line, std::size_t& set_out, std::size_t& way_out) noexcept {
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> set_bits_;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& entry = line_at(set, w);
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

std::size_t Cache::occupancy(std::size_t requestor) const noexcept {
  std::size_t count = 0;
  for (const Line& entry : lines_) {
    if (entry.valid && (requestor == kAnyRequestor || entry.owner == requestor)) ++count;
  }
  return count;
}

void Cache::reset() noexcept {
  for (auto& entry : lines_) entry = Line{};
  policy_.reset();
  reset_stats();
}

void Cache::reset_stats() noexcept {
  total_.reset();
  for (auto& s : per_requestor_) s.reset();
}

}  // namespace symbiosis::cachesim
