// trace.hpp — the benchmark's own timing, span and counter helpers.
//
// Spans are recorded only from the benchmark's files, around calls into the
// simulator's public API. A span knows the span that was open on the same
// thread when it began, so a layer's self time is its duration minus the
// durations of its direct children. Spans stay in memory until the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace symbench {

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile by linear interpolation between order statistics (q in [0, 1]).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Share of @p n repeated units that forms their fast tail: the fastest
/// tenth, or the fastest ten units when there are more than a hundred.
/// Other tenants of a shared host only ever add time to a unit, so the
/// fast tail is the steadiest estimate of what the code itself costs, and
/// the more short units a run has, the closer its fastest ten come to a
/// moment when the host ran free.
[[nodiscard]] inline double fast_share(std::size_t n) {
  return n > 100 ? 10.0 / static_cast<double>(n) : 0.1;
}

/// Work per second at the fast tail of repeated units: the (1 - fast_share)
/// quantile of the per-unit rates work[i] / seconds[i].
[[nodiscard]] inline double fast_rate(const std::vector<double>& work,
                                      const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < work.size() && i < seconds.size(); ++i) {
    if (seconds[i] > 0.0) rates.push_back(work[i] / seconds[i]);
  }
  const double share = fast_share(rates.size());
  return quantile(std::move(rates), 1.0 - share);
}

/// FNV-1a over everything folded in; the digest of simulated outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Registry counter values at one instant; subtracting two gives the work a
/// region did. Counters are process-global, so a delta taken around a
/// parallel region covers every worker.
class CounterSnapshot {
 public:
  static CounterSnapshot take() {
    CounterSnapshot s;
    for (const auto& m : symbiosis::obs::MetricRegistry::global().snapshot()) {
      if (m.kind == symbiosis::obs::MetricKind::Counter) s.values_[m.name] = m.count;
    }
    return s;
  }
  /// Counter @p name advanced by how much since @p before (0 if unknown).
  [[nodiscard]] double since(const CounterSnapshot& before, const std::string& name) const {
    const auto now = values_.find(name);
    if (now == values_.end()) return 0.0;
    const auto then = before.values_.find(name);
    const std::uint64_t base = then == before.values_.end() ? 0 : then->second;
    return static_cast<double>(now->second - base);
  }

 private:
  std::map<std::string, std::uint64_t> values_;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per span, which is what the untraced run pays.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span; nests under the span open on this thread.
  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (tracer_.enabled_) id_ = tracer_.open(name);
    }
    ~Span() {
      if (id_ >= 0) tracer_.close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    long id_ = -1;
  };

  /// Per span name: how many, summed duration and summed self time
  /// (duration minus direct children), in seconds.
  struct Stats {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Stats> summary() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, Stats> out;
    for (const auto& r : spans_) {
      Stats& s = out[r.name];
      ++s.count;
      s.total_s += r.end - r.start;
      s.self_s += r.end - r.start - r.child_s;
    }
    return out;
  }
  [[nodiscard]] double total_s(const std::string& name) const { return stats(name).total_s; }
  [[nodiscard]] std::size_t count(const std::string& name) const { return stats(name).count; }

 private:
  struct Record {
    const char* name;
    long parent;
    double start;
    double end;
    double child_s;
  };

  long open(const char* name) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    const long parent = open_stack().empty() ? -1 : open_stack().back();
    spans_.push_back(Record{name, parent, t, t, 0.0});
    const long id = static_cast<long>(spans_.size() - 1);
    open_stack().push_back(id);
    return id;
  }

  void close(long id) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    Record& r = spans_[static_cast<std::size_t>(id)];
    r.end = t;
    if (r.parent >= 0) spans_[static_cast<std::size_t>(r.parent)].child_s += t - r.start;
    open_stack().pop_back();
  }

  Stats stats(const std::string& name) const {
    const auto all = summary();
    const auto it = all.find(name);
    return it == all.end() ? Stats{} : it->second;
  }

  /// Spans open on the calling thread, innermost last.
  static std::vector<long>& open_stack() {
    thread_local std::vector<long> stack;
    return stack;
  }

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Record> spans_;
};

}  // namespace symbench
