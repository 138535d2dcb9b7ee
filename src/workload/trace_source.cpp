#include "workload/trace_source.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace symbiosis::workload {

std::unique_ptr<TaskStream> SyntheticSource::make_stream(std::size_t thread) const {
  if (thread != 0) throw std::out_of_range("SyntheticSource: single-threaded source");
  return std::make_unique<Workload>(spec_, base_, util::Rng{seed_});
}

namespace {

/// Memory records of one trace thread (SymtTaskStream's total_refs).
std::uint64_t count_mem_refs(const SymtTrace& trace, std::size_t thread) {
  SymtCursor cursor(trace, thread);
  SymtRecord rec;
  std::uint64_t refs = 0;
  while (cursor.next(rec)) refs += rec.is_mem() ? 1 : 0;
  return refs;
}

}  // namespace

SymtTaskStream::SymtTaskStream(std::shared_ptr<const SymtTrace> trace, std::size_t thread,
                               std::string name)
    : trace_(std::move(trace)),
      thread_(thread),
      name_(std::move(name)),
      cursor_(*trace_, thread),
      total_refs_(count_mem_refs(*trace_, thread)) {
  if (total_refs_ == 0) {
    throw std::invalid_argument("SymtTaskStream: thread " + std::to_string(thread) +
                                " has no memory references");
  }
}

Step SymtTaskStream::next() {
  SymtRecord rec;
  while (issued_ < total_refs_ && cursor_.next(rec)) {
    if (!rec.is_mem()) {
      ++skipped_syncs_;
      continue;
    }
    ++issued_;
    last_ = Step{rec.gap, rec.addr, rec.op == SymtOp::Write};
    return last_;
  }
  return last_;  // past the end: repeat the final reference
}

void SymtTaskStream::restart() {
  cursor_ = SymtCursor(*trace_, thread_);
  issued_ = 0;
  skipped_syncs_ = 0;
}

SymtSource::SymtSource(std::shared_ptr<const SymtTrace> trace, std::string name)
    : trace_(std::move(trace)), name_(std::move(name)) {
  if (!trace_) throw std::invalid_argument("SymtSource: null trace");
}

std::unique_ptr<TaskStream> SymtSource::make_stream(std::size_t thread) const {
  if (thread >= trace_->num_threads()) throw std::out_of_range("SymtSource: bad thread");
  return std::make_unique<SymtTaskStream>(trace_, thread,
                                          name_ + ".t" + std::to_string(thread));
}

std::uint64_t record_stream(SymtWriter& writer, std::size_t thread, TaskStream& stream,
                            std::uint64_t refs) {
  std::uint64_t recorded = 0;
  for (; recorded < refs && !stream.complete(); ++recorded) {
    const Step step = stream.next();
    writer.append_mem(thread, step.addr, step.is_write, step.compute_instr);
  }
  return recorded;
}

std::vector<std::uint8_t> symt_from_benchmarks(const std::vector<std::string>& names,
                                               std::uint64_t refs_per_thread,
                                               std::uint64_t seed, const ScaleConfig& scale) {
  if (names.empty()) throw std::invalid_argument("symt_from_benchmarks: empty mix");
  SymtWriter writer(names.size());
  const util::Rng root(seed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Disjoint 1 TiB address spaces, the machine::address_space_base layout.
    const Addr base = static_cast<Addr>(i + 1) << 40;
    auto workload = make_spec_workload(names[i], base, root.split(i), scale);
    record_stream(writer, i, *workload, refs_per_thread);
  }
  return writer.finish();
}

cachesim::BatchSummary replay_generated(const std::vector<std::string>& names,
                                        std::uint64_t refs_per_thread, std::uint64_t seed,
                                        cachesim::Hierarchy& hierarchy, std::size_t chunk,
                                        const ScaleConfig& scale) {
  if (names.empty()) throw std::invalid_argument("replay_generated: empty mix");
  if (chunk == 0) throw std::invalid_argument("replay_generated: zero chunk");
  const util::Rng root(seed);
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<std::uint64_t> remaining(names.size(), refs_per_thread);
  workloads.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Addr base = static_cast<Addr>(i + 1) << 40;
    workloads.push_back(make_spec_workload(names[i], base, root.split(i), scale));
  }

  cachesim::BatchSummary totals;
  std::vector<cachesim::MemRef> buffer(chunk);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::size_t n = 0;
      while (n < chunk && remaining[i] > 0 && !workloads[i]->complete()) {
        const Step step = workloads[i]->next();
        buffer[n++] = {step.addr, step.is_write};
        --remaining[i];
      }
      if (n == 0) continue;
      totals += hierarchy.access_batch(i % hierarchy.num_cores(), buffer.data(), n);
      any = true;
    }
  }
  return totals;
}

}  // namespace symbiosis::workload
