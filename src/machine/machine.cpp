#include "machine/machine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace symbiosis::machine {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      hierarchy_(config.hierarchy),
      scheduler_(config.hierarchy.num_cores, config.seed ^ 0x5c4ed41e5ull,
                 config.migration_prob, config.hierarchy.topology().cores_per_cluster()),
      clock_(config.hierarchy.num_cores, 0),
      current_(config.hierarchy.num_cores, kNoTask),
      quantum_left_(config.hierarchy.num_cores, 0),
      jitter_rng_(config.seed ^ 0x9d15ea5e5ull) {
  has_l3_ = hierarchy_.has_l3();
  if (config.quantum_cycles == 0) throw std::invalid_argument("Machine: zero quantum");
  if (config.batch_steps == 0) throw std::invalid_argument("Machine: zero batch_steps");
  // Sized once here instead of lazily in record_signature(): the cluster
  // width is fixed at construction, and the symhot gate keeps growth out
  // of the per-switch signature path.
  if (const sig::FilterUnit* filter = hierarchy_.filter()) {
    symbiosis_scratch_.resize(filter->num_cores());
  }
}

TaskId Machine::add_task(std::unique_ptr<workload::TaskStream> stream, std::size_t affinity) {
  return add_thread(std::move(stream), next_pid_++, affinity);
}

TaskId Machine::add_thread(std::unique_ptr<workload::TaskStream> stream, std::size_t pid,
                           std::size_t affinity) {
  next_pid_ = std::max(next_pid_, pid + 1);
  const TaskId id = tasks_.size();
  tasks_.push_back(
      std::make_unique<Task>(id, pid, std::move(stream), config_.hierarchy.num_cores));
  tasks_.back()->set_affinity(affinity);
  scheduler_.admit(id, affinity);
  return id;
}

std::vector<TaskId> Machine::add_process(const workload::TraceSource& source,
                                         std::size_t affinity) {
  const std::size_t pid = next_pid_++;
  std::vector<TaskId> ids;
  ids.reserve(source.num_threads());
  for (std::size_t t = 0; t < source.num_threads(); ++t) {
    ids.push_back(add_thread(source.make_stream(t), pid, affinity));
  }
  return ids;
}

void Machine::set_affinity(TaskId id, std::size_t core) {
  task(id).set_affinity(core);
  scheduler_.set_affinity(id, core);
}

void Machine::set_periodic_hook(std::uint64_t period_cycles, std::function<void(Machine&)> hook) {
  if (period_cycles == 0) throw std::invalid_argument("Machine: zero hook period");
  hook_period_ = period_cycles;
  next_hook_ = now() + period_cycles;
  hook_ = std::move(hook);
}

std::uint64_t Machine::now() const noexcept {
  std::uint64_t lowest = 0;
  bool any = false;
  for (std::size_t c = 0; c < clock_.size(); ++c) {
    const bool busy = current_[c] != kNoTask || scheduler_.queue_depth(c) > 0;
    if (!busy) continue;
    if (!any || clock_[c] < lowest) lowest = clock_[c];
    any = true;
  }
  if (!any) {
    // Fully idle: report the furthest clock (all work has drained).
    for (const auto t : clock_) lowest = std::max(lowest, t);
  }
  return lowest;
}

const Task* Machine::running_on(std::size_t core) const {
  const TaskId id = current_.at(core);
  return id == kNoTask ? nullptr : tasks_[id].get();
}

void Machine::record_signature(std::size_t core, Task& task) {
  SYM_DCHECK_BOUNDS(core, config_.hierarchy.num_cores, "machine.affinity");
  sig::FilterUnit* filter = hierarchy_.filter_for_core(core);
  if (!filter) return;
  // Signature hardware lives per cluster with cluster-local core slots; on
  // the degenerate single-cluster machine local == global.
  const std::size_t cluster = hierarchy_.cluster_of(core);
  const std::size_t local = hierarchy_.local_core(core);
  const sig::BitVector rbv = filter->compute_rbv(local);
  static obs::Histogram& popcount_hist = obs::histogram("sig.rbv.popcount");
  popcount_hist.observe(rbv.popcount());
  sig::SignatureSample sample;
  sample.core = core;
  sample.occupancy_weight = rbv.popcount();
  sample.symbiosis.resize(config_.hierarchy.num_cores);
  // Own cluster in one batched kernel pass: the self core compares against
  // the LF snapshot (co-residents' footprint), other same-cluster cores
  // against their live CFs (§3.1 / filter_unit.hpp).
  SYM_DCHECK_EQ(symbiosis_scratch_.size(), filter->num_cores(), "machine.affinity")
      << "symbiosis scratch sized at construction";
  filter->symbiosis_all(rbv, local, symbiosis_scratch_.data());
  for (std::size_t c = 0; c < config_.hierarchy.num_cores; ++c) {
    if (hierarchy_.cluster_of(c) == cluster) {
      sample.symbiosis[c] = symbiosis_scratch_[hierarchy_.local_core(c)];
    } else {
      // Other cluster: that core's footprint lives in a different L2, so
      // the footprints are disjoint by construction (filter_unit.hpp); the
      // RBV weight was already computed for the sample.
      const sig::FilterUnit* other = hierarchy_.filter_for_core(c);
      sample.symbiosis[c] = sig::disjoint_symbiosis_from_weights(
          sample.occupancy_weight, other->core_filter_weight(hierarchy_.local_core(c)));
    }
  }
  task.signature().record(sample);
}

void Machine::switch_out(std::size_t core) {
  const TaskId id = current_[core];
  if (id == kNoTask) return;
  Task& t = *tasks_[id];
  record_signature(core, t);
  scheduler_.yield(core, id);
  current_[core] = kNoTask;
}

bool Machine::switch_in(std::size_t core) {
  TaskId id = kNoTask;
  if (!scheduler_.pick_next(core, id)) return false;
  SYM_DCHECK_LT(id, tasks_.size(), "machine.affinity") << "scheduler produced unknown task";
  SYM_DCHECK(tasks_[id]->affinity() == Task::kAnyCore || tasks_[id]->affinity() == core,
             "machine.affinity")
      << "task " << id << " switched in on core " << core << " despite a pin";
  current_[core] = id;
  quantum_left_[core] = config_.quantum_cycles;
  if (config_.quantum_jitter > 0.0) {
    const double jitter = (jitter_rng_.next_double() * 2.0 - 1.0) * config_.quantum_jitter;
    quantum_left_[core] = static_cast<std::uint64_t>(
        static_cast<double>(config_.quantum_cycles) * (1.0 + jitter));
  }

  // An idle core re-joining the action must not run "in the past".
  clock_[core] = std::max(clock_[core], now());
  clock_[core] += config_.context_switch_cycles;

  // Hypervisor/Dom0 pollution: the switch path drags its own lines through
  // the shared cache (charged to the core, not to any task's user time).
  // Runs BEFORE the LF snapshot so it is not billed to the incoming task's
  // RBV — the snapshot is taken "just before the new application accesses
  // the cache" (§3.1).
  if (config_.switch_pollution_lines > 0) {
    const auto line = static_cast<cachesim::Addr>(config_.hierarchy.l1.line_bytes);
    const cachesim::Addr base = cachesim::Addr{1} << 60;
    for (std::uint32_t i = 0; i < config_.switch_pollution_lines; ++i) {
      clock_[core] += hierarchy_.access(core, base + i * line, false).cycles;
    }
  }

  hierarchy_.on_context_switch_in(core);  // TLB flush + LF snapshot

  ++tasks_[id]->counters().context_switches;
  ++stats_.context_switches;
  return true;
}

void Machine::execute_batch(std::size_t core) {
  Task& t = *tasks_[current_[core]];
  workload::TaskStream& stream = t.stream();
  auto& counters = t.counters();

  for (std::uint32_t i = 0; i < config_.batch_steps && quantum_left_[core] > 0; ++i) {
    const workload::Step step = stream.next();
    std::uint64_t cycles = step.compute_instr;  // 1-cycle compute CPI

    if (config_.track_pages) {
      const std::uint64_t page = step.addr >> 12;
      if (t.touched_pages.insert(page).second) {
        ++counters.page_faults;
        cycles += config_.page_fault_cycles;
      }
    }

    const cachesim::MemAccessResult mem = hierarchy_.access(core, step.addr, step.is_write);
    cycles += mem.cycles;

    counters.instructions += step.compute_instr + 1;
    ++counters.memory_refs;
    if (!mem.tlb_hit) ++counters.tlb_misses;
    if (!mem.l1_hit) {
      ++counters.l1_misses;
      ++counters.l2_accesses;
      if (!mem.l2_hit) {
        ++counters.l2_misses;
        if (has_l3_) {
          ++counters.l3_accesses;
          if (!mem.l3_hit) ++counters.l3_misses;
        }
      }
    }

    clock_[core] += cycles;
    t.run_user_cycles += cycles;
    t.total_user_cycles += cycles;
    quantum_left_[core] -= std::min(quantum_left_[core], cycles);
    ++stats_.steps;

    if (stream.complete()) {
      if (t.completed_runs == 0) {
        t.first_completion_user_cycles = t.run_user_cycles;
        t.first_completion_wall_cycles = clock_[core];
      }
      ++t.completed_runs;
      t.run_user_cycles = 0;
      stream.restart();  // the paper restarts finished benchmarks
    }
  }

  if (quantum_left_[core] == 0) switch_out(core);
}

bool Machine::advance_one() {
  // Pick the busy core with the smallest clock.
  std::size_t core = clock_.size();
  std::uint64_t lowest = 0;
  for (std::size_t c = 0; c < clock_.size(); ++c) {
    const bool busy = current_[c] != kNoTask || scheduler_.queue_depth(c) > 0;
    if (!busy) continue;
    if (core == clock_.size() || clock_[c] < lowest) {
      core = c;
      lowest = clock_[c];
    }
  }
  if (core == clock_.size()) return false;  // machine fully idle

  if (current_[core] == kNoTask && !switch_in(core)) return false;
  execute_batch(core);
  fire_due_hooks();
  return true;
}

void Machine::fire_due_hooks() {
  if (!hook_) return;
  while (now() >= next_hook_) {
    ++stats_.hook_invocations;
    publish_metrics();
    hook_(*this);
    next_hook_ += hook_period_;
  }
}

void Machine::publish_metrics() {
  static obs::Counter& switches = obs::counter("machine.context_switch");
  static obs::Counter& steps = obs::counter("machine.steps");
  static obs::Counter& hooks = obs::counter("machine.hook_invocations");
  switches.add(stats_.context_switches - published_.context_switches);
  steps.add(stats_.steps - published_.steps);
  hooks.add(stats_.hook_invocations - published_.hook_invocations);
  published_ = stats_;
  hierarchy_.publish_metrics();
}

bool Machine::run_to_all_complete(std::uint64_t max_cycles) {
  const std::uint64_t deadline = max_cycles ? now() + max_cycles : 0;
  auto all_done = [&] {
    return std::all_of(tasks_.begin(), tasks_.end(), [](const auto& t) {
      return t->background || t->completed_runs >= 1;
    });
  };
  bool completed = true;
  while (!all_done()) {
    if ((deadline && now() >= deadline) || !advance_one()) {
      completed = false;
      break;
    }
  }
  publish_metrics();
  return completed;
}

void Machine::run_for(std::uint64_t cycles) {
  const std::uint64_t deadline = now() + cycles;
  while (now() < deadline) {
    if (!advance_one()) break;
  }
  publish_metrics();
}

std::uint64_t Machine::run_batch(std::uint64_t batches) {
  std::uint64_t executed = 0;
  while (executed < batches && advance_one()) ++executed;
  publish_metrics();
  return executed;
}

}  // namespace symbiosis::machine
