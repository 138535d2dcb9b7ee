#include "core/online.hpp"

#include <cmath>
#include <stdexcept>

#include "core/profile.hpp"
#include "obs/metrics.hpp"
#include "sched/policy.hpp"

namespace symbiosis::core {

namespace {

OnlineRun finish(machine::Machine& m, const std::vector<machine::TaskId>& ids, bool completed) {
  OnlineRun run;
  run.completed = completed;
  run.wall_cycles = m.now();
  for (const auto id : ids) {
    run.names.push_back(m.task(id).name());
    run.user_cycles.push_back(m.task(id).first_completion_user_cycles);
  }
  return run;
}

/// Every core needs a program: an empty or short mix would "measure" idle
/// cores and report a vacuous fairness of 1.
void require_full_mix(const PipelineConfig& config, const std::vector<std::string>& mix) {
  if (mix.size() < config.machine.hierarchy.num_cores) {
    throw std::invalid_argument("need at least as many programs as cores");
  }
}

}  // namespace

OnlineRun run_online(const OnlineConfig& config, const std::vector<std::string>& mix) {
  const PipelineConfig& pc = config.pipeline;
  require_full_mix(pc, mix);
  machine::Machine m(pc.machine);
  const auto ids = add_mix_tasks(m, mix, pc.scale, pc.seed);
  auto allocator = sched::make_allocator(pc.allocator, pc.seed);
  const std::size_t cores = pc.machine.hierarchy.num_cores;

  std::string pending_key;
  unsigned pending_streak = 0;
  std::string applied_key;
  std::size_t repinnings = 0;

  m.set_periodic_hook(pc.allocator_period_cycles, [&](machine::Machine& mm) {
    auto profiles = collect_profiles(mm);
    bool ready = true;
    for (const auto& p : profiles) {
      ready = ready && mm.task(ids[p.task_index]).signature().samples() > 0;
    }
    if (!ready) return;
    const sched::Allocation alloc = allocator->allocate(profiles, cores);
    const std::string key = alloc.key();
    // Confirmation hysteresis: one noisy window must not migrate the world.
    pending_streak = (key == pending_key) ? pending_streak + 1 : 1;
    pending_key = key;
    if (pending_streak >= config.confirm_windows && key != applied_key) {
      apply_allocation(mm, ids, alloc);
      applied_key = key;
      ++repinnings;
      obs::counter("core.online.repinnings").add(1);
    }
    clear_signature_windows(mm);
  });

  const bool completed = m.run_to_all_complete(pc.measure_max_cycles);
  OnlineRun run = finish(m, ids, completed);
  run.repinnings = repinnings;
  run.final_mapping_key = applied_key;
  return run;
}

OnlineRun run_online_baseline(const OnlineConfig& config, const std::vector<std::string>& mix) {
  const PipelineConfig& pc = config.pipeline;
  require_full_mix(pc, mix);
  machine::Machine m(pc.machine);
  const auto ids = add_mix_tasks(m, mix, pc.scale, pc.seed);
  const bool completed = m.run_to_all_complete(pc.measure_max_cycles);
  return finish(m, ids, completed);
}

double jain_fairness(const std::vector<double>& slowdowns) {
  if (slowdowns.empty()) return 1.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double x : slowdowns) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(slowdowns.size()) * sum_sq);
}

std::vector<std::uint64_t> solo_user_cycles(const PipelineConfig& config,
                                            const std::vector<std::string>& mix) {
  require_full_mix(config, mix);
  std::vector<std::uint64_t> solo;
  solo.reserve(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    machine::Machine m(config.machine);
    util::Rng rng(config.seed);
    // Reproduce add_mix_tasks' per-position stream so the solo run uses the
    // same generator state as the loaded run.
    auto workload = workload::make_spec_workload(mix[i], machine::address_space_base(i),
                                                 rng.split(i + 1), config.scale);
    const auto id = m.add_task(std::move(workload));
    m.run_to_all_complete(config.measure_max_cycles);
    solo.push_back(m.task(id).first_completion_user_cycles);
  }
  return solo;
}

}  // namespace symbiosis::core
