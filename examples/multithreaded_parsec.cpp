// multithreaded_parsec — two-phase thread allocation on PARSEC-like apps
// (§3.3.4, Fig 8, Fig 12).
//
// Two 4-thread programs share a dual-core. Phase 1 of the §3.3.4 algorithm
// weight-sorts each process's threads; phase 2 runs the weighted
// interference graph over all eight threads with the intra-process edges
// pinned. The example prints the phase-1 grouping, the final thread→core
// map, and the per-process user time against the default placement.
//
//   ./multithreaded_parsec [--apps ferret,canneal] [--seed 42]
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/profile.hpp"
#include "core/symbiotic_scheduler.hpp"
#include "sched/multithread.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/parsec_model.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("multithreaded_parsec", "two-phase allocation for 4-thread apps");
  auto& apps_arg = args.add_string("apps", "two comma-separated PARSEC programs",
                                   "ferret,canneal");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return args.exit_status();

  std::vector<std::string> apps;
  {
    std::stringstream ss(apps_arg);
    std::string name;
    while (std::getline(ss, name, ',')) apps.push_back(name);
  }
  if (apps.size() != 2) throw std::invalid_argument("--apps needs exactly 2 names");

  core::PipelineConfig config;
  config.sync_scale();
  config.seed = seed;
  config.measure_max_cycles = 4'000'000'000ull;

  core::SymbioticScheduler pipeline(config);
  const sched::Allocation chosen = pipeline.choose_allocation_mt(apps);

  std::printf("thread -> core map (%s + %s, 4 threads each):\n", apps[0].c_str(),
              apps[1].c_str());
  util::TextTable map({"thread", "core"});
  for (std::size_t i = 0; i < chosen.group_of.size(); ++i) {
    const std::string name = apps[i / 4] + ".t" + std::to_string(i % 4);
    map.add_row({name, std::to_string(chosen.group_of[i])});
  }
  map.print();

  // Measure chosen vs the default round-robin placement.
  sched::DefaultAllocator def;
  std::vector<sched::TaskProfile> dummy(chosen.group_of.size());
  const core::MappingRun base = core::measure_mapping_mt(config, apps, def.allocate(dummy, 2));
  const core::MappingRun ours = core::measure_mapping_mt(config, apps, chosen);

  util::TextTable result({"process", "default (Mcyc)", "two-phase (Mcyc)", "gain"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const double d = static_cast<double>(base.user_cycles[i]);
    const double o = static_cast<double>(ours.user_cycles[i]);
    result.add_row({apps[i], util::TextTable::fmt(d / 1e6, 1), util::TextTable::fmt(o / 1e6, 1),
                    util::TextTable::pct(1.0 - o / d)});
  }
  std::printf("\nper-process user time (sum of thread user times at first completion):\n");
  result.print();
  std::printf(
      "\nThe two-phase algorithm must NOT mistake intra-process sharing for\n"
      "interference (§3.3.4) — threads that share data stay schedulable together.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symbiosis::util::run_main("multithreaded_parsec", argc, argv, run);
}
