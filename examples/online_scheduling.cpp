// online_scheduling — the paper's DEPLOYMENT mode: a live user-level
// monitor reads Bloom-filter signatures every period and re-pins processes
// on the running machine (§3.2), no offline emulation phase at all.
//
// Compares OS-default placement against live symbiotic scheduling on one
// mix: per-task user time, slowdown vs solo, Jain fairness over slowdowns,
// and how many times the monitor actually migrated anything (the
// confirmation hysteresis keeps that small).
//
//   ./online_scheduling [--mix mcf,libquantum,povray,gobmk]
//                       [--allocator weighted-graph] [--confirm 2]
#include <cstdio>
#include <sstream>

#include "core/online.hpp"
#include "core/report.hpp"
#include "obs/stopwatch.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("online_scheduling", "live signature-driven re-pinning");
  auto& mix_arg = args.add_string("mix", "four comma-separated pool programs",
                                  "mcf,libquantum,povray,gobmk");
  auto& allocator = args.add_string("allocator", "allocation policy", "weighted-graph");
  auto& confirm = args.add_u64("confirm", "windows a mapping must win before applying", 2);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  auto& report_path = args.add_string("report", "JSON run-report output path ('' = none)", "");
  if (!args.parse(argc, argv)) return args.exit_status();

  std::vector<std::string> mix;
  {
    std::stringstream ss(mix_arg);
    std::string name;
    while (std::getline(ss, name, ',')) mix.push_back(name);
  }

  core::OnlineConfig config;
  config.pipeline.sync_scale();
  config.pipeline.allocator = allocator;
  config.pipeline.seed = seed;
  config.pipeline.measure_max_cycles = 4'000'000'000ull;
  config.confirm_windows = static_cast<unsigned>(confirm);

  obs::PhaseTimings timings;
  const auto solo = [&] {
    obs::PhaseTimings::Scoped phase(timings, "solo_user_cycles");
    return core::solo_user_cycles(config.pipeline, mix);
  }();
  const core::OnlineRun base = [&] {
    obs::PhaseTimings::Scoped phase(timings, "run_online_baseline");
    return core::run_online_baseline(config, mix);
  }();
  const core::OnlineRun live = [&] {
    obs::PhaseTimings::Scoped phase(timings, "run_online");
    return core::run_online(config, mix);
  }();

  util::TextTable table({"task", "solo (Mcyc)", "default (Mcyc)", "live (Mcyc)",
                         "default slowdown", "live slowdown"});
  std::vector<double> base_slow, live_slow;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double s = static_cast<double>(solo[i]);
    base_slow.push_back(static_cast<double>(base.user_cycles[i]) / s);
    live_slow.push_back(static_cast<double>(live.user_cycles[i]) / s);
    table.add_row({mix[i], util::TextTable::fmt(s / 1e6, 1),
                   util::TextTable::fmt(static_cast<double>(base.user_cycles[i]) / 1e6, 1),
                   util::TextTable::fmt(static_cast<double>(live.user_cycles[i]) / 1e6, 1),
                   util::TextTable::fmt(base_slow.back(), 2) + "x",
                   util::TextTable::fmt(live_slow.back(), 2) + "x"});
  }
  table.print();

  std::printf("\nfairness (Jain over slowdowns): default %.3f -> live %.3f\n",
              core::jain_fairness(base_slow), core::jain_fairness(live_slow));
  std::printf("monitor re-pinned %zu time(s); final mapping %s; wall %.1f -> %.1f Mcyc\n",
              live.repinnings, live.final_mapping_key.c_str(),
              static_cast<double>(base.wall_cycles) / 1e6,
              static_cast<double>(live.wall_cycles) / 1e6);

  if (!report_path.empty()) {
    core::write_report_file(core::build_online_report(config, live, &base, timings),
                            report_path);
    std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symbiosis::util::run_main("online_scheduling", argc, argv, run);
}
