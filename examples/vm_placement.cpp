// vm_placement — Dom0-driven virtual machine placement (§3.2, §5.1.2).
//
// Four single-benchmark VMs on a dual-core Xen-like hypervisor. Phase 1
// gathers per-VM Bloom-filter signatures (process-encapsulated, exactly as
// the paper's Simics phase); the control-domain policy picks a vcpu→core
// pinning; phase 2 measures every pinning on the hypervisor, so the chosen
// mapping's gain and the virtualization overhead are both visible.
//
//   ./vm_placement [--mix mcf,libquantum,povray,gobmk] [--seed 42]
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("vm_placement", "four VMs placed by Dom0 using cache signatures");
  auto& mix_arg = args.add_string("mix", "four comma-separated pool programs",
                                  "mcf,libquantum,povray,gobmk");
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  if (!args.parse(argc, argv)) return args.exit_status();

  std::vector<std::string> mix;
  {
    std::stringstream ss(mix_arg);
    std::string name;
    while (std::getline(ss, name, ',')) mix.push_back(name);
  }
  if (mix.size() != 4) throw std::invalid_argument("--mix needs exactly 4 names");

  core::PipelineConfig config;
  config.sync_scale();
  config.seed = seed;
  config.virtualized = true;
  config.measure_max_cycles = 4'000'000'000ull;

  std::printf("VMs: %s %s %s %s — dual-core hypervisor, per-VM signatures\n\n", mix[0].c_str(),
              mix[1].c_str(), mix[2].c_str(), mix[3].c_str());

  // Also measure natively for the §5.1.2 comparison.
  core::PipelineConfig native = config;
  native.virtualized = false;
  const core::MixOutcome vm_outcome = core::run_mix_experiment(config, mix);
  const core::MixOutcome native_outcome = core::run_mix_experiment(native, mix);

  util::TextTable table({"VM", "chosen pinning gain (VM)", "chosen gain (native)",
                         "virtualization overhead"});
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double vm_user =
        static_cast<double>(vm_outcome.mappings[vm_outcome.chosen].user_cycles[i]);
    const double native_user =
        static_cast<double>(native_outcome.mappings[native_outcome.chosen].user_cycles[i]);
    table.add_row({mix[i], util::TextTable::pct(vm_outcome.improvement_vs_worst(i)),
                   util::TextTable::pct(native_outcome.improvement_vs_worst(i)),
                   util::TextTable::pct(vm_user / native_user - 1.0)});
  }
  table.print();

  std::printf("\nDom0's chosen pinning: %s\n",
              vm_outcome.mappings[vm_outcome.chosen].allocation.describe(mix).c_str());
  std::printf(
      "\nExpected (§5.1.2): the same winners as the native run, with smaller margins —\n"
      "world switches, Dom0 cache pollution and nested translation dilute the effect.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symbiosis::util::run_main("vm_placement", argc, argv, run);
}
