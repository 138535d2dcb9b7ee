// mix_runner — a general CLI over the experiment harness: run any mix under
// any machine/allocator configuration, print the full mapping matrix, and
// optionally dump raw results as CSV for external plotting.
//
//   ./mix_runner --mix mcf,omnetpp,libquantum,povray --cores 2
//                --allocator weight-sort --csv /tmp/results.csv
//   ./mix_runner --mix mcf,omnetpp,gcc,bzip2,libquantum,povray,gobmk,hmmer
//                --cores 4 --l2-kb 512
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "obs/stopwatch.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace symbiosis;

  util::ArgParser args("mix_runner", "run one mix end to end, any configuration");
  auto& mix_arg = args.add_string("mix", "comma-separated pool programs",
                                  "mcf,libquantum,povray,gobmk");
  auto& cores = args.add_u64("cores", "number of cores (shared L2)", 2);
  auto& l2_kb = args.add_u64("l2-kb", "shared L2 capacity in KiB", 256);
  auto& allocator = args.add_string("allocator", "allocation policy", "weighted-graph");
  auto& hash = args.add_string("hash", "signature hash function", "xor");
  auto& sample_shift = args.add_u64("sample-shift", "set-sampling shift", 0);
  auto& scale = args.add_double("scale", "benchmark length multiplier", 1.0);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  auto& vm = args.add_flag("vm", "measure inside VMs on the hypervisor");
  auto& csv_path = args.add_string("csv", "CSV output path ('' = none)", "");
  auto& report_path = args.add_string("report", "JSON run-report output path ('' = none)", "");
  if (!args.parse(argc, argv)) return args.exit_status();

  std::vector<std::string> mix;
  {
    std::stringstream ss(mix_arg);
    std::string name;
    while (std::getline(ss, name, ',')) mix.push_back(name);
  }
  if (mix.size() < cores) throw std::invalid_argument("need at least as many programs as cores");

  core::PipelineConfig config;
  config.machine.hierarchy.num_cores = cores;
  config.machine.hierarchy.l2.size_bytes = l2_kb * 1024;
  config.machine.hierarchy.signature.hash = sig::parse_hash_kind(hash);
  config.machine.hierarchy.signature.sample_shift =
      util::ArgParser::narrow_unsigned(sample_shift, "sample-shift");
  config.sync_scale();
  config.scale.length_scale = scale;
  config.allocator = allocator;
  config.seed = seed;
  config.virtualized = vm;
  config.measure_max_cycles = 8'000'000'000ull;

  obs::PhaseTimings timings;
  core::MixOutcome outcome;
  {
    obs::PhaseTimings::Scoped phase(timings, "run_mix_experiment");
    outcome = core::run_mix_experiment(config, mix);
  }

  util::TextTable table;
  std::vector<std::string> header = {"benchmark"};
  for (const auto& run : outcome.mappings) header.push_back(run.allocation.describe(mix));
  table.set_header(header);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::vector<std::string> row = {mix[i]};
    for (const auto& run : outcome.mappings) {
      row.push_back(util::TextTable::fmt(static_cast<double>(run.user_cycles[i]) / 1e6, 1));
    }
    table.add_row(row);
  }
  std::printf("user time per mapping (megacycles), %zu mappings:\n", outcome.mappings.size());
  table.print();
  std::printf("\nchosen: %s\n",
              outcome.mappings[outcome.chosen].allocation.describe(mix).c_str());

  util::TextTable improvements({"benchmark", "chosen vs worst", "oracle vs worst"});
  for (std::size_t i = 0; i < mix.size(); ++i) {
    improvements.add_row({mix[i], util::TextTable::pct(outcome.improvement_vs_worst(i)),
                          util::TextTable::pct(outcome.oracle_improvement(i))});
  }
  improvements.print();

  if (!csv_path.empty()) {
    util::CsvWriter csv(csv_path);
    std::vector<std::string> head = {"benchmark"};
    for (const auto& run : outcome.mappings) head.push_back(run.allocation.key());
    head.push_back("improvement_vs_worst");
    head.push_back("oracle_vs_worst");
    csv.row(head);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      std::vector<std::string> row = {mix[i]};
      for (const auto& run : outcome.mappings) {
        row.push_back(std::to_string(run.user_cycles[i]));
      }
      row.push_back(std::to_string(outcome.improvement_vs_worst(i)));
      row.push_back(std::to_string(outcome.oracle_improvement(i)));
      csv.row(row);
    }
    std::printf("\nwrote %s\n", csv_path.c_str());
  }

  if (!report_path.empty()) {
    core::write_report_file(core::build_mix_report(config, outcome, timings), report_path);
    std::printf("\nwrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return symbiosis::util::run_main("mix_runner", argc, argv, run);
}
