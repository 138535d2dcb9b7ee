// Figure 10 — maximum and average per-benchmark improvement, native runs.
//
// The paper runs mixes of four over its 12-program pool on the real Core 2
// Duo, schedules each mix with the weighted interference-graph algorithm,
// and reports each benchmark's maximum and average user-time improvement of
// the chosen mapping over the worst mapping: max 54% (mcf), 49% (omnetpp),
// 22% on average; povray and hmmer gain nothing.
//
// We sweep a deterministic sample of mixes (every benchmark appears in at
// least --per-benchmark mixes; C(12,4)=495 full coverage is out of scope
// for a laptop-scale run and the bench prints exactly what was covered).
#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "obs/stopwatch.hpp"
#include "util/cli.hpp"
#include "util/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace symbiosis;
  util::ArgParser args("bench_fig10", "Figure 10: native per-benchmark improvements");
  auto& per_benchmark = args.add_u64("per-benchmark", "mixes each benchmark appears in", 2);
  auto& seed = args.add_u64("seed", "RNG seed", 42);
  auto& report_path = args.add_string("report", "JSON run-report output path ('' = none)", "");
  if (!args.parse(argc, argv)) return args.exit_status();

  std::printf("=== Figure 10: max/avg improvement per benchmark (native) ===\n\n");
  const core::PipelineConfig config = bench::default_pipeline(seed);
  obs::PhaseTimings timings;
  core::SweepResult sweep;
  {
    obs::PhaseTimings::Scoped phase(timings, "run_sweep");
    util::ThreadPool workers;  // one per hardware thread; the result is the same for any count
    sweep = core::run_sweep(config, workload::spec2006_pool(), 4,
                            static_cast<std::size_t>(per_benchmark), false, &workers);
  }
  const auto& summary = sweep.summary;
  bench::print_improvements("weighted interference graph, chosen-vs-worst:", summary);
  if (!report_path.empty()) {
    core::write_report_file(core::build_sweep_report(config, sweep, timings), report_path);
    std::printf("wrote %s\n", report_path.c_str());
  }
  std::printf(
      "Expected shape (paper): mcf and omnetpp lead (54%% / 49%% max), astar and the\n"
      "mid-pool follow, povray (compute-bound) and hmmer (bandwidth-bound) gain ~0;\n"
      "average around 22%%.\n");
  return 0;
}
