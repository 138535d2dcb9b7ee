// workloads.hpp — the four benchmark workloads and what each run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace symbench {

struct Options {
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< length of the timed region
  bool trace = false;    ///< add the traced pass and per-layer metrics
  bool tiny = false;     ///< smoke-test sizes (not for measurement)
};

/// CPUs this process may run on (its affinity mask): the worker count of
/// every thread pool, and the host fingerprint's online CPUs.
[[nodiscard]] std::size_t online_cpus();

/// Everything one workload run produced.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for the log
  std::uint64_t digest = 0;           ///< hash of the simulated outputs
  /// End-to-end metrics: the uniform set every workload reports plus the
  /// workload's own named figures.
  std::map<std::string, double> e2e;
  /// Per-layer metrics (traced runs only); layers the workload does not
  /// call stay 0.
  std::map<std::string, double> layers;
  /// Traced runs: per span name, {count, total seconds, self seconds}.
  std::map<std::string, std::vector<double>> spans;

  /// Count one checked operation; a false @p ok counts it as failed.
  void expect(bool ok, const std::string& what);
};

/// Names of every per-layer metric, in report order.
[[nodiscard]] const std::vector<std::string>& layer_metric_names();

[[nodiscard]] Result run_sweep(const Options& options);
[[nodiscard]] Result run_replay(const Options& options);
[[nodiscard]] Result run_decide(const Options& options);
[[nodiscard]] Result run_vm(const Options& options);

}  // namespace symbench
