// main.cpp — symbench: run one benchmark workload and print one JSON line.
//
//   symbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// The line carries the end-to-end metrics, the per-layer metrics of a
// traced run, the check counts, a digest of the simulated outputs and the
// parts of the host fingerprint the binary knows. perfbench/run.py builds
// this program and turns its line into the benchmark result.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "obs/json.hpp"
#include "util/log.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

using symbiosis::obs::Json;

int usage(const char* why) {
  std::fprintf(stderr,
               "symbench: %s\nusage: symbench --workload "
               "<sweep-core2duo|replay-clustered|decide-quadcore|vm-core2duo> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny]\n",
               why);
  return 2;
}

Json metrics_json(const std::map<std::string, double>& metrics) {
  Json out = Json::object();
  for (const auto& [name, value] : metrics) out.set(name, Json(value));
  return out;
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the parent's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  symbench::Options options;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--tiny") {
        options.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds >= 0.0;
      } else if (arg == "--trace") {
        options.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (>= 0) and --trace (0 or 1) are required");
  }

  symbiosis::util::set_log_level(symbiosis::util::LogLevel::Warn);
  symbench::Result result;
  try {
    if (workload == "sweep-core2duo") {
      result = symbench::run_sweep(options);
    } else if (workload == "replay-clustered") {
      result = symbench::run_replay(options);
    } else if (workload == "decide-quadcore") {
      result = symbench::run_decide(options);
    } else if (workload == "vm-core2duo") {
      result = symbench::run_vm(options);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "symbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  result.e2e["peak_rss_mb"] = peak_rss_mb();

  Json fingerprint = Json::object();
  fingerprint.set("online_cpus", Json(static_cast<std::uint64_t>(symbench::online_cpus())));
  fingerprint.set("simd", Json(symbiosis::util::simd_backend_name(
                              symbiosis::util::active_simd_backend())));
  fingerprint.set("build_type", Json(SYMBENCH_BUILD_TYPE));
  fingerprint.set("compiler", Json(SYMBENCH_COMPILER));

  Json failures = Json::array();
  for (const auto& f : result.failures) failures.push_back(Json(f));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(result.digest));

  Json out = Json::object();
  out.set("workload", Json(workload));
  out.set("seed", Json(options.seed));
  out.set("trace", Json(options.trace));
  out.set("attempted", Json(result.attempted));
  out.set("failed", Json(result.failed));
  out.set("failures", std::move(failures));
  out.set("digest", Json(std::string(digest)));
  out.set("fingerprint", std::move(fingerprint));
  out.set("e2e", metrics_json(result.e2e));
  out.set("layers", metrics_json(result.layers));
  Json spans = Json::object();
  for (const auto& [name, v] : result.spans) {
    Json span = Json::object();
    span.set("count", Json(v.at(0)));
    span.set("total_ms", Json(v.at(1) * 1e3));
    span.set("self_ms", Json(v.at(2) * 1e3));
    spans.set(name, std::move(span));
  }
  out.set("spans", std::move(spans));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
