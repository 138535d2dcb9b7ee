#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n|development|held-out> \\
      [--seconds <s>] --trace <0|1> [--out result.json]
  python3 perfbench/run.py --compare base.json new.json
  python3 perfbench/run.py --self-test

A run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs the symbench program, prints a readable report
and, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
--seconds defaults to BENCHMARK.json's run_seconds.

--out saves the full result with the host fingerprint (CPU model, online
CPUs, SIMD backend, build type, compiler). --compare refuses, with exit code
3, to compare two saved results whose fingerprints differ. See
perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "symbench")
WORKLOADS = ["sweep-core2duo", "replay-clustered", "decide-quadcore", "vm-core2duo"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170

# Units and directions of the figures printed beside the contract metrics.
REPORTED = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "mixes_per_s": ("mixes/s", "higher"),
    "sim_msteps_per_s": ("Msteps/s", "higher"),
    "replay_mrefs_per_s": ("Mrefs/s", "higher"),
    "decision_us_p50": ("us", "lower"),
    "decision_us_p99": ("us", "lower"),
    "improvement_avg_pct": ("%", "higher"),
    "regret_pct": ("%", "lower"),
    "fail_ratio": ("failed/attempted", "lower"),
    "samples": ("count", "-"),
    "workers": ("count", "-"),
}


class BenchError(Exception):
    """A problem that ends the run without a result."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def load_spec() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def resolve_seed(text: str) -> int:
    seeds = load_json(os.path.join(HERE, "seeds.json"))
    if text in seeds:
        return int(seeds[text])
    try:
        seed = int(text)
    except ValueError as e:
        raise BenchError(f"--seed must be an integer or one of {sorted(seeds)}") from e
    if seed < 0:
        raise BenchError("--seed must be non-negative")
    return seed


def build() -> None:
    """Configure (a no-op once done) and bring symbench up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, check=False)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def host_fingerprint(program_part: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, **program_part}


def run_symbench(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"symbench {workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def contract_metrics(spec: dict, raw: dict, trace: int) -> tuple[dict, list[str]]:
    """The metrics BENCHMARK.json declares for this mode, and any missing."""
    source = raw["layers"] if trace else raw["e2e"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    return metrics, missing


def print_report(raw: dict, spec: dict, fingerprint: dict) -> None:
    print(f"workload {raw['workload']}  seed {raw['seed']}  trace {int(raw['trace'])}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(f"checks {raw['attempted']} attempted, {raw['failed']} failed")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")
    print(f"digest {raw['digest']}")
    print("end-to-end (untraced region):")
    e2e = dict(raw["e2e"])
    e2e["fail_ratio"] = raw["failed"] / max(1, raw["attempted"])
    for name in sorted(e2e):
        unit, better = REPORTED.get(name, ("", ""))
        print(f"  {name:<24} {e2e[name]:>16.6g} {unit:<17} {better}")
    if raw["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("per-layer (traced pass; 0 = layer not called by this workload):")
        for name, value in raw["layers"].items():
            print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")
        print("spans (count, total ms, self ms):")
        for name, span in raw["spans"].items():
            print(f"  {name:<24} {span['count']:>8.0f} {span['total_ms']:>14.3f} "
                  f"{span['self_ms']:>14.3f}")


def measure(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload '{args.workload}' (one of {', '.join(WORKLOADS)})")
    if args.trace not in (0, 1):
        raise BenchError("--trace must be 0 or 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 0:
        raise BenchError("--seconds must be non-negative")
    seed = resolve_seed(args.seed)
    build()
    raw = run_symbench(args.workload, seed, seconds, args.trace)
    fingerprint = host_fingerprint(raw["fingerprint"])
    print_report(raw, spec, fingerprint)
    metrics, missing = contract_metrics(spec, raw, args.trace)
    for name in missing:
        print(f"  MISSING metric {name}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"fingerprint": fingerprint, "workload": args.workload, "seed": seed,
                       "trace": args.trace, "digest": raw["digest"],
                       "attempted": raw["attempted"], "failed": raw["failed"],
                       "e2e": raw["e2e"], "layers": raw["layers"]}, f, indent=1, sort_keys=True)
    result = {"correct": raw["failed"] == 0 and not missing, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


def compare(base_path: str, new_path: str) -> int:
    """Compare two saved results; refuse across host fingerprints."""
    spec = load_spec()
    base, new = load_json(base_path), load_json(new_path)
    diffs = [k for k in sorted(set(base["fingerprint"]) | set(new["fingerprint"]))
             if base["fingerprint"].get(k) != new["fingerprint"].get(k)]
    if diffs:
        for k in diffs:
            log(f"  {k}: {base['fingerprint'].get(k)!r} vs {new['fingerprint'].get(k)!r}")
        log("refusing to compare: the results come from different host fingerprints")
        return 3
    if (base["workload"], base["seed"]) != (new["workload"], new["seed"]):
        log("refusing to compare: different workloads or seeds")
        return 3
    worse = 0
    print(f"workload {new['workload']}  seed {new['seed']}")
    print("digest " + ("identical" if base["digest"] == new["digest"] else "DIFFERS"))
    for m in spec["end_to_end"]:
        a, b = base["e2e"].get(m["name"]), new["e2e"].get(m["name"])
        if not a or b is None:
            continue
        change = (b - a) / a
        loss = change if m["better"] == "lower" else -change
        verdict = "WORSE" if loss > m["bound"] else "ok"
        worse += verdict == "WORSE"
        print(f"  {m['name']:<20} {a:>14.6g} -> {b:<14.6g} {change:+.1%} "
              f"(bound {m['bound']:.0%}) {verdict}")
    return 1 if worse else 0


def self_test() -> int:
    """Tiny-size run of every workload, traced and untraced, checking the
    result shape and that every metric name is well formed."""
    spec = load_spec()
    problems = []
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad metric name {n!r}" for n in declared if not NAME_RE.match(n)]
    build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = run_symbench(workload, resolve_seed("development"), 0, trace, tiny=True)
            names = list(raw["e2e"]) + list(raw["layers"])
            problems += [f"{workload}: bad metric name {n!r}"
                         for n in names if not NAME_RE.match(n)]
            _, missing = contract_metrics(spec, raw, trace)
            problems += [f"{workload} trace {trace}: missing {n}" for n in missing]
            if raw["failed"] or raw["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: checks failed: {raw['failures']}")
            log(f"self-test {workload} trace {trace}: {raw['attempted']} checks, "
                f"{raw['failed']} failed")
    for p in problems:
        log(f"  PROBLEM: {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="development")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", help="save the full result (with fingerprint) here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
