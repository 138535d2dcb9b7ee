#!/usr/bin/env python3
"""bench_gate.py -- compare Google Benchmark JSON output against a committed
baseline and fail on per-benchmark real_time regressions.

Usage:
  scripts/bench_gate.py check  BENCH_kernels.json run.json [more.json ...]
  scripts/bench_gate.py update BENCH_kernels.json run.json [more.json ...]

  --tolerance FRAC   allowed fractional slowdown before failing (default 0.15;
                     CI runs with the default, see the perf-gate job)
  --filter REGEX     restrict the gate to benchmarks whose name matches REGEX
                     (re.search). In check mode, only matching run entries are
                     gated and unmeasured-baseline warnings are limited to
                     matching baseline entries; in update mode, baseline
                     entries NOT matching the regex survive untouched while
                     matching ones are rewritten from the runs. A regex that
                     does not compile is a usage error (exit 2).

`check` merges the benchmark entries of every run file (later files win on
duplicate names), normalises all times to nanoseconds, and compares each
benchmark's real_time against the baseline:

  ratio = measured / baseline
  ratio >  1 + tolerance  -> REGRESSION, exit 1
  ratio <  1 - tolerance  -> improvement, printed (consider re-baselining)
  otherwise               -> OK

A baseline entry may override the global tolerance for its benchmark alone:

  "BM_FilterUnitFillEvict/2": {
    "real_time_ns": 7.54,
    "tolerance": 0.25
  }

Use sparingly, for kernels whose absolute time is so small (single-digit ns)
that CI-runner noise routinely exceeds the global band; the override is
printed whenever it differs from --tolerance so a loosened gate stays
visible. `update` preserves existing overrides when rewriting times.

Benchmarks present in a run but absent from the baseline are informational
("new"); baseline entries that no run file measured are warnings, not
failures, so the signature and cachesim suites can be gated by separate CI
steps against one shared baseline file.

`update` rewrites the baseline's "benchmarks" section from the run files,
preserving any other top-level keys (e.g. the "pre_pr" history section).
Re-baseline deliberately, on a quiet machine, and commit the diff together
with the change that moved the numbers — the same contract as
scripts/regen_golden_report.sh for simulation semantics.

Exit status: 0 within tolerance, 1 on any regression, 2 on a usage or
baseline-format error (missing file, entry without "real_time_ns", bad
tolerance value) -- never a raw traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

#: Multipliers to nanoseconds for Google Benchmark's time_unit field.
TIME_UNITS_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fail_usage(message: str) -> "NoReturn":  # noqa: F821
    print(f"bench_gate.py: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_baseline(path: Path) -> dict:
    if not path.is_file():
        fail_usage(f"baseline file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        fail_usage(f"cannot read baseline {path}: {exc}")


def baseline_entry(path: Path, name: str, entry: dict,
                   default_tolerance: float) -> tuple[float, float]:
    """-> (baseline ns, tolerance) for one baseline entry, exit 2 if malformed."""
    if not isinstance(entry, dict) or "real_time_ns" not in entry:
        fail_usage(
            f"baseline {path}: entry '{name}' has no \"real_time_ns\" key -- "
            "re-baseline with `scripts/bench_gate.py update` or fix the entry"
        )
    try:
        base_ns = float(entry["real_time_ns"])
    except (TypeError, ValueError):
        fail_usage(f"baseline {path}: entry '{name}' real_time_ns is not a number")
    tolerance = entry.get("tolerance", default_tolerance)
    if not isinstance(tolerance, (int, float)) or not 0 < tolerance < 10:
        fail_usage(
            f"baseline {path}: entry '{name}' tolerance override must be a "
            f"fraction in (0, 10), got {tolerance!r}"
        )
    return base_ns, float(tolerance)


def load_run_benchmarks(paths: list[Path]) -> dict[str, float]:
    """Merge run files into {benchmark name: real_time in ns}."""
    merged: dict[str, float] = {}
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            fail_usage(f"cannot read run file {path}: {exc}")
        for entry in doc.get("benchmarks", []):
            # Skip aggregate rows (mean/median/stddev from --benchmark_repetitions).
            if entry.get("run_type", "iteration") != "iteration":
                continue
            unit = TIME_UNITS_NS.get(entry.get("time_unit", "ns"))
            if unit is None:
                fail_usage(f"{path}: unknown time_unit in {entry.get('name')}")
            merged[entry["name"]] = float(entry["real_time"]) * unit
    return merged


def cmd_update(baseline_path: Path, runs: dict[str, float],
               name_filter: "re.Pattern[str] | None" = None) -> int:
    doc = load_baseline(baseline_path) if baseline_path.exists() else {}
    previous = doc.get("benchmarks", {}) if isinstance(doc.get("benchmarks"), dict) else {}
    benchmarks = {}
    if name_filter is not None:
        # Out-of-scope entries survive untouched: a filtered update re-baselines
        # one suite without dropping (or perturbing) everything else.
        for name, old in previous.items():
            if not name_filter.search(name):
                benchmarks[name] = old
    for name, ns in sorted(runs.items()):
        entry: dict = {"real_time_ns": round(ns, 2)}
        old = previous.get(name)
        if isinstance(old, dict) and "tolerance" in old:
            entry["tolerance"] = old["tolerance"]  # overrides survive re-baselining
        benchmarks[name] = entry
    doc["benchmarks"] = dict(sorted(benchmarks.items()))
    baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(runs)} baseline entries to {baseline_path}")
    print("review the diff and commit it with the change that moved the numbers")
    return 0


def cmd_check(baseline_path: Path, runs: dict[str, float], default_tolerance: float,
              name_filter: "re.Pattern[str] | None" = None) -> int:
    doc = load_baseline(baseline_path)
    baseline_doc = doc.get("benchmarks", {})
    if not isinstance(baseline_doc, dict):
        fail_usage(f'baseline {baseline_path}: "benchmarks" must be an object')
    baseline = {
        name: baseline_entry(baseline_path, name, entry, default_tolerance)
        for name, entry in baseline_doc.items()
    }

    regressions: list[str] = []
    for name, measured_ns in sorted(runs.items()):
        if name not in baseline:
            print(f"  new        {name}: {measured_ns:.1f} ns (not in baseline)")
            continue
        base_ns, tolerance = baseline[name]
        ratio = measured_ns / base_ns
        line = f"{name}: {measured_ns:.1f} ns vs baseline {base_ns:.1f} ns ({ratio:.2f}x)"
        if tolerance != default_tolerance:
            line += f" [tolerance {tolerance:.0%}]"
        if ratio > 1.0 + tolerance:
            regressions.append(line)
            print(f"  REGRESSION {line}")
        elif ratio < 1.0 - tolerance:
            print(f"  improved   {line}")
        else:
            print(f"  ok         {line}")

    unmeasured = set(baseline) - set(runs)
    if name_filter is not None:
        unmeasured = {name for name in unmeasured if name_filter.search(name)}
    for name in sorted(unmeasured):
        print(f"  warning    {name}: in baseline but not measured by any run file")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond their "
            "tolerance:"
        )
        for line in regressions:
            print(f"  {line}")
        print(
            "\nIf the slowdown is intentional, re-baseline with\n"
            f"  scripts/bench_gate.py update {baseline_path} <run.json ...>\n"
            "and commit the diff with an explanation."
        )
        return 1
    print(f"\nall {len(runs)} benchmarks within tolerance "
          f"(default {default_tolerance:.0%})")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["check", "update"])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("runs", type=Path, nargs="+")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--filter", metavar="REGEX", default=None,
                        help="gate only benchmarks whose name matches REGEX "
                             "(re.search); update mode leaves non-matching "
                             "baseline entries untouched")
    args = parser.parse_args(argv)

    name_filter = None
    if args.filter is not None:
        try:
            name_filter = re.compile(args.filter)
        except re.error as exc:
            fail_usage(f"bad --filter regex {args.filter!r}: {exc}")

    runs = load_run_benchmarks(args.runs)
    if not runs:
        print("no benchmark entries found in the run files", file=sys.stderr)
        return 1
    if name_filter is not None:
        runs = {name: ns for name, ns in runs.items() if name_filter.search(name)}
        if not runs:
            print(f"no benchmark entries match --filter {args.filter!r}", file=sys.stderr)
            return 1
    if args.mode == "update":
        return cmd_update(args.baseline, runs, name_filter)
    return cmd_check(args.baseline, runs, args.tolerance, name_filter)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
