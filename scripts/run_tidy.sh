#!/usr/bin/env bash
# run_tidy.sh — run clang-tidy (config: .clang-tidy) over the C++ trees.
#
# Usage: scripts/run_tidy.sh [--strict] [paths...]
#
#   --strict   fail (exit 2) when clang-tidy is not installed instead of
#              skipping; CI passes this so the gate cannot silently vanish.
#   paths      files or directories to lint (default: src tests bench examples)
#
# Builds the `tidy` preset's compile_commands.json on demand, then runs
# clang-tidy with warnings-as-errors (set in .clang-tidy) so any finding is a
# non-zero exit.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

strict=0
paths=()
for arg in "$@"; do
  case "$arg" in
    --strict) strict=1 ;;
    *) paths+=("$arg") ;;
  esac
done
if [[ ${#paths[@]} -eq 0 ]]; then
  paths=(src tests bench examples)
fi

# Find clang-tidy: plain name first, then versioned fallbacks (newest first).
tidy_bin=""
if command -v clang-tidy >/dev/null 2>&1; then
  tidy_bin="clang-tidy"
else
  for ver in 21 20 19 18 17 16 15 14; do
    if command -v "clang-tidy-${ver}" >/dev/null 2>&1; then
      tidy_bin="clang-tidy-${ver}"
      break
    fi
  done
fi

if [[ -z "$tidy_bin" ]]; then
  if [[ "$strict" -eq 1 ]]; then
    echo "run_tidy.sh: clang-tidy not found (strict mode)" >&2
    exit 2
  fi
  echo "run_tidy.sh: clang-tidy not found; skipping (install clang-tidy, or use --strict to fail)" >&2
  exit 0
fi

build_dir="build-tidy"
if [[ ! -f "$build_dir/compile_commands.json" ]]; then
  echo "run_tidy.sh: generating $build_dir/compile_commands.json"
  if cmake --list-presets >/dev/null 2>&1; then
    cmake --preset tidy >/dev/null
  else
    cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
  fi
fi

# Collect translation units under the requested paths.
files=()
while IFS= read -r f; do
  files+=("$f")
done < <(find "${paths[@]}" -name '*.cpp' -type f | sort)

if [[ ${#files[@]} -eq 0 ]]; then
  echo "run_tidy.sh: no .cpp files under: ${paths[*]}" >&2
  exit 1
fi

echo "run_tidy.sh: $tidy_bin over ${#files[@]} files"
status=0
for f in "${files[@]}"; do
  "$tidy_bin" -p "$build_dir" --quiet "$f" || status=1
done

if [[ "$status" -ne 0 ]]; then
  echo "run_tidy.sh: clang-tidy reported findings" >&2
fi
exit "$status"
