#!/usr/bin/env python3
"""lint.py -- repo-specific lint rules clang-tidy cannot express.

Usage: scripts/lint.py [--json FILE] [paths...]   (default: src/ examples/)

Rules (see README "Correctness tooling"):
  no-raw-assert        assert() is banned in committed C++: it vanishes under
                       NDEBUG and bypasses the SYM_CHECK violation registry.
                       Use SYM_CHECK / SYM_DCHECK from util/check.hpp.
  no-rand              rand()/srand() are banned: experiments must be
                       reproducible through util::Rng's seeded streams.
  no-using-namespace-in-header
                       `using namespace` in a header pollutes every includer.
  pragma-once          every header must open with #pragma once (include
                       guards are not used in this repo).
  raw-mutex            a mutex member in src/ must guard something: the file
                       must annotate at least one field with
                       SYM_GUARDED_BY(<that mutex>) (util/thread_annotations.hpp),
                       or the declaration line must carry an explicit
                       `// symlint: unguarded` waiver saying why not.
                       Prefer util::Mutex over std::mutex -- std::mutex is
                       invisible to clang's thread-safety analysis.

Exit status: 0 when clean, 1 when any rule fires.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

_ANALYZE_DIR = str(Path(__file__).resolve().parent / "analyze")
if _ANALYZE_DIR not in sys.path:
    sys.path.insert(0, _ANALYZE_DIR)

from waivers import strip_strings_and_comments

CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".hh"}
HEADER_SUFFIXES = {".hpp", ".h", ".hh"}

RAW_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
STATIC_ASSERT = re.compile(r"static_assert\s*\(")
RAW_RAND = re.compile(r"(?<![\w:.])s?rand\s*\(")
USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
# Mutex member/variable declarations: `std::mutex m_;`, `util::Mutex m_;`,
# `Mutex m_;` (optionally `mutable`). References/pointers deliberately do not
# match -- only the owning declaration needs the annotation.
MUTEX_DECL = re.compile(r"\b(?:std::mutex|(?:util::)?Mutex)\s+(\w+)\s*;")
UNGUARDED_WAIVER = re.compile(r"//\s*symlint:\s*unguarded")


def check_file(path: Path) -> list[tuple[str, int, str, str]]:
    """-> [(file, line, rule, message)] so text and --json render one list."""
    problems: list[tuple[str, int, str, str]] = []

    def report(lineno: int, rule: str, message: str) -> None:
        problems.append((str(path), lineno, rule, message))

    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        report(1, "utf-8", "file is not valid UTF-8")
        return problems

    lines = text.splitlines()
    in_block_comment = False
    saw_pragma_once = False
    first_code_line = None
    mutex_decls: list[tuple[int, str, bool]] = []  # (lineno, name, waived)
    code_lines: list[str] = []

    for lineno, raw in enumerate(lines, start=1):
        code, in_block_comment = strip_strings_and_comments(raw, in_block_comment)
        code_lines.append(code)
        stripped = code.strip()

        if stripped == "#pragma once":
            saw_pragma_once = True
        if stripped and first_code_line is None:
            first_code_line = lineno

        if RAW_ASSERT.search(STATIC_ASSERT.sub("", code)):
            report(lineno, "no-raw-assert",
                   "raw assert() — use SYM_CHECK/SYM_DCHECK (util/check.hpp)")
        if RAW_RAND.search(code):
            report(lineno, "no-rand",
                   "rand()/srand() — use the seeded util::Rng instead")
        if path.suffix in HEADER_SUFFIXES and USING_NAMESPACE.search(code):
            report(lineno, "no-using-namespace-in-header",
                   "`using namespace` in a header leaks into every includer")
        for match in MUTEX_DECL.finditer(code):
            mutex_decls.append((lineno, match.group(1), bool(UNGUARDED_WAIVER.search(raw))))

    if path.suffix in HEADER_SUFFIXES and not saw_pragma_once:
        report(1, "pragma-once", "header missing #pragma once")

    # raw-mutex: enforced under src/ only (tests may build ad-hoc sync objects).
    if "src" in path.parts and mutex_decls:
        all_code = "\n".join(code_lines)
        for lineno, name, waived in mutex_decls:
            if waived:
                continue
            if not re.search(rf"SYM_GUARDED_BY\(\s*{re.escape(name)}\s*\)", all_code):
                report(lineno, "raw-mutex",
                       f"mutex '{name}' guards no SYM_GUARDED_BY field — "
                       "annotate the protected state (util/thread_annotations.hpp) or add "
                       "`// symlint: unguarded` with a reason")

    return problems


def collect(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(
                f for f in sorted(path.rglob("*")) if f.suffix in CPP_SUFFIXES and f.is_file()
            )
        elif path.is_file():
            files.append(path)
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def default_paths() -> list[str]:
    # Examples are linted alongside src/: they are the code users copy first.
    return [p for p in ("src", "examples") if Path(p).is_dir()] or ["src"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this file")
    parser.add_argument("paths", nargs="*", help="files/directories to lint "
                        "(default: src/ and examples/ when present)")
    args = parser.parse_args(argv[1:])
    paths = args.paths or default_paths()
    files = collect(paths)
    if not files:
        print(f"lint.py: no C++ files under: {' '.join(paths)}", file=sys.stderr)
        return 2
    problems: list[tuple[str, int, str, str]] = []
    for f in files:
        problems.extend(check_file(f))
    for file, lineno, _rule, message in problems:
        print(f"{file}:{lineno}: {message}")
    if args.json:
        payload = {
            "tool": "lint",
            "version": 1,
            "files_scanned": len(files),
            "findings": [
                {"checker": "lint", "rule": rule, "file": file, "line": lineno,
                 "message": message, "waived": False}
                for file, lineno, rule, message in problems
            ],
            "counts": {"error": len(problems), "waived": 0},
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if problems:
        print(f"lint.py: {len(problems)} problem(s) in {len(files)} files", file=sys.stderr)
        return 1
    print(f"lint.py: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
