#!/usr/bin/env python3
"""determinism.py -- "symdet": determinism & RNG-discipline analysis ("symlint" engine 3).

Every result this repository reports (golden run-reports, differential-kernel
identity, serial-vs-ThreadPool sweeps) rests on bit-reproducible simulation.
symdet makes that a statically checked contract over the deterministic
modules (src/sig, src/cachesim, src/sched, src/machine, src/vm, src/workload,
src/core -- util and obs are deliberately outside: they own the sanctioned
nondeterministic boundary, i.e. wall-clock stopwatches, SYMBIOSIS_LOG env
control and the seeded util::Rng itself).

Like layering.py, the set of analyzed translation units is driven by
compile_commands.json when one is available (CI shares the `tidy` preset
database); headers belonging to the deterministic modules are always scanned.
examples/ sources are held to the same contract -- example binaries drive the
deterministic modules end-to-end and are the code users copy first.
The inline-waiver <-> registry machinery is shared with symhot
(scripts/analyze/waivers.py).
The engine is a comment/string-aware lexical analyzer -- no libclang needed
in the build image -- and every rule has a committed fixture exercising both
the firing and the clean direction (tests/tooling/test_determinism.py).

Checkers
  entropy   ambient entropy/state sources are banned in deterministic
            modules: std::rand/srand, std::random_device, wall clocks
            (time(), clock(), gettimeofday, chrono system/steady/
            high_resolution clocks), getenv-derived values, std:: random
            engines that bypass util::Rng (mt19937 et al.), and std::hash
            over pointer types (address-space layout leaks into values).
  ordering  iteration over std::unordered_{map,set,multimap,multiset} whose
            loop body writes to anything that escapes the loop (returns,
            reports, accumulators declared outside the body), and std::sort/
            std::stable_sort ordered by raw pointer value. A traversal whose
            accumulation is genuinely commutative can be annotated with
            SYM_ORDER_INSENSITIVE("why") from util/determinism.hpp on the
            statement or the immediately preceding code line.
  rng       RNG discipline: util::Rng must never be default-constructed and
            never seeded from an integer literal -- seeds must arrive
            through a parameter that traces back to config/CLI. Rng members
            declared without an initializer must be seeded in a mem-init
            list. Inside lambdas handed to ThreadPool entry points
            (parallel_for, parallel_for_sharded, submit) a by-reference
            captured Rng may only be .split() -- mutating a shared generator
            across task boundaries makes the draw sequence schedule-
            dependent. Generators declared inside the task body are fine,
            including ones assigned from a .split() substream without a
            spelled-out Rng type (`auto rng = base.split(i)` -- the
            run_sweep_grid sharding shape).
  waiver    waiver hygiene: malformed `// symdet:` comments, waivers that
            suppress nothing, inline waivers missing from the committed
            registry, and registry entries matching no inline waiver.

Waiver grammar
  // symdet: nondet(<non-empty reason>)
placed on the offending line, or alone on the line directly above it. Every
inline waiver must also be registered in scripts/analyze/
determinism_waivers.toml ([[waiver]] file/checker/reason) so sanctioned
exceptions are reviewed in one place.

Usage:
  scripts/analyze/determinism.py [--root DIR] [--compile-db FILE]
                                 [--modules a,b,...] [--registry FILE]
                                 [--json FILE] [--list-waivers]

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

_ANALYZE_DIR = str(Path(__file__).resolve().parent)
if _ANALYZE_DIR not in sys.path:
    sys.path.insert(0, _ANALYZE_DIR)

import compiledb
import waivers
from waivers import Finding, Waiver, WaiverGrammar, strip_strings_and_comments

SYMDET_GRAMMAR = WaiverGrammar(
    tool="symdet",
    comment_re=re.compile(r"//\s*symdet:\s*(?P<payload>.*)$"),
    payload_re=re.compile(r"^nondet\(\s*(?P<reason>[^)]*?)\s*\)\s*$"),
    expected="`// symdet: nondet(<non-empty reason>)`",
    registry_display="scripts/analyze/determinism_waivers.toml",
)

DETERMINISTIC_MODULES = ("cachesim", "core", "machine", "sched", "sig", "vm", "workload")

HEADER_SUFFIXES = {".hpp", ".h", ".hh"}
SOURCE_SUFFIXES = {".cpp", ".cc"}

ORDER_INSENSITIVE_RE = re.compile(r"\bSYM_ORDER_INSENSITIVE\s*\(")

ENTROPY_RULES: list[tuple[str, re.Pattern[str], str]] = [
    ("std-rand", re.compile(r"(?<![\w.:])(?:std\s*::\s*)?s?rand\s*\("),
     "rand()/srand() bypass the seeded util::Rng"),
    ("random-device", re.compile(r"\brandom_device\b"),
     "std::random_device draws hardware entropy; seed util::Rng from config"),
    ("wall-clock", re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "wall-clock reads make runs time-dependent (obs::Stopwatch is the "
     "sanctioned boundary for measurement)"),
    ("time-call", re.compile(r"(?<![\w.:])(?:std\s*::\s*)?(?:time|clock)\s*\(\s*"
                             r"(?:NULL|nullptr|0|&\w+|\))"),
     "time()/clock() read the wall clock"),
    ("time-call", re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
     "wall-clock syscalls make runs time-dependent"),
    ("getenv", re.compile(r"(?<![\w.:])(?:std\s*::\s*)?getenv\s*\("),
     "environment-derived values are invisible to the run config; thread "
     "them through config/CLI instead"),
    ("foreign-engine",
     re.compile(r"\b(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?"
                r"|ranlux\d+(?:_base)?|knuth_b)\b"),
     "std:: random engines bypass util::Rng's seed/split discipline"),
    ("pointer-hash", re.compile(r"\bhash\s*<[^<>;]*\*\s*>"),
     "hashing a pointer leaks address-space layout into values"),
]

THREADPOOL_ENTRY_RE = re.compile(r"\b(?:parallel_for(?:_sharded)?|submit)\s*\(")
RNG_MUTATION_METHODS = ("next_below", "next_range", "next_double", "next_bool",
                        "next_normal", "next_exponential", "shuffle", "reseed")
INT_LITERAL_RE = re.compile(r"^(?:0[xX][0-9a-fA-F']+|\d[\d']*)(?:[uU]?[lL]{0,2}|[lL]{1,2}[uU]?)$")


def fail_usage(message: str) -> "NoReturn":  # noqa: F821
    print(f"determinism.py: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class FileScan:
    path: Path
    rel: str
    raw: list[str]
    code: list[str]            # comment/string-stripped, line-aligned
    text: str                  # "\n".join(code)
    offsets: list[int]         # offset of each line start in text
    waivers: list[Waiver]
    waiver_errors: list[Finding]

    def line_of(self, offset: int) -> int:
        lo, hi = 0, len(self.offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.offsets[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


def scan_file(path: Path, root: Path) -> FileScan:
    rel = str(path.relative_to(root))
    try:
        raw = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as exc:
        fail_usage(f"cannot read {path}: {exc}")
    code: list[str] = []
    in_block = False
    for line in raw:
        stripped, in_block = strip_strings_and_comments(line, in_block)
        code.append(stripped)

    file_waivers, waiver_errors = waivers.scan_waivers(SYMDET_GRAMMAR, rel, raw, code)

    text = "\n".join(code)
    offsets = [0]
    for line in code[:-1]:
        offsets.append(offsets[-1] + len(line) + 1)
    return FileScan(path, rel, raw, code, text, offsets, file_waivers, waiver_errors)


# --------------------------------------------------------------------------
# Small parsing helpers over the stripped text


def match_bracket(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index one past the bracket closing text[start] (which must be open_ch),
    or -1 when unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        ch = text[i]
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text: str, start: int) -> int:
    """Like match_bracket for template angle brackets; tolerates >> closers."""
    depth = 0
    for i in range(start, len(text)):
        ch = text[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth <= 0:
                return i + 1
        elif ch in ";{":
            return -1  # statement ended: not a template argument list
    return -1


def statement_extent(text: str, start: int) -> int:
    """End offset of the statement (or brace block) beginning at start."""
    i = start
    while i < len(text):
        ch = text[i]
        if ch == ";":
            return i + 1
        if ch == "{":
            end = match_bracket(text, i, "{", "}")
            return end if end > 0 else len(text)
        if ch == "(":
            end = match_bracket(text, i, "(", ")")
            i = end if end > 0 else i + 1
            continue
        i += 1
    return len(text)


DECL_IN_BODY_RE = re.compile(
    r"(?:^|[;{(])\s*(?:const\s+)?(?:auto|bool|int|unsigned|long|float|double|char|"
    r"std\s*::\s*\w+|[A-Za-z_]\w*(?:\s*::\s*\w+)*)\b(?:\s*<[^;{}]*?>)?[&\s*]+"
    r"(\w+)\s*(?:=|\{|;|\[)", re.MULTILINE)
WRITE_RE = re.compile(
    r"(?:\breturn\b\s*[^;]|"                                  # value return
    r"\b(?P<pre>\w+)(?:\s*(?:\[[^\]]*\]|\.\w+|->\w+))*\s*"
    r"(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>=|\+\+|--)|"   # assignment
    r"\b(?P<obj>\w+)\s*(?:\.|->)\s*"
    r"(?:push_back|push_front|insert|emplace\w*|add|record|append|set|"
    r"observe|increment|store)\s*\()")


def body_escapes(body: str, local_names: set[str]) -> str | None:
    """Return a short description of the first escaping write in a loop body,
    or None when every write stays local to the body."""
    for decl in DECL_IN_BODY_RE.finditer(body):
        local_names.add(decl.group(1))
    for write in WRITE_RE.finditer(body):
        target = write.group("pre") or write.group("obj")
        if target is None:
            return "returns a value computed during traversal"
        if target not in local_names:
            return f"writes to '{target}' which outlives the loop body"
    return None


# --------------------------------------------------------------------------
# Checkers


def check_entropy(scan: FileScan) -> list[Finding]:
    findings = []
    for lineno, line in enumerate(scan.code, start=1):
        for rule, pattern, why in ENTROPY_RULES:
            if pattern.search(line):
                findings.append(Finding("entropy", rule, scan.rel, lineno, why))
    return findings


def unordered_names(scan: FileScan) -> set[str]:
    """Variable/member names declared with an unordered container type."""
    names = set()
    for match in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\s*<", scan.text):
        close = match_angle(scan.text, match.end() - 1)
        if close < 0:
            continue
        after = re.match(r"\s*[&*]*\s*(\w+)\s*[;={(,)]", scan.text[close:])
        if after and after.group(1) not in {"const", "auto"}:
            names.add(after.group(1))
    return names


def order_sanctioned(scan: FileScan, lineno: int) -> bool:
    """SYM_ORDER_INSENSITIVE on the statement line or the previous code line."""
    if ORDER_INSENSITIVE_RE.search(scan.code[lineno - 1]):
        return True
    for prev in range(lineno - 1, 0, -1):
        if not scan.code[prev - 1].strip():
            continue
        return bool(ORDER_INSENSITIVE_RE.search(scan.code[prev - 1]))
    return False


def check_ordering(scan: FileScan) -> list[Finding]:
    findings = []
    names = unordered_names(scan)
    flagged_lines: set[int] = set()

    def name_in(expr: str) -> str | None:
        for name in names:
            if re.search(rf"\b{re.escape(name)}\b", expr):
                return name
        return None

    # Range-for over an unordered container.
    for match in re.finditer(r"\bfor\s*\(", scan.text):
        close = match_bracket(scan.text, match.end() - 1, "(", ")")
        if close < 0:
            continue
        header = scan.text[match.end():close - 1]
        colon = _top_level_colon(header)
        if colon < 0:
            continue
        loop_var = _last_identifier(header[:colon])
        range_expr = header[colon + 1:]
        name = name_in(range_expr)
        if name is None:
            continue
        lineno = scan.line_of(match.start())
        if order_sanctioned(scan, lineno):
            continue
        body = scan.text[close:statement_extent(scan.text, close)]
        escape = body_escapes(body, {loop_var} if loop_var else set())
        if escape is None:
            continue
        flagged_lines.add(lineno)
        findings.append(Finding(
            "ordering", "unordered-traversal", scan.rel, lineno,
            f"iteration over unordered container '{name}' {escape}; iteration "
            "order is hash/layout-dependent -- iterate a sorted view, or annotate "
            "SYM_ORDER_INSENSITIVE(\"why\") if the accumulation is commutative"))

    # Iterator-style traversal (begin()/cbegin(), incl. via std:: algorithms).
    for name in names:
        for match in re.finditer(rf"\b{re.escape(name)}\s*\.\s*c?begin\s*\(", scan.text):
            lineno = scan.line_of(match.start())
            if lineno in flagged_lines or order_sanctioned(scan, lineno):
                continue
            flagged_lines.add(lineno)
            findings.append(Finding(
                "ordering", "unordered-traversal", scan.rel, lineno,
                f"iterator traversal of unordered container '{name}'; iteration "
                "order is hash/layout-dependent -- iterate a sorted view, or "
                "annotate SYM_ORDER_INSENSITIVE(\"why\")"))

    # Sorting by raw pointer value.
    for match in re.finditer(r"\b(?:std\s*::\s*)?(?:stable_)?sort\s*\(", scan.text):
        close = match_bracket(scan.text, match.end() - 1, "(", ")")
        if close < 0:
            continue
        args = scan.text[match.end():close - 1]
        lineno = scan.line_of(match.start())
        if re.search(r"\bless\s*<[^<>;]*\*\s*>", args):
            findings.append(Finding(
                "ordering", "pointer-sort", scan.rel, lineno,
                "std::less over a pointer type orders by address; sort by a "
                "stable key instead"))
            continue
        lam = re.search(
            r"\[[^\]]*\]\s*\(\s*(?:const\s+)?[\w:]+(?:\s*<[^()]*?>)?\s*\*\s*(?:const\s+)?(\w+)\s*,"
            r"\s*(?:const\s+)?[\w:]+(?:\s*<[^()]*?>)?\s*\*\s*(?:const\s+)?(\w+)\s*\)"
            r"\s*(?:->\s*\w+\s*)?\{(.*)\}", args, re.DOTALL)
        if lam:
            a, b, body = lam.group(1), lam.group(2), lam.group(3)
            raw_compare = (re.search(rf"(?<![\w*.>]){re.escape(a)}\s*[<>]\s*{re.escape(b)}(?![\w(])", body)
                           or re.search(rf"(?<![\w*.>]){re.escape(b)}\s*[<>]\s*{re.escape(a)}(?![\w(])", body))
            if raw_compare:
                findings.append(Finding(
                    "ordering", "pointer-sort", scan.rel, lineno,
                    f"comparator orders '{a}'/'{b}' by raw pointer value; pointer "
                    "order varies run-to-run -- compare a stable field instead"))
    return findings


def _top_level_colon(header: str) -> int:
    depth = 0
    for i, ch in enumerate(header):
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        elif ch == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                continue
            if i > 0 and header[i - 1] == ":":
                continue
            return i
    return -1


def _last_identifier(decl: str) -> str | None:
    idents = re.findall(r"\w+", decl)
    return idents[-1] if idents else None


RNG_TYPE_RE = re.compile(r"\b(?:util\s*::\s*)?Rng\b")


def check_rng(scan: FileScan, module_files: list[FileScan]) -> list[Finding]:
    findings = []
    rng_vars: set[str] = {"rng", "rng_"}  # conventional names, plus declared ones

    for match in RNG_TYPE_RE.finditer(scan.text):
        before = scan.text[:match.start()].rstrip()
        if before.endswith(("class", "struct", "explicit", "~", "::")):
            continue
        rest = scan.text[match.end():]
        lineno = scan.line_of(match.start())

        temp = re.match(r"\s*([({])", rest)
        if temp:  # temporary: util::Rng{...} / Rng(...)
            open_ch = temp.group(1)
            close_ch = ")" if open_ch == "(" else "}"
            start = match.end() + temp.start(1)
            end = match_bracket(scan.text, start, open_ch, close_ch)
            if end < 0:
                continue
            args = scan.text[start + 1:end - 1].strip()
            findings.extend(_rng_construction_findings(scan, lineno, args, "temporary"))
            continue

        decl = re.match(r"\s*(\w+)\s*([;({=,)])", rest)
        if not decl:
            continue
        name, sep = decl.group(1), decl.group(2)
        if sep in {",", ")"}:
            rng_vars.add(name)  # function parameter: seeded by the caller
            continue
        rng_vars.add(name)
        if sep == ";":
            if not _member_init_found(name, scan, module_files):
                findings.append(Finding(
                    "rng", "default-constructed", scan.rel, lineno,
                    f"Rng '{name}' is default-constructed (falls back to the "
                    "built-in constant seed); seed it from config/CLI, for a "
                    "member via the mem-init list"))
            continue
        if sep == "=":
            init = rest[decl.end(2):statement_extent(rest, decl.end(2))]
            inner = re.search(r"\bRng\s*[({]([^)}]*)[)}]", init)
            if inner is not None:
                findings.extend(_rng_construction_findings(
                    scan, lineno, inner.group(1).strip(), name))
            continue
        # sep in {"(", "{"}: direct initialization
        open_ch = sep
        close_ch = ")" if open_ch == "(" else "}"
        start = match.end() + decl.start(2)
        end = match_bracket(scan.text, start, open_ch, close_ch)
        if end < 0:
            continue
        args = scan.text[start + 1:end - 1].strip()
        findings.extend(_rng_construction_findings(scan, lineno, args, name))

    findings.extend(_check_rng_shared(scan, rng_vars))
    return findings


def _rng_construction_findings(scan: FileScan, lineno: int, args: str,
                               what: str) -> list[Finding]:
    if not args:
        return [Finding(
            "rng", "default-constructed", scan.rel, lineno,
            f"Rng {what} is default-constructed (built-in constant seed); "
            "pass a seed that traces back to config/CLI")]
    if INT_LITERAL_RE.match(args):
        return [Finding(
            "rng", "literal-seed", scan.rel, lineno,
            f"Rng {what} is seeded from the literal {args}; hardcoded seeds "
            "hide the reproducibility knob -- thread the seed from config/CLI "
            "(derive substreams with .split())")]
    return []


def _member_init_found(name: str, scan: FileScan, module_files: list[FileScan]) -> bool:
    """Is `name` initialized in a mem-init list (or reseeded) anywhere in its
    module? Members like `util::Rng rng_;` must appear as `: rng_(seed)`."""
    pattern = re.compile(rf"[:,]\s*{re.escape(name)}\s*[({{]|\b{re.escape(name)}\s*\.\s*reseed\s*\(")
    for other in module_files:
        if pattern.search(other.text):
            return True
    return False


def _check_rng_shared(scan: FileScan, rng_vars: set[str]) -> list[Finding]:
    findings = []
    for match in THREADPOOL_ENTRY_RE.finditer(scan.text):
        close = match_bracket(scan.text, match.end() - 1, "(", ")")
        if close < 0:
            continue
        call = scan.text[match.end():close - 1]
        call_line = scan.line_of(match.start())
        for lam in re.finditer(r"\[(?P<capture>[^\]]*)\]\s*(?:\([^)]*\))?\s*"
                               r"(?:mutable\s*)?(?:->\s*[\w:]+\s*)?\{", call):
            if "&" not in lam.group("capture"):
                continue  # by-value copies are per-task state, fine
            body_start = lam.end() - 1
            body_end = match_bracket(call, body_start, "{", "}")
            body = call[body_start:body_end if body_end > 0 else len(call)]
            for name in sorted(rng_vars):
                esc = re.escape(name)
                if re.search(rf"\bRng\b[^;()]*?\b{esc}\s*[=({{;]", body):
                    continue  # declared inside the task body: per-task state
                if re.search(rf"\b{esc}\s*=\s*[^;{{}}]*?\.\s*split\s*\(", body):
                    # Assigned from a .split() substream inside the task (e.g.
                    # `auto rng = base.split(i)` in run_sweep_grid's sharding):
                    # per-shard derived state, the sanctioned pattern.
                    continue
                mutation = re.search(
                    rf"\b{esc}\s*\(|\b{esc}\s*(?:\.|->)\s*(?:{'|'.join(RNG_MUTATION_METHODS)})\s*\(",
                    body)
                if mutation:
                    lineno = call_line + call[:body_start + mutation.start()].count("\n")
                    findings.append(Finding(
                        "rng", "shared-across-tasks", scan.rel, lineno,
                        f"Rng '{name}' is captured by reference and mutated inside "
                        "a ThreadPool task; the draw sequence then depends on "
                        "worker interleaving -- give each shard its own "
                        f"{name}.split(shard_id) generator"))
    return findings


# --------------------------------------------------------------------------
# File discovery (compile_commands.json-driven, like layering.py)


def collect_files(root: Path, modules: list[str], compile_db: Path | None) -> list[Path]:
    src_root = root / "src"
    if not src_root.is_dir():
        fail_usage(f"no src/ directory under {root}")
    db_sources = ({entry.file for entry in compiledb.read_entries(compile_db, fail_usage)}
                  if compile_db else None)
    files = []
    # Example binaries drive the deterministic modules end-to-end, so they are
    # held to the same contract (a wall-clock or hardcoded seed in an example
    # would silently regress RNG discipline in the very code users copy).
    scan_dirs = [src_root / module for module in modules]
    scan_dirs.append(root / "examples")
    for scan_dir in scan_dirs:
        if not scan_dir.is_dir():
            continue
        for file in sorted(scan_dir.rglob("*")):
            if not file.is_file():
                continue
            if file.suffix in HEADER_SUFFIXES:
                files.append(file)          # headers are module-owned: always scanned
            elif file.suffix in SOURCE_SUFFIXES:
                # With a database, only TUs the build actually compiles are
                # analyzed (mirrors layering.py's orphan semantics).
                if db_sources is None or file.resolve() in db_sources:
                    files.append(file)
    return files


# --------------------------------------------------------------------------
# Driver


def module_of(rel: str) -> str:
    """Cross-file grouping key: src/<module>/... groups by module, anything
    else (examples/) by its top-level directory."""
    parts = Path(rel).parts
    return parts[1] if parts[0] == "src" and len(parts) > 1 else parts[0]


def analyze(root: Path, modules: list[str], compile_db: Path | None,
            registry_path: Path | None) -> tuple[list[Finding], list[Waiver], int]:
    files = collect_files(root, modules, compile_db)
    if not files:
        fail_usage(f"no C++ files found under {root}/src for modules: {', '.join(modules)}")

    scans = [scan_file(f, root) for f in files]
    by_module: dict[str, list[FileScan]] = {}
    for scan in scans:
        by_module.setdefault(module_of(scan.rel), []).append(scan)

    findings: list[Finding] = []
    all_waivers: list[Waiver] = []
    for scan in scans:
        raw_findings = (check_entropy(scan)
                        + check_ordering(scan)
                        + check_rng(scan, by_module[module_of(scan.rel)]))
        waivers.apply_waivers(raw_findings, scan.waivers)
        findings.extend(raw_findings)
        findings.extend(scan.waiver_errors)
        all_waivers.extend(scan.waivers)

    findings.extend(waivers.unused_waiver_findings(all_waivers))

    if registry_path is not None and registry_path.is_file():
        entries = waivers.load_registry(registry_path, fail_usage)
        findings.extend(waivers.reconcile_registry(
            SYMDET_GRAMMAR, entries, [w for w in all_waivers if w.used_by]))

    findings.sort(key=lambda f: (f.file, f.line, f.checker, f.rule))
    return findings, all_waivers, len(scans)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json (default: searched under <root>; "
                             "without one, every src/<module> file is scanned)")
    parser.add_argument("--no-compile-db", action="store_true",
                        help="ignore any compile database and scan the whole tree")
    parser.add_argument("--modules", default=",".join(DETERMINISTIC_MODULES),
                        help="comma-separated deterministic modules "
                             f"(default: {','.join(DETERMINISTIC_MODULES)})")
    parser.add_argument("--registry", type=Path, default=None,
                        help="waiver registry TOML (default: <root>/scripts/analyze/"
                             "determinism_waivers.toml when present)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this file")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every inline waiver with its reason and exit")
    args = parser.parse_args(argv[1:])

    root = (args.root or Path(__file__).resolve().parent.parent.parent).resolve()
    modules = [m.strip() for m in args.modules.split(",") if m.strip()]
    if not modules:
        fail_usage("--modules must name at least one module")
    compile_db = args.compile_db
    if args.no_compile_db:
        if compile_db is not None:
            fail_usage("--compile-db and --no-compile-db are mutually exclusive")
    elif compile_db is None:
        compile_db = compiledb.find_compile_db(root)   # optional: tree scan without one
    elif not compile_db.is_file():
        fail_usage(f"compile database {compile_db} does not exist")
    registry = args.registry
    if registry is None:
        candidate = root / "scripts" / "analyze" / "determinism_waivers.toml"
        registry = candidate if candidate.is_file() else None
    elif not registry.is_file():
        fail_usage(f"waiver registry {registry} does not exist")

    findings, waivers, scanned = analyze(root, modules, compile_db, registry)

    if args.list_waivers:
        for waiver in sorted(waivers, key=lambda w: (w.file, w.line)):
            state = "live" if waiver.used_by else "UNUSED"
            print(f"{waiver.file}:{waiver.line}: [{state}] nondet({waiver.reason})")
        print(f"determinism.py: {len(waivers)} waiver(s)")
        return 0

    errors = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]

    if args.json:
        payload = {
            "tool": "symdet",
            "version": 1,
            "modules": modules,
            "files_scanned": scanned,
            "compile_db": str(compile_db) if compile_db else None,
            "findings": [vars(f) for f in findings],
            "counts": {"error": len(errors), "waived": len(waived)},
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for finding in findings:
        print(f"determinism: {finding.render()}")
    if errors:
        print(f"determinism.py: {len(errors)} finding(s) "
              f"({len(waived)} waived) across {scanned} files", file=sys.stderr)
        return 1
    suffix = f", {len(waived)} waived finding(s)" if waived else ""
    print(f"determinism.py: OK ({scanned} files, {len(modules)} modules{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
