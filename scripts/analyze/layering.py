#!/usr/bin/env python3
"""layering.py -- include-graph layering enforcement ("symlint" engine 2).

Parses the include graph of the repository -- translation units and include
search paths come from compile_commands.json, headers are scanned directly --
and checks it against the declared module DAG in layers.toml:

  back-edge   a file in src/<A> includes a header of src/<B> where B is not
              reachable from A in the declared DAG (depending on a module
              implies its transitive dependencies)
  cycle       a file-level include cycle inside src/ (mutually including
              headers; #pragma once hides these at compile time but they are
              always a layering smell)
  cpp-include an #include whose target is a .cpp/.cc file
  orphan      a header under src/ that no compiled translation unit reaches
              (dead code the build silently carries)
  manifest    src/ modules missing from layers.toml, unknown dependency
              names, or a cyclic manifest

Usage:
  scripts/analyze/layering.py [--root DIR] [--manifest FILE]
                              [--compile-db FILE] [--src-dir NAME]
                              [--skip-orphans] [--json FILE]

Defaults resolve against --root (the repo root): the manifest is
<root>/scripts/analyze/layers.toml or <root>/layers.toml, the compile
database is <root>/compile_commands.json, <root>/build-tidy/... or the first
<root>/build*/compile_commands.json found. CI generates the database once
with `cmake --preset tidy` and shares it with clang-tidy.

Exit status: 0 clean, 1 violations found, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tomllib
from pathlib import Path

_ANALYZE_DIR = str(Path(__file__).resolve().parent)
if _ANALYZE_DIR not in sys.path:
    sys.path.insert(0, _ANALYZE_DIR)

import compiledb

HEADER_SUFFIXES = {".hpp", ".h", ".hh"}
SOURCE_SUFFIXES = {".cpp", ".cc"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(?:"([^"]+)"|<([^>]+)>)')


def fail_usage(message: str) -> "NoReturn":  # noqa: F821 (py3.11 typing brevity)
    print(f"layering.py: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Manifest


def load_manifest(path: Path) -> dict[str, list[str]]:
    try:
        with path.open("rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        fail_usage(f"cannot read manifest {path}: {exc}")
    layers = data.get("layers")
    if not isinstance(layers, dict) or not layers:
        fail_usage(f"manifest {path} has no [layers] table")
    for module, deps in layers.items():
        if not isinstance(deps, list) or any(not isinstance(d, str) for d in deps):
            fail_usage(f"manifest {path}: layers.{module} must be a list of module names")
    return {module: list(deps) for module, deps in layers.items()}


def manifest_problems(layers: dict[str, list[str]], modules_on_disk: set[str]) -> list[str]:
    problems = []
    for module, deps in sorted(layers.items()):
        for dep in deps:
            if dep not in layers:
                problems.append(
                    f"manifest: layers.{module} depends on undeclared module '{dep}'"
                )
            if dep == module:
                problems.append(f"manifest: layers.{module} depends on itself")
    for module in sorted(modules_on_disk - set(layers)):
        problems.append(
            f"manifest: module '{module}' has code under src/ but is not declared in layers.toml"
        )
    # Cycle check on the declared graph (DFS three-colour).
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(module: str, trail: list[str]) -> None:
        if state.get(module) == 1:
            return
        if state.get(module) == 0:
            cycle = trail[trail.index(module):] + [module]
            problems.append("manifest-cycle: " + " -> ".join(cycle))
            return
        state[module] = 0
        for dep in layers.get(module, []):
            if dep in layers:
                visit(dep, trail + [module])
        state[module] = 1

    for module in sorted(layers):
        visit(module, [])
    return problems


def transitive_allowed(layers: dict[str, list[str]]) -> dict[str, set[str]]:
    """allowed[A] = modules reachable from A (A itself included)."""
    allowed: dict[str, set[str]] = {}

    def reach(module: str) -> set[str]:
        if module in allowed:
            return allowed[module]
        allowed[module] = {module}  # pre-seed to terminate on (reported) cycles
        out = {module}
        for dep in layers.get(module, []):
            if dep in layers:
                out |= reach(dep)
        allowed[module] = out
        return out

    for module in layers:
        reach(module)
    return allowed


# --------------------------------------------------------------------------
# Compile database


def load_compile_db(path: Path) -> list[tuple[Path, list[Path]]]:
    """-> [(translation unit, include search dirs)], repo-external TUs kept."""
    out = []
    for entry in compiledb.read_entries(path, fail_usage):
        args = entry.arguments
        inc_dirs = []
        i = 0
        while i < len(args):
            arg = args[i]
            for flag in ("-I", "-isystem", "-iquote"):
                if arg == flag and i + 1 < len(args):
                    raw = Path(args[i + 1])
                    i += 1
                    break
                if arg.startswith(flag) and len(arg) > len(flag):
                    raw = Path(arg[len(flag):])
                    break
            else:
                i += 1
                continue
            i += 1
            inc_dirs.append(raw if raw.is_absolute() else (entry.directory / raw).resolve())
        out.append((entry.file, inc_dirs))
    return out


# --------------------------------------------------------------------------
# Include scanning


def parse_includes(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    found = []
    for line in text.splitlines():
        match = INCLUDE_RE.match(line)
        if match:
            found.append(match.group(1) or match.group(2))
    return found


def resolve_include(target: str, including: Path, search: list[Path], root: Path) -> Path | None:
    """Resolve to a path inside root, or None (system / external header)."""
    for base in [including.parent, *search]:
        candidate = (base / target).resolve()
        if candidate.is_file() and candidate.is_relative_to(root):
            return candidate
    return None


def module_of(path: Path, src_root: Path) -> str | None:
    """src/<module>/... -> module; files directly under src/ -> None."""
    try:
        rel = path.relative_to(src_root)
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else None


class Analyzer:
    def __init__(self, root: Path, src_root: Path, layers: dict[str, list[str]],
                 default_search: list[Path]):
        self.root = root
        self.src_root = src_root
        self.allowed = transitive_allowed(layers)
        self.default_search = default_search
        # file -> resolved include targets (only files inside root)
        self.edges: dict[Path, list[Path]] = {}

    def scan(self, path: Path, search: list[Path]) -> list[Path]:
        if path in self.edges:
            return self.edges[path]
        resolved = []
        for target in parse_includes(path):
            dest = resolve_include(target, path, search, self.root)
            if dest is not None:
                resolved.append(dest)
        self.edges[path] = resolved
        return resolved

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def check_src_tree(self) -> list[str]:
        """Back-edges, .cpp includes and include cycles over every src/ file."""
        problems = []
        src_files = sorted(
            f for f in self.src_root.rglob("*")
            if f.is_file() and f.suffix in HEADER_SUFFIXES | SOURCE_SUFFIXES
        )
        for file in src_files:
            from_module = module_of(file, self.src_root)
            for dest in self.scan(file, self.default_search):
                if dest.suffix in SOURCE_SUFFIXES:
                    problems.append(
                        f"cpp-include: {self.rel(file)} includes {self.rel(dest)} "
                        "(never #include a .cpp file; give it a header)"
                    )
                to_module = module_of(dest, self.src_root)
                if from_module is None or to_module is None or to_module == from_module:
                    continue
                if to_module not in self.allowed.get(from_module, {from_module}):
                    problems.append(
                        f"back-edge: {self.rel(file)} includes {self.rel(dest)} "
                        f"(module '{from_module}' may not depend on '{to_module}'; "
                        "see scripts/analyze/layers.toml)"
                    )
        problems.extend(self.find_cycles(src_files))
        return problems

    def find_cycles(self, src_files: list[Path]) -> list[str]:
        """Tarjan SCC over the src/ include graph; SCCs > 1 (or self-loops)."""
        index: dict[Path, int] = {}
        lowlink: dict[Path, int] = {}
        on_stack: set[Path] = set()
        stack: list[Path] = []
        sccs: list[list[Path]] = []
        counter = [0]
        src_set = set(src_files)

        def strongconnect(node: Path) -> None:
            # Iterative Tarjan (explicit stack) to survive deep include chains.
            work = [(node, iter(self.edges.get(node, [])))]
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, edge_iter = work[-1]
                advanced = False
                for dest in edge_iter:
                    if dest not in src_set:
                        continue
                    if dest not in index:
                        index[dest] = lowlink[dest] = counter[0]
                        counter[0] += 1
                        stack.append(dest)
                        on_stack.add(dest)
                        work.append((dest, iter(self.edges.get(dest, []))))
                        advanced = True
                        break
                    if dest in on_stack:
                        lowlink[current] = min(lowlink[current], index[dest])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1 or current in self.edges.get(current, []):
                        sccs.append(sorted(component))

        for file in src_files:
            if file not in index:
                strongconnect(file)

        problems = []
        for component in sorted(sccs):
            names = " -> ".join(self.rel(p) for p in component) + f" -> {self.rel(component[0])}"
            problems.append(f"cycle: include cycle inside src/: {names}")
        return problems

    def check_orphans(self, compile_db: list[tuple[Path, list[Path]]]) -> list[str]:
        """Headers under src/ not reachable from any compiled TU's closure."""
        reached: set[Path] = set()
        frontier = []
        tu_search: dict[Path, list[Path]] = {}
        for tu, search in compile_db:
            if tu.is_file():
                frontier.append((tu, search))
        if not frontier:
            return ["manifest: compile database lists no existing translation units"]
        while frontier:
            file, search = frontier.pop()
            if file in reached:
                continue
            reached.add(file)
            for dest in self.scan(file, search or self.default_search):
                if dest not in reached:
                    frontier.append((dest, search))
        problems = []
        for header in sorted(self.src_root.rglob("*")):
            if header.suffix in HEADER_SUFFIXES and header.is_file() and header not in reached:
                problems.append(
                    f"orphan: {self.rel(header)} is not reached from any compiled "
                    "translation unit (dead header, or a missing target)"
                )
        return problems


def problem_as_finding(problem: str) -> dict[str, object]:
    """Render one problem string in the shared analyzer findings schema
    (symdet/symhot JSON artifacts use the same keys)."""
    rule, _, message = problem.partition(": ")
    file_match = re.match(r"(\S+\.(?:hpp|h|hh|cpp|cc))\b", message)
    return {
        "checker": "layering",
        "rule": rule,
        "file": file_match.group(1) if file_match else "",
        "line": 0,
        "message": message,
        "waived": False,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="layers.toml path (default: <root>/scripts/analyze/layers.toml "
                             "or <root>/layers.toml)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json path (default: searched under <root>)")
    parser.add_argument("--src-dir", default="src", help="layered tree name (default: src)")
    parser.add_argument("--skip-orphans", action="store_true",
                        help="skip the orphan-header check (no compile database needed)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this file")
    args = parser.parse_args(argv[1:])

    root = (args.root or Path(__file__).resolve().parent.parent.parent).resolve()
    src_root = root / args.src_dir
    if not src_root.is_dir():
        fail_usage(f"no {args.src_dir}/ directory under {root}")

    manifest = args.manifest
    if manifest is None:
        for candidate in (root / "scripts" / "analyze" / "layers.toml", root / "layers.toml"):
            if candidate.is_file():
                manifest = candidate
                break
        else:
            fail_usage(f"no layers.toml found under {root} (pass --manifest)")
    layers = load_manifest(manifest)

    modules_on_disk = {
        child.name for child in src_root.iterdir()
        if child.is_dir() and any(
            f.suffix in HEADER_SUFFIXES | SOURCE_SUFFIXES for f in child.rglob("*")
        )
    }
    problems = manifest_problems(layers, modules_on_disk)

    compile_db: list[tuple[Path, list[Path]]] = []
    if not args.skip_orphans:
        db_path = args.compile_db or compiledb.find_compile_db(root)
        if db_path is None:
            fail_usage(
                f"no compile_commands.json under {root} "
                "(run `cmake --preset tidy`, pass --compile-db, or --skip-orphans)"
            )
        compile_db = load_compile_db(db_path)

    analyzer = Analyzer(root, src_root, layers, default_search=[src_root])
    problems += analyzer.check_src_tree()
    if not args.skip_orphans:
        problems += analyzer.check_orphans(compile_db)

    for problem in problems:
        print(f"layering: {problem}")
    checked = len(analyzer.edges)
    if args.json:
        payload = {
            "tool": "layering",
            "version": 1,
            "files_scanned": checked,
            "manifest": str(manifest),
            "findings": [problem_as_finding(p) for p in problems],
            "counts": {"error": len(problems), "waived": 0},
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if problems:
        print(f"layering.py: {len(problems)} violation(s) across {checked} files",
              file=sys.stderr)
        return 1
    print(f"layering.py: OK ({checked} files, {len(layers)} modules, manifest {manifest.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
