#!/usr/bin/env python3
"""hotpath.py -- "symhot": object-level hot-path purity analyzer ("symlint"
engine 6, the companion gate to the perf gate).

The paper's premise is that footprint-signature scheduling is cheap enough to
run continuously; ROADMAP item 3 turns that into a hard decision-latency
budget. The perf gate catches regressions after they land as nanoseconds --
symhot statically prevents the classic latency cliffs instead: an allocation,
a lock, a throw path, or unannounced virtual dispatch sneaking into the
per-access simulation and scheduling kernels.

How it works (no compiler plugin, no source parsing of attributes):

  1. Hot-path roots are marked SYM_HOT and sanctioned cold sinks SYM_COLD
     (src/util/hotpath.hpp). The macros place the out-of-line symbol in a
     dedicated ELF section (.text.symhot / .text.symhot_cold) WITHOUT
     inhibiting inlining, so the standalone copy the analyzer reads is the
     same code callers inline.
  2. Every relwithdebinfo object the build tree's compile_commands.json
     lists for a src/ translation unit (its `output`, else the `-o` operand
     of its command) is disassembled with `objdump -drl`
     (stale objects of deleted sources are not in the database, so they are
     never scanned). Call edges come from the text
     relocations (direct calls and tail jumps) plus objdump's local symbol
     resolution; `call *...` sites are recorded as indirect with the
     file:line the DWARF line table attributes to them.
  3. The static call graph is traversed from every root, stopping at
     sinks. Any reachable call to a forbidden callee class is a finding:
       alloc   operator new/delete, malloc/free and friends
       lock    pthread_mutex/rwlock/cond, std::mutex, __cxa_guard_* (a
               function-local static's guard is a lock)
       throw   __cxa_throw/__cxa_allocate_exception, std::__throw_*,
               terminate/abort
       io      printf family, iostream emission
     plus opaque-extern (an undefined symbol outside the small allowlist of
     proven-pure externs: memcpy/memset/..., libgcc popcount, unwind
     personality) and indirect-call (virtual/function-pointer dispatch).
  4. Indirect calls are waivable -- `// symhot: indirect(<reason>)` on the
     call line or alone directly above it, mirrored by a [[waiver]] entry in
     scripts/analyze/hotpath_waivers.toml (two-way, exactly like symdet;
     shared machinery in scripts/analyze/waivers.py).
  5. The annotated set itself is registered: every .text.symhot symbol must
     match a [[root]] entry in scripts/analyze/hotpath_roots.toml and vice
     versa (same for [[sink]]), so adding or dropping a hot root is always a
     reviewed diff in one place.

Cold-path throw/alloc code split into `[clone .cold]` parts lands in
.text.unlikely; the traversal follows the section-relative relocations into
those parts, so a conditional `throw` inside a hot function is still found.

Usage:
  scripts/analyze/hotpath.py [--root DIR] [--build-dir DIR | --objects O...]
                             [--roots FILE] [--registry FILE] [--json FILE]
                             [--list-roots] [--objdump BIN] [--cxxfilt BIN]

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

_ANALYZE_DIR = str(Path(__file__).resolve().parent)
if _ANALYZE_DIR not in sys.path:
    sys.path.insert(0, _ANALYZE_DIR)

import compiledb
import waivers
from waivers import Finding, Waiver, WaiverGrammar

SYMHOT_GRAMMAR = WaiverGrammar(
    tool="symhot",
    comment_re=re.compile(r"//\s*symhot:\s*(?P<payload>.*)$"),
    payload_re=re.compile(r"^indirect\(\s*(?P<reason>[^)]*?)\s*\)\s*$"),
    expected="`// symhot: indirect(<non-empty reason>)`",
    registry_display="scripts/analyze/hotpath_waivers.toml",
)

ROOT_SECTION = ".text.symhot"
SINK_SECTION = ".text.symhot_cold"

# Forbidden callee classes, matched on the RAW (mangled or C) symbol name.
FORBIDDEN: list[tuple[str, re.Pattern[str], str]] = [
    ("alloc",
     re.compile(r"^_Zn[wa]|^_Zd[la]"
                r"|^(malloc|calloc|realloc|reallocarray|free|aligned_alloc"
                r"|posix_memalign|strdup|strndup)$"),
     "allocates/frees on the hot path -- hoist the buffer to setup"),
    ("lock",
     re.compile(r"^pthread_(mutex|rwlock|cond|spin|barrier)_"
                r"|^__cxa_guard_(acquire|release|abort)$"
                r"|^sem_(wait|timedwait|trywait|post)$"
                r"|^_ZNSt5mutex|^_ZNSt12recursive_mutex|^_ZNSt12shared_mutex"
                r"|^_ZNSt18shared_timed_mutex|^_ZNSt22condition_variable"),
     "takes a lock on the hot path (a function-local static's guard counts)"),
    ("throw",
     re.compile(r"^__cxa_(throw|rethrow|allocate_exception|free_exception"
                r"|bad_cast|bad_typeid)$"
                r"|^_ZSt\d+__throw_"
                r"|^_ZSt9terminatev$|^abort$|^__assert_fail$"),
     "reaches a throw/terminate path -- guard with SYM_DCHECK (compiled out "
     "on the measured build) or prove the branch impossible"),
    ("io",
     re.compile(r"^(printf|fprintf|sprintf|snprintf|vsnprintf|vfprintf|vprintf"
                r"|puts|fputs|fputc|putchar|fwrite|write|fflush|perror)$"
                r"|^_ZNSo|^_ZNSt13basic_ostream|^_ZSt16__ostream_insert"
                r"|^_ZNSt8ios_base|^_ZNSt9basic_ios"),
     "emits I/O on the hot path -- route through a SYM_COLD sink"),
]

# Externs with known-pure implementations the traversal accepts silently.
ALLOWED_EXTERN = re.compile(
    r"^(memcpy|memmove|memset|memcmp|bcmp|strlen|strcmp|strncmp)$"
    r"|^__popcount[ds]i2$"
    r"|^_Unwind_Resume$|^__gxx_personality_v0$|^__stack_chk_fail$")


def fail_usage(message: str) -> "NoReturn":  # noqa: F821
    print(f"hotpath.py: {message}", file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Object-file parsing


@dataclass
class CallSite:
    target: str | None        # raw symbol name; None for indirect calls
    kind: str                 # "direct" | "indirect"
    file: str                 # source file objdump attributes the call to
    line: int


@dataclass
class FuncNode:
    name: str                 # raw symbol name
    section: str
    obj: str                  # object file the definition lives in
    is_local: bool            # 'l' binding: resolve callers within this object only
    calls: list[CallSite] = field(default_factory=list)


SYMTAB_RE = re.compile(r"^([0-9a-f]+) (.{7}) (\S+)\s+([0-9a-f]+)\s+(.+)$")
SECTION_RE = re.compile(r"^Disassembly of section (\S+):$")
SYMSTART_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
SRCLINE_RE = re.compile(r"^(\S.*?):(\d+)(?: \(discriminator \d+\))?$")
INSN_RE = re.compile(r"^\s+([0-9a-f]+):\t(\S+)\s*(.*)$")
RELOC_RE = re.compile(r"^\s+([0-9a-f]+): (R_\S+)\t(.+?)(?:([+-])0x([0-9a-f]+))?$")
TARGET_RE = re.compile(r"^[0-9a-f]+ <(.+?)(?:\+0x[0-9a-f]+)?>")


def run_tool(cmd: list[str], what: str) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        fail_usage(f"cannot run {cmd[0]} ({what}): {exc}")
    if proc.returncode != 0:
        fail_usage(f"{cmd[0]} failed on {what}: {proc.stderr.strip()}")
    return proc.stdout


@dataclass
class ObjectInfo:
    path: str
    # function symbols: name -> (section, addr, size, is_local)
    funcs: dict[str, tuple[str, int, int, bool]]
    # per-section sorted [(addr, size, name)] for resolving section+offset
    by_section: dict[str, list[tuple[int, int, str]]]


def read_symtab(objdump: str, obj: Path) -> ObjectInfo:
    funcs: dict[str, tuple[str, int, int, bool]] = {}
    by_section: dict[str, list[tuple[int, int, str]]] = {}
    for line in run_tool([objdump, "-t", str(obj)], str(obj)).splitlines():
        match = SYMTAB_RE.match(line)
        if not match:
            continue
        addr, flags, section, size, name = match.groups()
        if "F" not in flags:          # functions only
            continue
        addr_i, size_i = int(addr, 16), int(size, 16)
        is_local = flags[0] == "l"
        if name not in funcs or not is_local:
            funcs[name] = (section, addr_i, size_i, is_local)
        by_section.setdefault(section, []).append((addr_i, size_i, name))
    for entries in by_section.values():
        entries.sort()
    return ObjectInfo(str(obj), funcs, by_section)


def func_at(info: ObjectInfo, section: str, addr: int) -> str | None:
    for start, size, name in info.by_section.get(section, []):
        if start <= addr < start + max(size, 1):
            return name
    return None


def resolve_reloc_target(info: ObjectInfo, name: str, sign: str | None,
                         addend: str | None) -> str | None:
    """A relocation names either a symbol directly (`_Znwm-0x4`) or a section
    plus offset (`.text.unlikely+0x34` -- local cold clones). For PC-relative
    call relocations the shown addend carries the usual -4 bias, so the real
    in-section target is addend + 4."""
    if not name.startswith("."):
        return name
    offset = int(addend, 16) * (-1 if sign == "-" else 1) if addend else 0
    for candidate in (offset + 4, offset):
        resolved = func_at(info, name, candidate)
        if resolved is not None:
            return resolved
    return None


JUMP_MNEMONICS = re.compile(r"^(jmp|ja|jae|jb|jbe|jc|je|jg|jge|jl|jle|jna|jnae"
                            r"|jnb|jnbe|jnc|jne|jng|jnge|jnl|jnle|jno|jnp|jns"
                            r"|jnz|jo|jp|jpe|jpo|js|jz)q?$")


def parse_object(objdump: str, obj: Path, nodes: dict[str, FuncNode],
                 local_nodes: dict[str, dict[str, FuncNode]]) -> ObjectInfo:
    """Disassemble one object and add its functions + call edges."""
    info = read_symtab(objdump, obj)
    text = run_tool([objdump, "-drl", "--no-show-raw-insn", str(obj)], str(obj))

    current: FuncNode | None = None
    cur_file, cur_line = "", 0
    last_call: CallSite | None = None   # direct call/jmp awaiting its reloc
    last_call_addr = -1

    def node_for(name: str) -> FuncNode:
        section, _, _, is_local = info.funcs.get(name, (".text", 0, 0, True))
        node = FuncNode(name, section, info.path, is_local)
        if is_local:
            local_nodes.setdefault(info.path, {})[name] = node
        else:
            nodes.setdefault(name, node)
            node = nodes[name]
        return node

    for line in text.splitlines():
        sym = SYMSTART_RE.match(line)
        if sym:
            current = node_for(sym.group(1))
            last_call = None
            continue
        if SECTION_RE.match(line):
            current = None
            last_call = None
            continue
        reloc = RELOC_RE.match(line)
        if reloc and current is not None and last_call is not None:
            raddr = int(reloc.group(1), 16)
            if last_call_addr <= raddr <= last_call_addr + 6:
                target = resolve_reloc_target(info, reloc.group(3),
                                              reloc.group(4), reloc.group(5))
                last_call.target = target
                if target is None:
                    # Unresolvable relocation: surface as indirect so it is
                    # never silently dropped.
                    last_call.kind = "indirect"
                last_call = None
            continue
        insn = INSN_RE.match(line)
        if insn and current is not None:
            addr, mnemonic, operands = insn.groups()
            last_call = None
            if mnemonic in ("call", "callq"):
                if operands.startswith("*"):
                    current.calls.append(
                        CallSite(None, "indirect", cur_file, cur_line))
                else:
                    target = TARGET_RE.match(operands)
                    site = CallSite(target.group(1) if target else None,
                                    "direct" if target else "indirect",
                                    cur_file, cur_line)
                    current.calls.append(site)
                    last_call = site
                    last_call_addr = int(addr, 16)
            elif JUMP_MNEMONICS.match(mnemonic) and operands.startswith("*"):
                # An indirect jmp is either an indirect tail call or a switch
                # jump table; the two are indistinguishable at this level, so
                # report conservatively -- a genuine jump table on a hot path
                # is waivable (and worth a review anyway).
                current.calls.append(
                    CallSite(None, "indirect", cur_file, cur_line))
            elif JUMP_MNEMONICS.match(mnemonic):
                # A jump leaving the current function is a tail call.
                target = TARGET_RE.match(operands)
                if target and target.group(1) != current.name:
                    site = CallSite(target.group(1), "direct", cur_file, cur_line)
                    current.calls.append(site)
                    last_call = site
                    last_call_addr = int(addr, 16)
                elif target:
                    # Looks like an intra-function jump, but a following reloc
                    # may retarget it (e.g. into the function's own [clone
                    # .cold] part in .text.unlikely); keep it provisionally.
                    site = CallSite(None, "intra", cur_file, cur_line)
                    current.calls.append(site)
                    last_call = site
                    last_call_addr = int(addr, 16)
            continue
        src = SRCLINE_RE.match(line)
        if src and not line.endswith("():"):
            cur_file, cur_line = src.group(1), int(src.group(2))

    # Intra-function jumps whose reloc turned out to point elsewhere became
    # real edges; plain "intra" leftovers are not calls at all.
    for per_obj in ([nodes] + [local_nodes.get(info.path, {})]):
        for node in per_obj.values():
            node.calls = [c for c in node.calls if c.kind != "intra"
                          or c.target is not None]
    return info


def demangle_all(cxxfilt: str, names: list[str]) -> dict[str, str]:
    if not names:
        return {}
    try:
        proc = subprocess.run([cxxfilt], input="\n".join(names) + "\n",
                              capture_output=True, text=True)
    except OSError as exc:
        fail_usage(f"cannot run {cxxfilt}: {exc}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != len(names):
        return {name: name for name in names}
    return dict(zip(names, lines))


# --------------------------------------------------------------------------
# Root/sink registry (two-way, like the waiver registry)


def load_roots(path: Path) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    try:
        with path.open("rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        fail_usage(f"cannot read roots registry {path}: {exc}")
    roots = data.get("root", [])
    sinks = data.get("sink", [])
    for kind, entries, required in (("root", roots, ("symbol",)),
                                    ("sink", sinks, ("symbol", "reason"))):
        if not isinstance(entries, list):
            fail_usage(f"registry {path}: [[{kind}]] must be an array of tables")
        for entry in entries:
            for key in required:
                if not isinstance(entry.get(key), str) or not entry[key]:
                    fail_usage(f"registry {path}: every [[{kind}]] needs "
                               f"non-empty string '{key}'")
            try:
                re.compile(entry["symbol"])
            except re.error as exc:
                fail_usage(f"registry {path}: [[{kind}]] symbol regex "
                           f"'{entry['symbol']}': {exc}")
    return roots, sinks


def reconcile_roots(kind: str, entries: list[dict[str, str]],
                    demangled: list[str], roots_display: str) -> list[Finding]:
    findings = []
    matched = [False] * len(entries)
    for name in sorted(demangled):
        hit = False
        for i, entry in enumerate(entries):
            if re.search(entry["symbol"], name):
                matched[i] = True
                hit = True
        if not hit:
            section = ROOT_SECTION if kind == "root" else SINK_SECTION
            findings.append(Finding(
                "registry", f"unregistered-{kind}", "", 0,
                f"symbol '{name}' lives in {section} but matches no "
                f"[[{kind}]] entry -- register it in {roots_display}"))
    for i, entry in enumerate(entries):
        if not matched[i]:
            findings.append(Finding(
                "registry", f"stale-{kind}", "", 0,
                f"[[{kind}]] regex '{entry['symbol']}' matches no annotated "
                "symbol -- remove it or restore the SYM_HOT/SYM_COLD annotation"))
    return findings


# --------------------------------------------------------------------------
# Traversal


class Graph:
    def __init__(self, nodes: dict[str, FuncNode],
                 local_nodes: dict[str, dict[str, FuncNode]]):
        self.nodes = nodes
        self.local_nodes = local_nodes

    def resolve(self, caller: FuncNode, name: str) -> FuncNode | None:
        local = self.local_nodes.get(caller.obj, {})
        if name in local:
            return local[name]
        return self.nodes.get(name)

    def all_nodes(self) -> list[FuncNode]:
        out = list(self.nodes.values())
        for per_obj in self.local_nodes.values():
            out.extend(per_obj.values())
        return out


def relativize(path: str, root: Path) -> str:
    try:
        return str(Path(path).resolve().relative_to(root))
    except ValueError:
        return path


def traverse(graph: Graph, roots: list[FuncNode], sinks: set[int],
             dem: dict[str, str], repo_root: Path) -> list[Finding]:
    """Walk the call graph from every root; report forbidden callees and
    indirect sites once per (site, rule) with a representative path."""
    findings: list[Finding] = []
    seen_sites: set[tuple[str, str, str, int, str]] = set()
    visited: dict[int, str] = {}     # id(node) -> root it was first reached from

    def name_of(raw: str) -> str:
        return dem.get(raw, raw)

    def classify_forbidden(raw: str) -> tuple[str, str] | None:
        for cls, pattern, why in FORBIDDEN:
            if pattern.search(raw):
                return cls, why
        return None

    for root in roots:
        stack = [(root, (name_of(root.name),))]
        while stack:
            node, path = stack.pop()
            if id(node) in visited:
                continue
            visited[id(node)] = root.name
            for site in node.calls:
                rel = relativize(site.file, repo_root)
                if site.kind == "indirect" or site.target is None:
                    key = ("indirect", "indirect-call", rel, site.line, "")
                    if key in seen_sites:
                        continue
                    seen_sites.add(key)
                    findings.append(Finding(
                        "indirect", "indirect-call", rel, site.line,
                        f"indirect call in '{name_of(node.name)}' on the hot "
                        f"path from '{path[0]}' -- make the dispatch explicit "
                        "with `// symhot: indirect(<reason>)` or devirtualize"))
                    continue
                raw = site.target

                def report_purity(cls: str, why: str) -> None:
                    key = ("purity", cls, rel, site.line, raw)
                    if key in seen_sites:
                        return
                    seen_sites.add(key)
                    chain = " -> ".join([*path, name_of(raw)]) \
                        if len(path) > 1 else f"{path[0]} -> {name_of(raw)}"
                    findings.append(Finding("purity", cls, rel, site.line,
                                            f"{chain}: {why}"))

                verdict = classify_forbidden(raw)
                if verdict is not None:
                    report_purity(*verdict)
                    continue
                callee = graph.resolve(node, raw)
                if callee is None:
                    if not ALLOWED_EXTERN.search(raw):
                        report_purity(
                            "opaque-extern",
                            "calls an extern with unknown purity -- define "
                            "it, prove it pure and extend the allowlist, or "
                            "keep it off the hot path")
                    continue
                if id(callee) in sinks:
                    continue     # sanctioned SYM_COLD boundary
                if id(callee) not in visited:
                    stack.append((callee, (*path, name_of(callee.name))))
    return findings


# --------------------------------------------------------------------------
# Waiver scanning over the source tree


SOURCE_GLOBS = ("*.cpp", "*.cc", "*.hpp", "*.h", "*.hh")


def scan_source_waivers(root: Path) -> tuple[list[Waiver], list[Finding]]:
    all_waivers: list[Waiver] = []
    errors: list[Finding] = []
    trees = [root / "src", root / "examples"]
    for tree in trees:
        if not tree.is_dir():
            continue
        for pattern in SOURCE_GLOBS:
            for file in sorted(tree.rglob(pattern)):
                raw = file.read_text(encoding="utf-8",
                                     errors="replace").splitlines()
                if not any("symhot:" in line for line in raw):
                    continue
                code = []
                in_block = False
                for line in raw:
                    stripped, in_block = waivers.strip_strings_and_comments(
                        line, in_block)
                    code.append(stripped)
                rel = str(file.relative_to(root))
                found, errs = waivers.scan_waivers(SYMHOT_GRAMMAR, rel, raw, code)
                all_waivers.extend(found)
                errors.extend(errs)
    return all_waivers, errors


# --------------------------------------------------------------------------
# Driver


def discover_objects(build_dir: Path, repo_root: Path) -> list[Path]:
    """The objects of <repo_root>/src translation units, as
    <build_dir>/compile_commands.json records them (`output`, else `-o`)."""
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        fail_usage(f"no {db_path} -- configure the tree with CMake (the top-level "
                   "CMakeLists.txt exports the compile database)")
    src_root = repo_root / "src"
    objects = []
    for entry in compiledb.read_entries(db_path, fail_usage):
        if not entry.file.resolve().is_relative_to(src_root):
            continue
        if entry.output is None:
            fail_usage(f"{db_path}: the entry for {entry.file} names no object "
                       "(no 'output' field and no -o in its command)")
        objects.append(entry.output)
    return sorted(objects)


def analyze(objects: list[Path], repo_root: Path, objdump: str, cxxfilt: str,
            roots_path: Path, registry_path: Path | None,
            list_roots: bool) -> tuple[list[Finding], int, dict[str, object]]:
    nodes: dict[str, FuncNode] = {}
    local_nodes: dict[str, dict[str, FuncNode]] = {}
    for obj in objects:
        if not obj.is_file():
            fail_usage(f"object file {obj} does not exist -- build first")
        parse_object(objdump, obj, nodes, local_nodes)

    graph = Graph(nodes, local_nodes)
    every = graph.all_nodes()
    root_nodes = [n for n in every if n.section == ROOT_SECTION]
    sink_nodes = [n for n in every if n.section == SINK_SECTION]
    if not root_nodes:
        fail_usage(
            f"no {ROOT_SECTION} symbols in {len(objects)} object file(s) -- "
            "build the relwithdebinfo objects first (cmake --preset "
            "relwithdebinfo && cmake --build build-relwithdebinfo) or check "
            "--build-dir/--objects")

    dem = demangle_all(cxxfilt, sorted({n.name for n in every}
                                       | {t for n in every for t in
                                          [c.target for c in n.calls] if t}))

    root_names = sorted(dem.get(n.name, n.name) for n in root_nodes)
    sink_names = sorted(dem.get(n.name, n.name) for n in sink_nodes)
    if list_roots:
        for name in root_names:
            print(f"root: {name}")
        for name in sink_names:
            print(f"sink: {name}")
        print(f"hotpath.py: {len(root_names)} root(s), {len(sink_names)} sink(s)")

    findings: list[Finding] = []
    root_entries, sink_entries = load_roots(roots_path)
    roots_display = "scripts/analyze/hotpath_roots.toml"
    findings += reconcile_roots("root", root_entries, root_names, roots_display)
    findings += reconcile_roots("sink", sink_entries, sink_names, roots_display)

    root_nodes.sort(key=lambda n: dem.get(n.name, n.name))
    sinks = {id(n) for n in sink_nodes}
    findings += traverse(graph, root_nodes, sinks, dem, repo_root)

    all_waivers, waiver_errors = scan_source_waivers(repo_root)
    waivers.apply_waivers(findings, all_waivers)
    findings += waiver_errors
    findings += waivers.unused_waiver_findings(all_waivers)
    entries = (waivers.load_registry(registry_path, fail_usage)
               if registry_path is not None and registry_path.is_file() else [])
    findings += waivers.reconcile_registry(
        SYMHOT_GRAMMAR, entries, [w for w in all_waivers if w.used_by])

    findings.sort(key=lambda f: (f.file, f.line, f.checker, f.rule, f.message))
    summary = {
        "roots": root_names,
        "sinks": sink_names,
        "functions": len(every),
    }
    return findings, len(objects), summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree holding the relwithdebinfo objects and their "
                             "compile_commands.json (default: <root>/build-relwithdebinfo, "
                             "then <root>/build)")
    parser.add_argument("--objects", type=Path, nargs="+", default=None,
                        help="explicit object files to analyze (overrides --build-dir)")
    parser.add_argument("--roots", type=Path, default=None,
                        help="roots registry TOML (default: <root>/scripts/analyze/"
                             "hotpath_roots.toml)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="waiver registry TOML (default: <root>/scripts/analyze/"
                             "hotpath_waivers.toml when present)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this file")
    parser.add_argument("--list-roots", action="store_true",
                        help="print the discovered roots/sinks before the verdict")
    parser.add_argument("--objdump", default="objdump", help="objdump binary")
    parser.add_argument("--cxxfilt", default="c++filt", help="c++filt binary")
    args = parser.parse_args(argv[1:])

    root = (args.root or Path(__file__).resolve().parent.parent.parent).resolve()
    objects = args.objects
    if objects is None:
        build_dir = args.build_dir
        if build_dir is None:
            for candidate in (root / "build-relwithdebinfo", root / "build"):
                if (candidate / "compile_commands.json").is_file():
                    build_dir = candidate
                    break
            else:
                fail_usage(f"no build tree under {root} (pass --build-dir or "
                           "--objects; the gate reads relwithdebinfo objects)")
        elif not build_dir.is_dir():
            fail_usage(f"build dir {build_dir} does not exist")
        objects = discover_objects(build_dir, root)
        if not objects:
            fail_usage(f"{build_dir}/compile_commands.json lists no src/ translation unit")
    roots_path = args.roots or root / "scripts" / "analyze" / "hotpath_roots.toml"
    if not roots_path.is_file():
        fail_usage(f"roots registry {roots_path} does not exist")
    registry = args.registry
    if registry is None:
        candidate = root / "scripts" / "analyze" / "hotpath_waivers.toml"
        registry = candidate if candidate.is_file() else None
    elif not registry.is_file():
        fail_usage(f"waiver registry {registry} does not exist")

    findings, scanned, summary = analyze(
        objects, root, args.objdump, args.cxxfilt, roots_path, registry,
        args.list_roots)

    errors = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]

    if args.json:
        payload = {
            "tool": "symhot",
            "version": 1,
            "objects_scanned": scanned,
            "roots": summary["roots"],
            "sinks": summary["sinks"],
            "functions": summary["functions"],
            "findings": [vars(f) for f in findings],
            "counts": {"error": len(errors), "waived": len(waived)},
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for finding in findings:
        print(f"hotpath: {finding.render()}")
    if errors:
        print(f"hotpath.py: {len(errors)} finding(s) ({len(waived)} waived) "
              f"across {scanned} object file(s)", file=sys.stderr)
        return 1
    print(f"hotpath.py: OK ({len(summary['roots'])} roots, "
          f"{len(summary['sinks'])} sinks, {summary['functions']} functions, "
          f"{scanned} objects"
          + (f", {len(waived)} waived finding(s)" if waived else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
