#!/usr/bin/env python3
"""waivers.py -- inline-waiver <-> TOML-registry machinery shared by the
symdet (determinism.py) and symhot (hotpath.py) analyze gates.

Both tools use the same two-way contract:

  * a finding may be suppressed by an inline waiver comment placed on the
    offending line, or alone on the line directly above it
    (`// symdet: nondet(<reason>)`, `// symhot: indirect(<reason>)`);
  * every inline waiver must be mirrored by a [[waiver]] entry
    (file/checker/reason) in a committed TOML registry so sanctioned
    exceptions are reviewed in one place;
  * waivers that suppress nothing, registry entries matching no inline
    waiver, and malformed waiver comments are themselves findings.

This module owns the grammar-independent pieces: the C++ comment/string
stripper (also scripts/lint.py's), the Finding/Waiver value types, the
comment scanner (including the "comment-only line covers the next
code line within 3 lines" rule), waiver application, and the registry
load/reconcile logic. Each tool supplies a WaiverGrammar describing its
comment tag and payload shape, and keeps its own checker logic.

Exercised directly by tests/tooling/test_waivers.py and transitively by the
symdet/symhot suites.
"""

from __future__ import annotations

import re
import sys
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn


def strip_strings_and_comments(line: str, in_block_comment: bool = False) -> tuple[str, bool]:
    """Remove string/char literal contents, // line comments and /* */ block
    comments from one line of C++. The one stripper shared by lint.py,
    symdet and symhot.

    Returns (code, in_block_comment'): the stripped code and whether a block
    comment is still open after this line -- feed that back in for the next
    line. Stripped comments are replaced by a single space (like the
    preprocessor) so adjacent tokens do not fuse. Comment markers inside
    string literals are literal text, not comments; quotes inside comments do
    not open strings.
    """
    out: list[str] = []
    quote: str | None = None
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            out.append(" ")
            i = end + 2
            in_block_comment = False
            continue
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
                out.append(ch)
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


@dataclass
class Finding:
    checker: str
    rule: str
    file: str          # repo-relative
    line: int
    message: str
    waived: bool = False

    def render(self) -> str:
        tag = " (waived)" if self.waived else ""
        return f"{self.checker}/{self.rule}: {self.file}:{self.line}: {self.message}{tag}"


@dataclass
class Waiver:
    file: str
    line: int          # line the waiver comment sits on
    reason: str
    covers: set[int] = field(default_factory=set)
    used_by: list[str] = field(default_factory=list)  # checkers it suppressed


@dataclass(frozen=True)
class WaiverGrammar:
    """What one tool's waiver comments look like and where they register."""
    tool: str                      # "symdet" / "symhot"
    comment_re: re.Pattern         # captures group 'payload' after the tag
    payload_re: re.Pattern         # captures group 'reason' inside the payload
    expected: str                  # human-readable grammar, for syntax findings
    registry_display: str          # repo-relative registry path, for messages


def default_fail(message: str) -> NoReturn:
    print(f"waivers.py: {message}", file=sys.stderr)
    sys.exit(2)


def scan_waivers(grammar: WaiverGrammar, rel: str, raw: list[str],
                 code: list[str]) -> tuple[list[Waiver], list[Finding]]:
    """Collect the inline waivers of one file.

    `raw` is the file's lines as written; `code` is the comment/string-
    stripped view (same length), used to decide whether a waiver line carries
    code of its own. A comment-only waiver line covers the next line carrying
    code, looked for within the following 3 lines.
    """
    waivers: list[Waiver] = []
    errors: list[Finding] = []
    for lineno, line in enumerate(raw, start=1):
        match = grammar.comment_re.search(line)
        if not match:
            continue
        payload = match.group("payload").strip()
        parsed = grammar.payload_re.match(payload)
        if not parsed or not parsed.group("reason"):
            errors.append(Finding(
                "waiver", "syntax", rel, lineno,
                f"malformed {grammar.tool} waiver '{payload or '(empty)'}' -- "
                f"expected {grammar.expected}"))
            continue
        covers = {lineno}
        # A comment-only waiver line covers the next line carrying code.
        if not code[lineno - 1].strip():
            for follow in range(lineno + 1, min(lineno + 4, len(raw) + 1)):
                if code[follow - 1].strip():
                    covers.add(follow)
                    break
        waivers.append(Waiver(rel, lineno, parsed.group("reason"), covers))
    return waivers, errors


def apply_waivers(findings: list[Finding], waivers: list[Waiver]) -> None:
    """Mark findings covered by a waiver; record which checker each waiver
    suppressed. Only findings in the waiver's file may be passed in."""
    for finding in findings:
        for waiver in waivers:
            if finding.line in waiver.covers:
                finding.waived = True
                waiver.used_by.append(finding.checker)
                break


def unused_waiver_findings(waivers: list[Waiver]) -> list[Finding]:
    return [Finding(
        "waiver", "unused", waiver.file, waiver.line,
        f"waiver '{waiver.reason}' suppresses no finding -- remove it")
        for waiver in waivers if not waiver.used_by]


def load_registry(path: Path,
                  fail: Callable[[str], NoReturn] = default_fail) -> list[dict[str, str]]:
    try:
        with path.open("rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        fail(f"cannot read waiver registry {path}: {exc}")
    entries = data.get("waiver", [])
    if not isinstance(entries, list):
        fail(f"registry {path}: [[waiver]] must be an array of tables")
    for entry in entries:
        for key in ("file", "checker", "reason"):
            if not isinstance(entry.get(key), str) or not entry[key]:
                fail(f"registry {path}: every [[waiver]] needs non-empty "
                     f"string '{key}'")
    return entries


def reconcile_registry(grammar: WaiverGrammar, entries: list[dict[str, str]],
                       used_waivers: list[Waiver]) -> list[Finding]:
    """Inline waivers must be registered; registry entries must be live."""
    findings = []
    matched = [False] * len(entries)
    for waiver in used_waivers:
        hit = False
        for i, entry in enumerate(entries):
            if entry["file"] == waiver.file and entry["checker"] in waiver.used_by:
                matched[i] = True
                hit = True
        if not hit:
            findings.append(Finding(
                "waiver", "unregistered", waiver.file, waiver.line,
                f"inline waiver '{waiver.reason}' (suppresses "
                f"{'/'.join(sorted(set(waiver.used_by)))}) is not in the registry "
                f"-- add a [[waiver]] entry to {grammar.registry_display}"))
    for i, entry in enumerate(entries):
        if not matched[i]:
            findings.append(Finding(
                "waiver", "stale-registry", entry["file"], 0,
                f"registry waiver for checker '{entry['checker']}' matches no "
                "inline waiver -- remove it or restore the annotation"))
    return findings
