#!/usr/bin/env python3
"""compiledb.py -- the compile_commands.json reader shared by the analyze
gates: layering.py (translation units and include search paths),
determinism.py (which translation units the build compiles) and hotpath.py
(which object files the build produces).

The top-level CMakeLists.txt sets CMAKE_EXPORT_COMPILE_COMMANDS, so every
configured build tree carries <build-dir>/compile_commands.json. Taking the
object list from the database rather than globbing *.o keeps objects of
deleted sources, which an incremental tree never removes, out of the scan.
"""

from __future__ import annotations

import json
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn


@dataclass(frozen=True)
class Entry:
    file: Path                  # translation unit, absolute
    directory: Path             # working directory of the compile, absolute
    arguments: tuple[str, ...]  # compiler argv
    output: Path | None         # object file, absolute; None if not recorded


def object_of(arguments: tuple[str, ...]) -> str | None:
    """The compiler's `-o` operand. CMake's Makefile generator records no
    `output` field (Ninja does), but every compile command names its
    object."""
    for i, arg in enumerate(arguments):
        if arg == "-o" and i + 1 < len(arguments):
            return arguments[i + 1]
        if arg.startswith("-o") and len(arg) > 2:
            return arg[2:]
    return None


def find_compile_db(root: Path) -> Path | None:
    """<root>/compile_commands.json, then the tidy preset's tree, then the
    first <root>/build*/compile_commands.json."""
    candidates = [root / "compile_commands.json", root / "build-tidy" / "compile_commands.json"]
    candidates += sorted(root.glob("build*/compile_commands.json"))
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def read_entries(path: Path, fail: Callable[[str], NoReturn]) -> list[Entry]:
    """Parse @p path; relative paths resolve against each entry's directory
    (itself resolved against the database's own directory). An entry's
    object is its `output` field, else the `-o` operand of its command."""
    try:
        raw_entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read compile database {path}: {exc}")
    if not isinstance(raw_entries, list):
        fail(f"compile database {path}: top level must be an array")

    def absolute(raw: str, base: Path) -> Path:
        candidate = Path(raw)
        return candidate if candidate.is_absolute() else (base / candidate).resolve()

    entries = []
    for raw in raw_entries:
        if not isinstance(raw, dict) or not isinstance(raw.get("file"), str):
            fail(f"compile database {path}: every entry needs a string 'file'")
        directory = absolute(raw.get("directory", "."), path.parent)
        arguments = tuple(raw.get("arguments") or shlex.split(raw.get("command", "")))
        output = raw.get("output") or object_of(arguments)
        entries.append(Entry(file=absolute(raw["file"], directory),
                             directory=directory,
                             arguments=arguments,
                             output=absolute(output, directory) if output else None))
    return entries
