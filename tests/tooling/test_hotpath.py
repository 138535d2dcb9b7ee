#!/usr/bin/env python3
"""End-to-end tests for scripts/analyze/hotpath.py (CTest: tooling.hotpath).

Each fixture under scripts/analyze/fixtures/hotpath/ is a miniature source
tree with its own roots.toml (and optionally registry.toml). The tests
compile it with the host g++ at -O2 -g -- the same shape as the
relwithdebinfo objects the real gate reads -- and assert on the analyzer's
exit code, findings, and --json payload. Compiling at test time (rather than
committing objects) keeps the fixtures honest against the local toolchain's
actual code generation: cold clones, tail calls, PLT relocations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
HOTPATH = REPO_ROOT / "scripts" / "analyze" / "hotpath.py"
FIXTURES = REPO_ROOT / "scripts" / "analyze" / "fixtures" / "hotpath"

GXX = shutil.which("g++")
OBJDUMP = shutil.which("objdump")


@unittest.skipUnless(GXX and OBJDUMP, "needs g++ and objdump on PATH")
class FixtureTests(unittest.TestCase):
    maxDiff = None

    def run_fixture(self, name: str, expect_exit: int,
                    expect_substrings: tuple[str, ...] = (),
                    forbid_substrings: tuple[str, ...] = ()) -> dict:
        """Compile fixture `name`, run the analyzer on its objects, and
        return the --json payload."""
        fixture = FIXTURES / name
        self.assertTrue(fixture.is_dir(), fixture)
        with tempfile.TemporaryDirectory() as tmp:
            objects = []
            for source in sorted((fixture / "src").glob("*.cpp")):
                obj = Path(tmp) / (source.stem + ".o")
                compile_cmd = [GXX, "-std=c++20", "-O2", "-g", "-c",
                               str(Path("src") / source.name), "-o", str(obj)]
                proc = subprocess.run(compile_cmd, cwd=fixture,
                                      capture_output=True, text=True)
                self.assertEqual(proc.returncode, 0,
                                 f"compile failed: {proc.stderr}")
                objects.append(str(obj))

            json_out = Path(tmp) / "out.json"
            cmd = [sys.executable, str(HOTPATH),
                   "--root", str(fixture),
                   "--objects", *objects,
                   "--roots", str(fixture / "roots.toml"),
                   "--json", str(json_out)]
            if (fixture / "registry.toml").is_file():
                cmd += ["--registry", str(fixture / "registry.toml")]
            proc = subprocess.run(cmd, cwd=fixture, capture_output=True,
                                  text=True)
            output = proc.stdout + proc.stderr
            self.assertEqual(proc.returncode, expect_exit, output)
            for needle in expect_substrings:
                self.assertIn(needle, output, output)
            for needle in forbid_substrings:
                self.assertNotIn(needle, output, output)
            return json.loads(json_out.read_text(encoding="utf-8"))

    def test_clean_tree_passes_and_sink_quarantines_alloc(self):
        payload = self.run_fixture(
            "clean", 0, ("hotpath.py: OK",),
            forbid_substrings=("purity/alloc",))
        self.assertEqual(payload["counts"], {"error": 0, "waived": 0})
        self.assertEqual(len(payload["roots"]), 1)
        self.assertEqual(len(payload["sinks"]), 1)

    def test_allocation_in_root_flagged(self):
        # `new int[n]` yields purity/alloc, plus (depending on the compiler)
        # a purity/throw for the bad_array_new_length overflow path.
        payload = self.run_fixture(
            "new_in_root", 1, ("purity/alloc", "src/hot.cpp"))
        self.assertGreaterEqual(payload["counts"]["error"], 1)

    def test_allocation_across_objects_flagged_in_helper(self):
        self.run_fixture(
            "new_transitive", 1,
            ("purity/alloc", "src/helper.cpp", "hot_grow", "grow"))

    def test_mutex_lock_flagged(self):
        self.run_fixture("mutex", 1, ("purity/lock",))

    def test_conditional_throw_in_cold_clone_flagged(self):
        self.run_fixture("throw_path", 1, ("purity/throw",))

    def test_unwaived_indirect_call_flagged(self):
        self.run_fixture(
            "indirect", 1, ("indirect/indirect-call", "src/hot.cpp"))

    def test_waived_indirect_call_passes_as_waived(self):
        payload = self.run_fixture(
            "waived", 0, ("hotpath.py: OK", "(waived)"))
        self.assertEqual(payload["counts"], {"error": 0, "waived": 1})
        waived = [f for f in payload["findings"] if f["waived"]]
        self.assertEqual(waived[0]["checker"], "indirect")

    def test_registry_entry_without_inline_waiver_is_stale(self):
        self.run_fixture(
            "stale_waiver", 1, ("waiver/stale-registry",))

    def test_unregistered_and_stale_roots_flagged(self):
        self.run_fixture(
            "unregistered_root", 1,
            ("registry/unregistered-root", "registry/stale-root",
             "hot_triple", "some_retired_root"))

    def test_opaque_extern_tail_call_flagged(self):
        self.run_fixture(
            "opaque", 1, ("purity/opaque-extern", "mystery_syscall"))


@unittest.skipUnless(GXX and OBJDUMP, "needs g++ and objdump on PATH")
class CliErrors(unittest.TestCase):
    def test_missing_roots_registry_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(HOTPATH), "--root", str(FIXTURES / "clean"),
             "--objects", "/nonexistent.o",
             "--roots", str(FIXTURES / "clean" / "no-such.toml")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)

    def test_objects_without_symhot_section_is_usage_error(self):
        # An object with no .text.symhot symbols means the build was made
        # without the annotations (or the wrong --build-dir): exit 2 with a
        # build hint, never a silent pass.
        fixture = FIXTURES / "clean"
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "plain.cpp"
            source.write_text("int f(int x) { return x + 1; }\n",
                              encoding="utf-8")
            obj = Path(tmp) / "plain.o"
            subprocess.run([GXX, "-O2", "-g", "-c", str(source),
                            "-o", str(obj)], check=True)
            proc = subprocess.run(
                [sys.executable, str(HOTPATH), "--root", str(fixture),
                 "--objects", str(obj),
                 "--roots", str(fixture / "roots.toml")],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("no .text.symhot symbols", proc.stderr)


@unittest.skipUnless(GXX and OBJDUMP, "needs g++ and objdump on PATH")
class CompileDatabase(unittest.TestCase):
    """--build-dir scans the objects compile_commands.json lists for src/
    translation units, never whatever *.o an incremental tree still holds."""

    FIXTURE = FIXTURES / "clean"

    def compile(self, source: Path, obj: Path) -> list[str]:
        args = [GXX, "-std=c++20", "-O2", "-g", "-c", str(source), "-o", str(obj)]
        proc = subprocess.run(args, cwd=source.parent, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, f"compile failed: {proc.stderr}")
        return args

    def make_tree(self, tmp: str, shape: str = "output") -> Path:
        """A build tree holding the clean fixture's objects, their database
        and one stale object of a source the database no longer lists.
        @p shape says how an entry names its object: "output" (Ninja: an
        `output` field relative to `directory`), "command" (Makefiles: only
        the `-o` in `command`) or "neither"."""
        build = Path(tmp) / "build"
        (build / "src").mkdir(parents=True)
        entries = []
        for source in sorted((self.FIXTURE / "src").glob("*.cpp")):
            obj = Path("src") / (source.stem + ".o")
            args = self.compile(source, build / obj)
            entry = {"directory": str(build), "file": str(source)}
            if shape == "output":
                entry.update(arguments=args, output=str(obj))
            elif shape == "command":
                entry["command"] = " ".join(args[:-2] + ["-o", str(obj)])
            else:
                entry["arguments"] = args[:-2]
            entries.append(entry)
        (build / "compile_commands.json").write_text(json.dumps(entries), encoding="utf-8")
        self.compile(FIXTURES / "unregistered_root" / "src" / "hot.cpp",
                     build / "src" / "stale.o")
        return build

    def run_hotpath(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HOTPATH), "--root", str(self.FIXTURE),
             "--roots", str(self.FIXTURE / "roots.toml"), *args],
            capture_output=True, text=True)

    def test_stale_object_absent_from_database_is_not_scanned(self):
        for shape in ("output", "command"):
            with self.subTest(shape=shape), tempfile.TemporaryDirectory() as tmp:
                build = self.make_tree(tmp, shape)
                json_out = Path(tmp) / "out.json"
                proc = self.run_hotpath("--build-dir", str(build), "--json", str(json_out))
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                payload = json.loads(json_out.read_text(encoding="utf-8"))
                self.assertEqual(payload["objects_scanned"], 1)
        with tempfile.TemporaryDirectory() as tmp:
            build = self.make_tree(tmp)
            # The stale object is not inert: scanned, it fails the registry.
            proc = self.run_hotpath("--objects", str(build / "src" / "hot.o"),
                                    str(build / "src" / "stale.o"))
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn("registry/unregistered-root", proc.stdout)

    def test_missing_database_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            build = self.make_tree(tmp)
            (build / "compile_commands.json").unlink()
            proc = self.run_hotpath("--build-dir", str(build))
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("compile_commands.json", proc.stderr)

    def test_entry_naming_no_object_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            build = self.make_tree(tmp, "neither")
            proc = self.run_hotpath("--build-dir", str(build))
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("names no object", proc.stderr)


class WholeRepo(unittest.TestCase):
    """The real gate runs in CI against the relwithdebinfo build; locally it
    only runs when that build tree exists (the annotations' purity contract
    holds for -O2 -DNDEBUG objects, not for debug builds where SYM_DCHECK
    compiles to a throwing check)."""

    BUILD_DIR = REPO_ROOT / "build-relwithdebinfo"

    @unittest.skipUnless((BUILD_DIR / "src").is_dir() and GXX and OBJDUMP,
                         "needs a build-relwithdebinfo tree")
    def test_repo_hot_paths_are_clean(self):
        proc = subprocess.run(
            [sys.executable, str(HOTPATH), "--build-dir", str(self.BUILD_DIR)],
            cwd=REPO_ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
