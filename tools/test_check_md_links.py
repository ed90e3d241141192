"""Unit tests for check_md_links.py (stdlib only).

Each rule gets a synthetic mini-repo; the final test checks the real
docs, so this file doubles as the drift gate CI's docs-lint job runs.
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_md_links as links


class MiniRepo(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name)
        for rel in ("src/a/x.hpp", "src/a/x.cpp", "tools/probe.cpp",
                    "tests/one_test.cpp", "include/lib.h"):
            self.touch(rel)

    def touch(self, rel, text=""):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def problems(self, name, text):
        return [(kind, target)
                for _, kind, target in links.check(self.touch(name, text),
                                                   self.root)]


class CodePathTest(MiniRepo):
    def test_existing_paths_pass(self):
        text = ("`src/a/x.hpp`, `src/a/x.cpp:12-40` and `include/lib.h`\n"
                "run `tools/probe --flag=1` over `tests/*_test.cpp`\n")
        self.assertEqual(self.problems("DESIGN.md", text), [])

    def test_missing_path_is_reported(self):
        self.assertEqual(self.problems("README.md", "see `src/a/gone.hpp`\n"),
                         [("missing path", "src/a/gone.hpp")])

    def test_brace_list_expands_to_each_file(self):
        self.assertEqual(self.problems("DESIGN.md", "`src/a/x.{hpp,cpp}`\n"),
                         [])
        self.assertEqual(
            self.problems("DESIGN.md", "`src/a/y.{hpp,cpp}`\n"),
            [("missing path", "src/a/y.hpp"), ("missing path", "src/a/y.cpp")])

    def test_extensionless_binary_resolves_to_its_source(self):
        self.assertEqual(self.problems("README.md", "`tools/probe`\n"), [])
        self.assertEqual(self.problems("README.md", "`tools/other`\n"),
                         [("missing path", "tools/other")])

    def test_only_repo_relative_code_paths_count(self):
        text = ("`./build/examples/demo`, `perfbench/src/gone.cpp`, "
                "`src/…`, `bench/bench_<claim>`, and src/a/gone.cpp outside "
                "backticks\n")
        self.assertEqual(self.problems("README.md", text), [])

    def test_fenced_blocks_are_skipped(self):
        text = "```\n`src/a/gone.hpp`\n```\n"
        self.assertEqual(self.problems("docs/X.md", text), [])

    def test_docs_directory_is_checked(self):
        self.assertEqual(self.problems("docs/X.md", "`src/gone.cpp`\n"),
                         [("missing path", "src/gone.cpp")])

    def test_history_files_may_name_deleted_files(self):
        for name in ("ROADMAP.md", "CHANGES.md"):
            self.assertEqual(self.problems(name, "`src/a/gone.hpp`\n"), [])


class LinkTest(MiniRepo):
    def test_broken_relative_link_is_reported_everywhere(self):
        for name in ("README.md", "CHANGES.md"):
            self.assertEqual(self.problems(name, "[x](nowhere.md)\n"),
                             [("broken link", "nowhere.md")])

    def test_urls_anchors_and_existing_links_pass(self):
        text = "[a](https://example.org) [b](#top) [c](src/a/x.hpp#L1)\n"
        self.assertEqual(self.problems("README.md", text), [])


class RealRepoTest(unittest.TestCase):
    def test_repo_docs_resolve(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = links.main()
        self.assertEqual(status, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
