#!/usr/bin/env python3
"""Markdown link lint: every relative link in the repo's documentation
must resolve to an existing file (external URLs are left alone — CI has
no business depending on the network), and every backticked repo path
in the living docs must name a file that exists. Run from anywhere:

    python3 tools/check_md_links.py

Exit status 0 = everything resolves; 1 = at least one broken link or
missing path, each printed as file:line: target. Links are checked in
README.md, DESIGN.md, ROADMAP.md, CHANGES.md and docs/*.md. Backticked
paths under src/, tests/, bench/, examples/, tools/ and include/ are
checked in README.md, DESIGN.md and docs/*.md only: ROADMAP.md and
CHANGES.md are history and may name deleted files. In a path, a brace
list (`x.{hpp,cpp}`) expands to each file, a `*` is a glob that must
match something, and an extensionless binary name (`tools/trace_diff`)
resolves to its `.cpp` source.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# [text](target) — excluding images is not needed (same rule applies);
# inline code spans are stripped first so `[i](j)` indexing examples in
# code don't count as links.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`]*)`")
FENCE = re.compile(r"^(```|~~~)")
# A repo path inside a code span: starts at a word boundary (so the
# `examples/...` tail of `./build-bench/examples/...` is not one) and
# runs until a character no path uses (`:` ends it before a line number).
CODE_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|bench|examples|tools|include)/"
    r"[\w./{},*<>…-]*)")
HISTORY = ("ROADMAP.md", "CHANGES.md")


def doc_files(root: Path = ROOT):
    for name in ("README.md", "DESIGN.md") + HISTORY:
        path = root / name
        if path.exists():
            yield path
    yield from sorted((root / "docs").glob("*.md"))


def expand_braces(text: str):
    """`a.{hpp,cpp}` -> [`a.hpp`, `a.cpp`]; nested lists expand in turn."""
    m = re.search(r"\{([^{}]*)\}", text)
    if m is None:
        return [text]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(text[:m.start()] + alt + text[m.end():]))
    return out


def code_path_exists(root: Path, rel: str) -> bool:
    if any(c in rel for c in "<>…"):  # a placeholder, not a path
        return True
    if "*" in rel:
        return any(root.glob(rel))
    path = root / rel
    if path.exists():
        return True
    # An extensionless binary name resolves to the source it builds from.
    return not path.suffix and path.with_suffix(".cpp").exists()


def missing_code_paths(line: str, root: Path):
    for span in CODE_SPAN.findall(line):
        for token in CODE_PATH.findall(span):
            token = token.rstrip(".,;")
            for rel in expand_braces(token):
                if not code_path_exists(root, rel):
                    yield rel


def check(path: Path, root: Path = ROOT):
    broken = []
    check_paths = path.parent != root or path.name not in HISTORY
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK.findall(CODE_SPAN.sub("", line)):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            if target.startswith("#"):  # intra-document anchor
                continue
            rel = target.split("#", 1)[0]
            if not (path.parent / rel).exists():
                broken.append((lineno, "broken link", target))
        if check_paths:
            for rel in missing_code_paths(line, root):
                broken.append((lineno, "missing path", rel))
    return broken


def main(root: Path = ROOT) -> int:
    failures = 0
    files = list(doc_files(root))
    for path in files:
        for lineno, kind, target in check(path, root):
            print(f"{path.relative_to(root)}:{lineno}: {kind}: {target}")
            failures += 1
    if failures:
        print(f"{failures} broken link(s) or path(s)", file=sys.stderr)
        return 1
    print(f"all relative links and repo paths resolve across "
          f"{len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
