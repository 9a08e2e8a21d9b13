#!/usr/bin/env python3
"""Env-catalog lint: README.md's environment table and the program's env
reads must name the same UCUDNN_* variables.

  1. Every UCUDNN_* name read through an env_*(...) helper (common/env.h) or
     getenv(...) in src/, bench/ or examples/ has a row in README.md.
  2. Every README.md row of the form | `UCUDNN_X` | ... names a variable
     that something in those trees reads.

Only a string literal passed straight to the reader counts as a read;
comments do not, and neither do other UCUDNN_* strings such as the
UCUDNN_STATUS_* names that to_string(Status) returns.

Usage:  check_env_catalog.py [--self-test] [ROOT]

Exits non-zero when findings exist.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SCANNED_TREES = ("src", "bench", "examples")
SOURCE_SUFFIXES = (".h", ".cc")

ENV_READ = re.compile(
    r'\b(?:env_[a-z_]+|getenv)\s*\(\s*"(UCUDNN_[A-Z0-9_]+)"')
README_ROW = re.compile(r"^\|\s*`(UCUDNN_[A-Z0-9_]+)`\s*\|", re.MULTILINE)
NOT_ENV = "UCUDNN_STATUS_"


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments, keeping string literals (whose contents
    are the variable names) and the line layout."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        elif c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("".join(ch if ch == "\n" else " " for ch in text[i : j + 2]))
            i = j + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def reads_in(rel: str, text: str) -> list[tuple[str, str]]:
    """(name, "rel:line") for each env read in one source file."""
    code = strip_comments(text)
    return [
        (m.group(1), f"{rel}:{line_of(code, m.start(1))}")
        for m in ENV_READ.finditer(code)
        if not m.group(1).startswith(NOT_ENV)
    ]


def check(sources: dict[str, str], readme: str) -> list[str]:
    reads: dict[str, str] = {}
    for rel in sorted(sources):
        for name, where in reads_in(rel, sources[rel]):
            reads.setdefault(name, where)
    rows = {m.group(1): line_of(readme, m.start(1))
            for m in README_ROW.finditer(readme)}
    findings = [
        f"{where}: {name} is read here but has no row in README.md"
        for name, where in sorted(reads.items())
        if name not in rows
    ]
    findings += [
        f"README.md:{line}: {name} has a row but nothing in "
        f"{', '.join(t + '/' for t in SCANNED_TREES)} reads it"
        for name, line in sorted(rows.items(), key=lambda kv: kv[1])
        if name not in reads
    ]
    return findings


def scan_tree(root: Path) -> list[str]:
    sources = {}
    for tree in SCANNED_TREES:
        for path in sorted((root / tree).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                sources[rel] = path.read_text(encoding="utf-8", errors="replace")
    readme = (root / "README.md").read_text(encoding="utf-8")
    return check(sources, readme)


def self_test() -> int:
    row = "| `UCUDNN_A` | int | a knob |\n"
    cases = [
        # (sources, readme, expected finding count)
        ({"src/a.cc": 'env_int("UCUDNN_A", 1);\n'}, row, 0),
        ({"src/a.cc": 'std::getenv("UCUDNN_A");\n'}, row, 0),
        # A read split over lines still counts.
        ({"src/a.cc": 'env_fraction(\n    "UCUDNN_A", 0.5);\n'}, row, 0),
        # Read without a row.
        ({"src/a.cc": 'env_bool("UCUDNN_B", false);\n'}, row, 2),
        ({"bench/b.cc": 'getenv("UCUDNN_A"); getenv("UCUDNN_B");\n'}, row, 1),
        # A row for a variable that nothing reads.
        ({"src/a.cc": 'env_int("UCUDNN_A", 1);\n'},
         row + "| `UCUDNN_GONE` | int | removed knob |\n", 1),
        ({}, row, 1),
        # Commented-out reads, status names and bare mentions are not reads.
        ({"src/a.cc": '// env_int("UCUDNN_A", 1);\n'}, row, 1),
        ({"src/a.cc": '/* getenv("UCUDNN_A") */\n'}, row, 1),
        ({"src/a.cc": 'return "UCUDNN_STATUS_SUCCESS";\n'}, "", 0),
        ({"src/a.cc": 'getenv("UCUDNN_STATUS_X");\n'}, "", 0),
        ({"src/a.cc": 'log("set UCUDNN_A");\n'}, row, 1),
        # A "//" inside a string literal does not start a comment.
        ({"src/a.cc": 'f("http://x"); env_int("UCUDNN_A", 1);\n'}, row, 0),
        # Prose mentioning a variable is not a row.
        ({"src/a.cc": 'env_int("UCUDNN_A", 1);\n'},
         row + "Set `UCUDNN_A` to tune it.\n", 0),
    ]
    failures = []
    for sources, readme, expected in cases:
        got = check(sources, readme)
        if len(got) != expected:
            failures.append((sources, readme, expected, got))
    if failures:
        print("self-test FAILED")
        for sources, readme, expected, got in failures:
            print(f"  {sources!r} x {readme!r}: expected {expected}, "
                  f"got {len(got)}")
            for f in got:
                print(f"    {f}")
        return 1
    print(f"self-test passed ({len(cases)} cases)")
    return 0


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--self-test"]
    if "--self-test" in argv[1:]:
        return self_test()
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    findings = scan_tree(root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} env-catalog finding(s)")
        return 1
    print("env catalog clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
