#!/usr/bin/env python3
"""Fails when a repo markdown file contains a broken relative link.

Scans every tracked *.md file, extracts inline links ``[text](target)``,
and verifies that each relative target (optionally with a #fragment)
exists on disk. External schemes (http/https/mailto) and pure-fragment
links are skipped.

Additionally guards the normative specs in docs/:

* docs/FORMATS.md must keep specifying the checkpoint integrity trailer
  (the ``triclust-crc32`` line format 2 stores depend on) — code
  references "FORMATS.md §4" and an edit that drops the section would
  orphan them silently.
* docs/BENCHMARK.md must keep documenting the aggregated report schema
  (``triclust-bench-report/1``) — tools/bench_runner.py and
  tools/bench_gate.py implement that contract and their consumers depend
  on the doc staying authoritative.

Used by the CI docs job; run locally as
``python3 tools/check_markdown_links.py`` from anywhere in the repo.
"""

import os
import re
import subprocess
import sys

# Inline markdown link whose target does not start with a scheme or '#'.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def repo_root() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True)
    return out.stdout.strip()


def markdown_files(root: str):
    # Cached + untracked-but-not-ignored, so new docs are checked before
    # they are ever committed.
    out = subprocess.run(
        ["git", "ls-files", "-c", "-o", "--exclude-standard",
         "*.md", "**/*.md"],
        capture_output=True, text=True, check=True, cwd=root)
    return sorted({line for line in out.stdout.splitlines() if line})


# docs/FORMATS.md must keep specifying the integrity trailer; each entry
# is (required substring, what its absence means).
FORMATS_SPEC = "docs/FORMATS.md"
FORMATS_REQUIRED = (
    ("## 4. Integrity trailer",
     "the integrity-trailer section (referenced by code as §4) is gone"),
    ("triclust-crc32",
     "the trailer tag the store writes is no longer documented"),
    ("CRC-32",
     "the checksum algorithm is no longer named"),
    ("triclust-campaign-store 2",
     "the checksummed manifest format 2 is no longer documented"),
)


# docs/BENCHMARK.md must keep documenting the report schema the harness
# tools implement.
BENCHMARK_SPEC = "docs/BENCHMARK.md"
BENCHMARK_REQUIRED = (
    ("## Report schema",
     "the aggregated-report schema section is gone"),
    ("triclust-bench-report/1",
     "the report schema version tag is no longer documented"),
    ("triclust-bench/1",
     "the per-run schema the bench binaries emit is no longer named"),
    ("ci95_half",
     "the confidence-interval statistic consumers read is undocumented"),
)


def check_required_text(root: str, rel_path: str, required, kind: str):
    """Returns problem strings when a normative doc lost required text."""
    path = os.path.join(root, rel_path)
    if not os.path.exists(path):
        return [f"{rel_path}: missing ({kind})"]
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    return [
        f"{rel_path}: missing required text {token!r} ({why})"
        for token, why in required if token not in text
    ]


def main() -> int:
    root = repo_root()
    broken = check_required_text(
        root, FORMATS_SPEC, FORMATS_REQUIRED, "normative format spec")
    broken += check_required_text(
        root, BENCHMARK_SPEC, BENCHMARK_REQUIRED, "normative bench guide")
    for md in markdown_files(root):
        md_path = os.path.join(root, md)
        # Link syntax is ASCII; don't let a stray non-UTF-8 byte elsewhere
        # in a file turn the check into a decode traceback.
        with open(md_path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        for match in LINK.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(md_path), path))
            if not os.path.exists(resolved):
                line = text.count("\n", 0, match.start()) + 1
                broken.append(f"{md}:{line}: broken link -> {target}")
    for entry in broken:
        print(entry)
    if broken:
        print(f"{len(broken)} doc problem(s)")
        return 1
    print("all relative markdown links resolve; "
          "FORMATS.md trailer spec and BENCHMARK.md schema spec present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
