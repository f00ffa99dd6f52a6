#!/usr/bin/env python3
"""Project-invariant linter for the triclust repo.

Grep-resistant architectural invariants that neither the compiler nor the
unit suite can see break:

  fs-seam           All file I/O in src/ goes through the FileSystem seam
                    (src/util/fs.h) so fault injection and the crash-matrix
                    tests cover it. Direct <fstream>/fopen/POSIX descriptor
                    I/O is only allowed inside src/util/.
  determinism       Solver and kernel code (src/core, src/matrix,
                    src/baselines) must be a pure function of its inputs:
                    no system randomness and no clock reads of any kind
                    (time(), system_clock, steady_clock,
                    high_resolution_clock, Stopwatch). Randomness comes
                    from the seeded triclust::Rng; time belongs to the
                    serving layer and the benches.
  avx2-confinement  AVX2 intrinsics live in src/matrix/kernels_avx2.cc and
                    nowhere else — it is the single TU compiled with
                    -mavx2, which is what keeps AVX2 code off non-AVX2
                    hosts (see CMakeLists.txt).
  kernel-coverage   Every kernel body declared in src/matrix/kernels.h
                    must appear by name in tests/kernel_dispatch_test.cc
                    (the dispatch-table coverage test) so a new body
                    cannot ship without a pinned selection expectation.

A finding can be waived on its own line (or the line above) with a
comment naming the rule:  // lint-allow(fs-seam): <why>

Exit status: 0 = clean, 1 = violations (printed as path:line: [rule] msg).
--self-test runs every rule against the golden fixtures in
tools/lint_fixtures/ — each bad fixture must be rejected by exactly its
rule, each clean fixture accepted — so a rule that rots into matching
nothing fails ctest, not just code review.
"""

import argparse
import os
import re
import sys

SOURCE_EXTENSIONS = (".cc", ".h")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line):
    """Removes a // comment (good enough: no // inside string literals in
    this codebase's match surface)."""
    idx = line.find("//")
    return line if idx == -1 else line[:idx]


def waived(lines, index, rule):
    """True when line `index` (0-based) carries or follows a lint-allow
    comment naming `rule`."""
    here = lines[index]
    above = lines[index - 1] if index > 0 else ""
    marker = f"lint-allow({rule})"
    return marker in here or marker in above


def scan_patterns(path, lines, rule, patterns, message):
    """Applies (compiled regex, description) pairs line by line, comment
    stripped, honoring waivers."""
    out = []
    in_block_comment = False
    for i, raw in enumerate(lines):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end == -1:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start != -1 and line.find("*/", start) == -1:
            in_block_comment = True
            line = line[:start]
        code = strip_line_comment(line)
        for pattern, what in patterns:
            if pattern.search(code) and not waived(lines, i, rule):
                out.append(Violation(path, i + 1, rule,
                                     f"{what}; {message}"))
    return out


# --- rule: fs-seam -----------------------------------------------------------

FS_SEAM_PATTERNS = [
    (re.compile(r'#\s*include\s*<fstream>'), "includes <fstream>"),
    (re.compile(r'\bstd::[iof]?fstream\b'), "uses a std::fstream type"),
    (re.compile(r'\bf(open|reopen)\s*\('), "opens a C stdio stream"),
    (re.compile(r'::(open|creat)\s*\('), "opens a POSIX descriptor"),
]


def check_fs_seam(files):
    out = []
    for path, lines in files:
        norm = path.replace(os.sep, "/")
        if not norm.startswith("src/") or norm.startswith("src/util/"):
            continue
        out.extend(scan_patterns(
            path, lines, "fs-seam", FS_SEAM_PATTERNS,
            "file I/O outside src/util must go through the FileSystem "
            "seam (src/util/fs.h) so fault injection covers it"))
    return out


# --- rule: determinism -------------------------------------------------------

DETERMINISM_PATTERNS = [
    (re.compile(r'\b(s?rand)\s*\('), "calls rand()/srand()"),
    (re.compile(r'\bstd::random_device\b'), "uses std::random_device"),
    (re.compile(r'\btime\s*\(\s*(NULL|nullptr|0)?\s*\)'),
     "reads wall-clock time()"),
    (re.compile(r'\bsystem_clock\b'), "reads std::chrono::system_clock"),
    (re.compile(r'\b(steady_clock|high_resolution_clock)\b'),
     "reads std::chrono::steady_clock/high_resolution_clock"),
    (re.compile(r'\bStopwatch\b'), "times itself with a Stopwatch"),
]


def check_determinism(files):
    out = []
    for path, lines in files:
        out.extend(scan_patterns(
            path, lines, "determinism", DETERMINISM_PATTERNS,
            "solver/kernel code must be deterministic: seeded "
            "triclust::Rng for randomness, no clock reads"))
    return out


# --- rule: avx2-confinement --------------------------------------------------

AVX2_PATTERNS = [
    (re.compile(r'#\s*include\s*[<"]immintrin\.h[>"]'),
     "includes immintrin.h"),
    (re.compile(r'\b_mm256_\w+'), "uses an _mm256_* intrinsic"),
    (re.compile(r'\b__m256'), "uses an __m256 vector type"),
]


def check_avx2_confinement(files, allowed_suffix="src/matrix/kernels_avx2.cc"):
    out = []
    for path, lines in files:
        if path.replace(os.sep, "/").endswith(allowed_suffix):
            continue
        out.extend(scan_patterns(
            path, lines, "avx2-confinement", AVX2_PATTERNS,
            "AVX2 code is confined to src/matrix/kernels_avx2.cc, the "
            "single -mavx2 TU"))
    return out


# --- rule: kernel-coverage ---------------------------------------------------

KERNEL_DECL = re.compile(r'^(?:void|double|bool)\s+(\w+)\(', re.M)
# Declared in kernels.h but not a kernel body (probe forwarded from the
# public dispatch header; covered by its own tests).
KERNEL_COVERAGE_EXEMPT = {"Avx2KernelsCompiled"}


def check_kernel_coverage(kernels_header, dispatch_test):
    out = []
    try:
        with open(kernels_header) as f:
            header_text = f.read()
        with open(dispatch_test) as f:
            test_text = f.read()
    except OSError as e:
        return [Violation(kernels_header, 1, "kernel-coverage",
                          f"cannot read inputs: {e}")]
    for match in KERNEL_DECL.finditer(header_text):
        name = match.group(1)
        if name in KERNEL_COVERAGE_EXEMPT:
            continue
        if name not in test_text:
            line = header_text.count("\n", 0, match.start()) + 1
            out.append(Violation(
                kernels_header, line, "kernel-coverage",
                f"kernel body {name} is not referenced by "
                f"{os.path.basename(dispatch_test)}; add a dispatch-table "
                "expectation for it"))
    return out


# --- repo scan ---------------------------------------------------------------

def load_tree(root, subdirs):
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in sorted(os.walk(base)):
            for name in sorted(names):
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, errors="replace") as f:
                    files.append((os.path.relpath(path, root),
                                  f.read().splitlines()))
    return files


def lint_repo(root):
    violations = []
    src_files = load_tree(root, ["src"])
    violations += check_fs_seam(src_files)
    solver_files = [(p, l) for p, l in src_files
                    if p.replace(os.sep, "/").startswith(
                        ("src/core/", "src/matrix/", "src/baselines/"))]
    violations += check_determinism(solver_files)
    violations += check_avx2_confinement(
        load_tree(root, ["src", "tests", "bench", "examples"]))
    violations += check_kernel_coverage(
        os.path.join(root, "src", "matrix", "kernels.h"),
        os.path.join(root, "tests", "kernel_dispatch_test.cc"))
    return violations


# --- self-test on the golden fixtures ----------------------------------------

def read_fixture(fixtures, name):
    path = os.path.join(fixtures, name)
    with open(path) as f:
        return (os.path.join("src", "fixture", name), f.read().splitlines())


def self_test(root):
    fixtures = os.path.join(root, "tools", "lint_fixtures")
    failures = []

    def expect(label, violations, rule, want_hit):
        hits = [v for v in violations if v.rule == rule]
        if want_hit and not hits:
            failures.append(f"{label}: expected a {rule} violation, got none")
        if not want_hit and hits:
            failures.append(f"{label}: expected clean, got: "
                            + "; ".join(str(v) for v in hits))

    expect("fs_seam_bad",
           check_fs_seam([read_fixture(fixtures, "fs_seam_bad.cc")]),
           "fs-seam", True)
    expect("fs_seam_clean",
           check_fs_seam([read_fixture(fixtures, "fs_seam_clean.cc")]),
           "fs-seam", False)
    determinism_bad = check_determinism(
        [read_fixture(fixtures, "determinism_bad.cc")])
    expect("determinism_bad", determinism_bad, "determinism", True)
    for _, what in DETERMINISM_PATTERNS:
        if not any(v.message.startswith(what) for v in determinism_bad):
            failures.append(f"determinism_bad: no line flagged as '{what}'")
    expect("determinism_clean",
           check_determinism(
               [read_fixture(fixtures, "determinism_clean.cc")]),
           "determinism", False)
    expect("avx2_bad",
           check_avx2_confinement(
               [read_fixture(fixtures, "avx2_bad.cc")]),
           "avx2-confinement", True)
    expect("avx2_clean",
           check_avx2_confinement(
               [read_fixture(fixtures, "avx2_clean.cc")]),
           "avx2-confinement", False)
    expect("kernel_coverage_missing",
           check_kernel_coverage(
               os.path.join(fixtures, "kernel_coverage_kernels.h"),
               os.path.join(fixtures, "kernel_coverage_test_missing.cc")),
           "kernel-coverage", True)
    expect("kernel_coverage_full",
           check_kernel_coverage(
               os.path.join(fixtures, "kernel_coverage_kernels.h"),
               os.path.join(fixtures, "kernel_coverage_test_full.cc")),
           "kernel-coverage", False)

    if failures:
        print("lint_invariants self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("lint_invariants self-test OK: every rule rejects its bad "
          "fixture and accepts its clean one.")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="triclust project-invariant linter")
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true",
                        help="run the rules against the golden fixtures "
                             "instead of the repo")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.repo_root)

    violations = lint_repo(args.repo_root)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} invariant violation(s). Waive a "
              "deliberate exception with // lint-allow(<rule>): <why>")
        return 1
    print("lint_invariants OK: fs-seam, determinism, avx2-confinement, "
          "kernel-coverage all hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
