#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>]
                             [--trace <0|1>]

Run from the repository root. It builds the library and the benchmark
programs from source (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; generates the workload's inputs from the
seed with perfbench_gen (cached per seed); runs perfbench_run on them; and
prints every metric by name with its unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where attempted/failed count the fits (fits_attempted/fits_failed).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when the correctness gate fails (after printing
the result) or when nothing could be measured (without printing one).
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import summary  # noqa: E402

WORKLOADS = ("fleet_replay", "burst_single", "offline_sweep")
DEFAULT_SEED = 1
MAX_ERRORS_SHOWN = 20


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def run_tool(cmd, timeout):
    """Runs cmd with its output on stderr (stdout is the result channel)."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}", 1)
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}", 1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_tool(cmd, timeout=300)
    run_tool(["cmake", "--build", build_dir, "-j", "4"], timeout=850)
    return build_dir


def generate(build_dir, inputs_root, workload, seed):
    """Inputs of (workload, seed), generated once and then reused."""
    inputs = os.path.join(inputs_root, f"{workload}-{seed}")
    if not os.path.isdir(inputs):
        # Generated under a temporary name and renamed when complete, so a
        # directory under the final name always holds every file.
        tmp = f"{inputs}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        run_tool([os.path.join(build_dir, "perfbench_gen"), "--workload",
                  workload, "--seed", str(seed), "--out", tmp], timeout=170)
        try:
            os.rename(tmp, inputs)
        except OSError:
            # A concurrent run generated the same seed first.
            shutil.rmtree(tmp, ignore_errors=True)
    return inputs


def print_counters(counters):
    print("counters: " + json.dumps(counters, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "serving",
                                       "campaign_engine.h")):
        fail(f"no library sources under {ROOT}/src; run from a checkout of "
             "the repository")
    build_root = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    build_dir = build(build_root)
    inputs = generate(build_dir, os.path.join(build_root, "inputs"),
                      args.workload, args.seed)
    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{args.trace}")
    raw_path = os.path.join(work, "raw.json")
    os.makedirs(work, exist_ok=True)
    run_tool([os.path.join(build_dir, "perfbench_run"),
              "--workload", args.workload, "--inputs", inputs,
              "--work", work, "--seconds", repr(args.seconds),
              "--trace", str(args.trace), "--out", raw_path], timeout=170)
    with open(raw_path, encoding="utf-8") as f:
        raw = json.load(f)

    errors = summary.gate(raw)
    notes = []
    if args.trace:
        values, notes, check_errors = summary.per_layer(raw)
        errors += check_errors
        units = summary.PER_LAYER
    else:
        values = summary.end_to_end(raw)
        units = summary.END_TO_END
    attempted = int(sum(p["fits_attempted"] for p in raw["passes"]))
    failed = int(sum(p["fits_failed"] for p in raw["passes"]))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(raw['passes'])} pass(es), trace {args.trace}")
    print_counters(raw["counters"])
    iterations = sum(p["iterations"] for p in raw["passes"])
    converged = sum(p["converged"] for p in raw["passes"])
    print(f"fits_failed {failed} of fits_attempted {attempted} "
          f"({summary.failed_share(failed, attempted):.4f}); "
          f"{iterations / attempted:.2f} iterations per fit, "
          f"{converged / attempted:.3f} converged")
    for name, unit in units:
        print(f"{name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"FAILED: {error}")
    if len(errors) > MAX_ERRORS_SHOWN:
        print(f"FAILED: ... and {len(errors) - MAX_ERRORS_SHOWN} more")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
