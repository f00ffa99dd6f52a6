#!/usr/bin/env python3
"""Statistical benchmark runner: repetitions, aggregation, one report.

Discovers the ``bench_*`` executables under ``<build-dir>/bench``, runs any
subset of them for N process-level repetitions (plus discarded warmup runs),
parses the per-run JSON each binary emits (the ``triclust-bench/1`` contract
documented in ``bench/bench_flags.h``, or classic google-benchmark JSON for
``bench_kernels``), and aggregates every scenario's wall time and counters
into a single schema-versioned report::

    python3 tools/bench_runner.py --build-dir build --profile validate \
        --out bench_report.json

Statistics per (binary, scenario, metric): mean, sample standard deviation,
min, max, and the half-width of the 95% confidence interval of the mean
(Student's t, two-sided, df = n-1). With one sample the stddev and CI are
reported as 0 — a single run carries no spread information.

Profiles bundle the defaults for the two supported environments:

* ``validate`` — shrunken work scale (``--benchmark_min_time=0.01x``),
  3 repetitions, 0 warmup. Exercises every sweep structurally; timings are
  NOT meaningful performance numbers. CI runs every binary once this way.
* ``metal`` — full work scale (``1x``), 5 repetitions, 1 warmup. For quiet,
  dedicated hardware; this is the only profile whose numbers are worth
  comparing across commits. See docs/BENCHMARK.md.

The aggregated report (schema ``triclust-bench-report/1``) is consumed by
``tools/bench_gate.py``, which gates it against another report and prints
the per-scenario speedup table.

``--pairs N`` switches to the repository benchmark instead: it runs
``perfbench/run.py --trace 0`` in a parent source tree and in the change's
tree, alternately, for N pairs per workload, and writes one
``BENCH_<topic>.json`` report (schema ``triclust-bench-pairs/1``)::

    mkdir ../parent && git archive HEAD | tar -x -C ../parent
    python3 tools/bench_runner.py --pairs 10 --parent ../parent \
        --workload fleet_replay --workload offline_sweep --topic k3_kernels

Each tree builds into its own ``.bench_build``. Per end-to-end metric of
``BENCHMARK.json`` the report holds both medians and quartiles, the
per-pair ratios (change / parent), the 95% CI of the mean log-ratio, the
pairs the change won, whether that is a gain, and the verdict against the
metric's bound (docs/BENCHMARK.md).

``--self-test`` runs the built-in unit tests on canned JSON and on fake
bench programs it writes to a temporary directory (no build tree needed);
it is registered with ctest as ``bench_runner_selftest``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

REPORT_SCHEMA = "triclust-bench-report/1"
RUN_SCHEMA = "triclust-bench/1"
PAIRS_SCHEMA = "triclust-bench-pairs/1"

# Two-sided 95% critical values of Student's t by degrees of freedom.
# Hardcoded because the toolchain image has no scipy; the asymptotic 1.96
# is used beyond the table.
T_TABLE_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
    13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
    19: 2.093, 20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000,
    120: 1.980,
}

# Keys of a per-run benchmark entry that are structural, not counters.
# family_index / per_family_instance_index / threads come from classic
# google-benchmark output (bench_kernels).
NON_COUNTER_KEYS = frozenset({
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "iterations", "real_time", "cpu_time", "time_unit", "threads",
    "family_index", "per_family_instance_index",
})

TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

PROFILES = {
    "validate": {"min_time": "0.01x", "repetitions": 3, "warmup": 0},
    "metal": {"min_time": "1x", "repetitions": 5, "warmup": 1},
}


def t_critical_95(df):
    """Two-sided 95% t critical value for df degrees of freedom."""
    if df <= 0:
        return 0.0
    if df > max(T_TABLE_95):
        return 1.96
    # Between table rows: use the next-smaller df (conservative: wider CI).
    return T_TABLE_95[max(d for d in T_TABLE_95 if d <= df)]


def summarize(values):
    """Mean/stddev/min/max/ci95_half/n for a list of samples.

    Sample standard deviation (n-1 denominator); ci95_half is the half-width
    of the 95% confidence interval of the mean. Both are 0 for n < 2.
    """
    n = len(values)
    if n == 0:
        raise ValueError("summarize() needs at least one sample")
    mean = sum(values) / n
    if n < 2:
        return {"mean": mean, "stddev": 0.0, "min": values[0],
                "max": values[0], "ci95_half": 0.0, "n": n}
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(var)
    ci95_half = t_critical_95(n - 1) * stddev / math.sqrt(n)
    return {"mean": mean, "stddev": stddev, "min": min(values),
            "max": max(values), "ci95_half": ci95_half, "n": n}


def parse_run_doc(doc, path="<doc>"):
    """Extracts [(name, real_time_ms, {counter: value})] from one run JSON.

    Accepts both the triclust-bench/1 shim output and classic
    google-benchmark JSON; aggregate rows (run_type == "aggregate") are
    skipped — statistics are exclusively this runner's job.
    """
    samples = []
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = bench.get("time_unit", "ns")
        scale = TIME_UNIT_TO_MS.get(unit)
        if scale is None:
            raise ValueError(
                f"{path}: unknown time_unit {unit!r} for {bench.get('name')}")
        counters = {}
        for key, value in bench.items():
            if key in NON_COUNTER_KEYS:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite counter {key!r} in "
                        f"{bench.get('name')} — the bench binary must not "
                        "emit NaN/inf (see bench/bench_flags.h)")
                counters[key] = float(value)
        samples.append(
            (bench["name"], float(bench["real_time"]) * scale, counters))
    return samples


def discover_binaries(build_dir):
    """Returns sorted names of bench_* executables in <build_dir>/bench."""
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        raise FileNotFoundError(
            f"{bench_dir}: not a directory (build the 'benchmarks' targets "
            "first: cmake --build build --target all)")
    names = []
    for entry in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, entry)
        if (entry.startswith("bench_") and "." not in entry
                and os.path.isfile(path) and os.access(path, os.X_OK)):
            names.append(entry)
    return names


def run_binary_once(path, min_time, bench_filter, log_fh):
    """Runs one binary, returns the parsed run JSON document.

    Binaries that reject the fractional ``0.01x`` min-time form (classic
    google-benchmark wants a plain double in seconds) are retried once with
    the ``x`` suffix stripped.
    """
    with tempfile.NamedTemporaryFile(
            mode="r", suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        def attempt(min_time_value):
            args = [path, f"--benchmark_min_time={min_time_value}",
                    f"--benchmark_out={out_path}"]
            if bench_filter:
                args.append(f"--benchmark_filter={bench_filter}")
            return subprocess.run(
                args, stdout=log_fh, stderr=subprocess.STDOUT, check=False)

        proc = attempt(min_time)
        if proc.returncode != 0 and min_time.endswith("x"):
            proc = attempt(min_time[:-1])
        if proc.returncode != 0:
            raise RuntimeError(
                f"{os.path.basename(path)} exited with {proc.returncode}")
        with open(out_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(out_path)


def aggregate(per_binary_runs):
    """Builds the report body from {binary: (context, [run_samples...])}.

    ``run_samples`` is a list (one element per repetition) of the
    parse_run_doc() output. Returns (binaries, scenarios) — scenarios sorted
    by key so the report is deterministic byte-for-byte given equal inputs.
    """
    binaries = {}
    scenarios = []
    for binary in sorted(per_binary_runs):
        context, runs = per_binary_runs[binary]
        binaries[binary] = context
        # Pool samples per scenario name across all repetitions (process
        # level and any in-process --benchmark_repetitions entries alike).
        times = {}
        counters = {}
        for run in runs:
            for name, time_ms, run_counters in run:
                times.setdefault(name, []).append(time_ms)
                for key, value in run_counters.items():
                    counters.setdefault(name, {}).setdefault(
                        key, []).append(value)
        for name in sorted(times):
            scenario = {
                "binary": binary,
                "name": name,
                "key": f"{binary}/{name}",
                "time_unit": "ms",
                "real_time": summarize(times[name]),
                "counters": {
                    key: summarize(values)
                    for key, values in sorted(counters.get(name, {}).items())
                },
            }
            scenarios.append(scenario)
    return binaries, scenarios


def build_report(profile, min_time, repetitions, warmup, per_binary_runs,
                 failures):
    binaries, scenarios = aggregate(per_binary_runs)
    return {
        "schema": REPORT_SCHEMA,
        "profile": profile,
        "min_time": min_time,
        "repetitions": repetitions,
        "warmup": warmup,
        "binaries": binaries,
        "failures": sorted(failures),
        "scenarios": scenarios,
    }


# --------------------------------------------------------------------------
# Pairs mode: perfbench/run.py in two source trees, alternately.

def run_perfbench(tree, workload, seed, seconds, log_fh):
    """Runs ``perfbench/run.py --trace 0`` in ``tree``; returns its result.

    The tree builds into its own ``.bench_build`` (an inherited
    CARGO_TARGET_DIR would make both trees share one build). Raises
    RuntimeError when the run prints no result.
    """
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "0"]
    log_fh.flush()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=log_fh, text=True, check=False)
    log_fh.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} in {tree} exited with "
                           f"{proc.returncode} and printed no result") from None


def quartiles(values):
    """[q1, q3] as statistics.quantiles(values, n=4) gives them (as
    perfbench/summary.py does), or None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def pair_metric(spec, parent_values, change_values):
    """Compares one metric over pairs: medians, ratios, CI, wins, verdict.

    The ratios are change / parent per pair. The CI is the 95% interval of
    the mean log-ratio (Student's t), exponentiated back to a ratio; it
    needs two pairs with positive values. The verdict applies the bound of
    BENCHMARK.json: the change's median may be worse than the parent's by
    at most ``bound`` times the parent's median. ``gain`` holds when the
    change wins at least nine tenths of the pairs (ties count for neither)
    and its median is better than the parent's by more than the parent's
    interquartile range.
    """
    higher = spec["better"] == "higher"
    parent_median = statistics.median(parent_values)
    change_median = statistics.median(change_values)
    parent_quartiles = quartiles(parent_values)
    ratios = [c / p if p > 0 else None
              for p, c in zip(parent_values, change_values)]
    logs = [math.log(r) for r in ratios if r is not None and r > 0]
    ci = None
    if len(logs) >= 2:
        stats = summarize(logs)
        ci = [math.exp(stats["mean"] - stats["ci95_half"]),
              math.exp(stats["mean"] + stats["ci95_half"])]
    wins = sum(1 for p, c in zip(parent_values, change_values)
               if (c > p if higher else c < p))
    ties = sum(1 for p, c in zip(parent_values, change_values) if c == p)
    worse = parent_median - change_median if higher \
        else change_median - parent_median
    gain = (parent_quartiles is not None and
            wins >= 0.9 * len(parent_values) and
            -worse > parent_quartiles[1] - parent_quartiles[0])
    if worse <= 0:
        worse_share = 0.0
    elif parent_median > 0:
        worse_share = worse / parent_median
    else:
        worse_share = math.inf
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": parent_quartiles,
        "change_quartiles": quartiles(change_values),
        "ratios": ratios,
        "ci95_ratio": ci,
        "wins": wins,
        "ties": ties,
        "pairs": len(parent_values),
        "gain": gain,
        "verdict": ("worse than bound" if worse_share > spec["bound"]
                    else "within bound"),
    }


def pair_workload(specs, runs):
    """The report section of one workload from its completed pairs.

    ``runs`` holds one {"pair", "first", "parent", "change"} entry per pair,
    where parent and change are perfbench/run.py results.
    """
    sides = ("parent", "change")
    section = {
        "pairs": len(runs),
        "correct": all(run[side]["correct"] for run in runs
                       for side in sides),
        "fits_failed": {side: [run[side]["failed"] for run in runs]
                        for side in sides},
        "runs": [dict({"pair": run["pair"], "first": run["first"]},
                      **{side: {name: metric["value"] for name, metric
                                in sorted(run[side]["metrics"].items())}
                         for side in sides})
                 for run in runs],
        "metrics": {},
    }
    if not runs:
        return section
    for spec in specs:
        name = spec["name"]
        if not all(name in run[side]["metrics"] for run in runs
                   for side in sides):
            continue
        section["metrics"][name] = pair_metric(
            spec, *[[run[side]["metrics"][name]["value"] for run in runs]
                    for side in sides])
    return section


def _format_ci(ci):
    return "-" if ci is None else f"[{ci[0]:.3f}, {ci[1]:.3f}]"


def print_pair_section(workload, section):
    print(f"[bench_runner] {workload}: {section['pairs']} pair(s), "
          f"correct {str(section['correct']).lower()}, fits_failed "
          f"{section['fits_failed']['parent']} -> "
          f"{section['fits_failed']['change']}")
    print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'ratio':>7} "
          f"{'95% CI':>16}  {'wins':>5}  {'gain':<5}  verdict")
    for name, m in section["metrics"].items():
        ratio = (m["change_median"] / m["parent_median"]
                 if m["parent_median"] else math.nan)
        print(f"  {name:<16} {m['parent_median']:>12.6g} "
              f"{m['change_median']:>12.6g} {ratio:>7.3f} "
              f"{_format_ci(m['ci95_ratio']):>16}  "
              f"{m['wins']:>2}/{m['pairs']:<2}  "
              f"{str(m['gain']).lower():<5}  {m['verdict']}")


def run_pairs(args, out_path):
    """Pairs mode: N alternating parent/change runs per workload."""
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = args.seconds if args.seconds is not None \
        else benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    log_fh = open(args.log, "w", encoding="utf-8") if args.log \
        else open(os.devnull, "w", encoding="utf-8")
    report = {"schema": PAIRS_SCHEMA,
              "command": "perfbench/run.py --trace 0",
              "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "failures": [], "workloads": {}}
    with log_fh:
        for workload in workloads:
            try:
                # One short discarded run per tree builds it, generates the
                # inputs and warms the caches before anything is timed.
                for side in ("parent", "change"):
                    print(f"[bench_runner] {workload} prime {side}",
                          flush=True)
                    run_perfbench(trees[side], workload, args.seed, 1,
                                  log_fh)
            except RuntimeError as err:
                print(f"[bench_runner] FAILED {err}", file=sys.stderr,
                      flush=True)
                report["failures"].append(f"{workload} prime: {err}")
                continue
            runs = []
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                run = {"pair": pair + 1, "first": order[0]}
                try:
                    for side in order:
                        print(f"[bench_runner] {workload} pair {pair + 1} "
                              f"{side}", flush=True)
                        run[side] = run_perfbench(
                            trees[side], workload, args.seed, seconds,
                            log_fh)
                except RuntimeError as err:
                    print(f"[bench_runner] FAILED {err}", file=sys.stderr,
                          flush=True)
                    report["failures"].append(
                        f"{workload} pair {pair + 1}: {err}")
                    continue
                runs.append(run)
            section = pair_workload(benchmark["end_to_end"], runs)
            report["workloads"][workload] = section
            print_pair_section(workload, section)

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"[bench_runner] wrote {out_path}")
    ok = not report["failures"] and all(
        section["correct"] and all(
            m["verdict"] == "within bound"
            for m in section["metrics"].values())
        for section in report["workloads"].values())
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run bench_* binaries repeatedly and aggregate "
                    "statistics into one report (see docs/BENCHMARK.md).")
    parser.add_argument("binaries", nargs="*", metavar="BINARY",
                        help="bench_* names to run (default: all discovered)")
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="validate",
                        help="defaults bundle: validate (CI, shrunken work) "
                             "or metal (full scale, quiet hardware)")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="process-level repetitions (overrides profile)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="discarded warmup runs per binary "
                             "(overrides profile)")
    parser.add_argument("--min-time", default=None, metavar="FRACx",
                        help="--benchmark_min_time passed to every binary "
                             "(overrides profile)")
    parser.add_argument("--filter", default=None,
                        help="--benchmark_filter passed to every binary "
                             "(only bench_kernels selects on it; the shim "
                             "binaries ignore it)")
    parser.add_argument("--exclude", action="append", default=[],
                        metavar="BINARY", help="skip this binary (repeatable)")
    parser.add_argument("--out", default=None,
                        help="report path (default: bench_report.json, or "
                             "BENCH_<topic>.json with --pairs)")
    parser.add_argument("--log", default=None,
                        help="file for the binaries' console output "
                             "(default: discarded)")
    parser.add_argument("--list", action="store_true",
                        help="list discovered binaries and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in unit tests and exit")
    pairs = parser.add_argument_group(
        "pairs mode", "perfbench/run.py in a parent and a change tree, "
        "alternately")
    pairs.add_argument("--pairs", type=int, default=None, metavar="N",
                       help="run N parent/change pairs per workload")
    pairs.add_argument("--parent", default=None, metavar="DIR",
                       help="the parent's source tree (required)")
    pairs.add_argument("--change", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), metavar="DIR",
                       help="the change's source tree (default: the tree "
                            "this script is in)")
    pairs.add_argument("--workload", action="append", default=[],
                       help="perfbench workload (repeatable; default: every "
                            "workload in BENCHMARK.json)")
    pairs.add_argument("--seed", type=int, default=1,
                       help="perfbench seed (default: 1)")
    pairs.add_argument("--seconds", type=float, default=None,
                       help="perfbench --seconds (default: BENCHMARK.json "
                            "run_seconds)")
    pairs.add_argument("--topic", default=None,
                       help="names the report BENCH_<topic>.json")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.pairs is not None:
        if args.pairs < 1:
            parser.error("--pairs must be >= 1")
        if args.parent is None:
            parser.error("--pairs needs --parent")
        if args.out is None and args.topic is None:
            parser.error("--pairs needs --topic or --out")
        return run_pairs(args, args.out or f"BENCH_{args.topic}.json")
    if args.out is None:
        args.out = "bench_report.json"

    profile = PROFILES[args.profile]
    repetitions = (args.repetitions if args.repetitions is not None
                   else profile["repetitions"])
    warmup = args.warmup if args.warmup is not None else profile["warmup"]
    min_time = args.min_time if args.min_time is not None \
        else profile["min_time"]
    if repetitions < 1:
        parser.error("--repetitions must be >= 1")
    if warmup < 0:
        parser.error("--warmup must be >= 0")

    discovered = discover_binaries(args.build_dir)
    if args.list:
        print("\n".join(discovered))
        return 0
    selected = args.binaries or discovered
    unknown = sorted(set(selected) - set(discovered))
    if unknown:
        print(f"error: not found under {args.build_dir}/bench: "
              f"{', '.join(unknown)}", file=sys.stderr)
        return 2
    selected = [b for b in selected if b not in set(args.exclude)]
    if not selected:
        print("error: no binaries selected", file=sys.stderr)
        return 2

    log_fh = open(args.log, "w", encoding="utf-8") if args.log \
        else open(os.devnull, "w", encoding="utf-8")
    per_binary_runs = {}
    failures = []
    with log_fh:
        for binary in selected:
            path = os.path.join(args.build_dir, "bench", binary)
            context = None
            runs = []
            try:
                for rep in range(warmup + repetitions):
                    phase = "warmup" if rep < warmup else "rep"
                    index = rep if rep < warmup else rep - warmup
                    print(f"[bench_runner] {binary} {phase} {index + 1}",
                          flush=True)
                    doc = run_binary_once(path, min_time, args.filter, log_fh)
                    if rep < warmup:
                        continue
                    context = doc.get("context", {})
                    runs.append(parse_run_doc(doc, binary))
            except (RuntimeError, ValueError, json.JSONDecodeError) as err:
                print(f"[bench_runner] FAILED {binary}: {err}",
                      file=sys.stderr, flush=True)
                failures.append(binary)
                continue
            per_binary_runs[binary] = (context, runs)

    report = build_report(args.profile, min_time, repetitions, warmup,
                          per_binary_runs, failures)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")

    n_scenarios = len(report["scenarios"])
    print(f"[bench_runner] wrote {args.out}: {n_scenarios} scenario(s) from "
          f"{len(per_binary_runs)} binarie(s), {repetitions} repetition(s)")
    if failures:
        print(f"[bench_runner] {len(failures)} binarie(s) failed: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# Self-test: canned JSON and fake bench programs, no build tree required.

def _check(condition, label):
    if not condition:
        raise AssertionError(label)
    print(f"  ok: {label}")


def _approx(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _canned_run(names_times_counters, schema=RUN_SCHEMA, unit="ms"):
    return {
        "context": {"schema": schema, "executable": "bench_fake"},
        "benchmarks": [
            dict({"name": n, "run_type": "iteration", "iterations": 1,
                  "real_time": t, "cpu_time": t, "time_unit": unit}, **c)
            for n, t, c in names_times_counters
        ],
    }


# A fake bench program for the self-test's command-line section: it prints
# its name, min-time and filter, rejects the "x" min-time form when named
# bench_gbench (as classic google-benchmark does), fails when named
# bench_broken, and otherwise reports one 2 ms scenario.
_FAKE_BENCH = """#!{python}
import json, os, sys
name = os.path.basename(sys.argv[0])
flags = dict(arg.split("=", 1) for arg in sys.argv[1:])
if name == "bench_gbench" and flags["--benchmark_min_time"].endswith("x"):
    sys.exit(1)
print(name, flags["--benchmark_min_time"], flags.get("--benchmark_filter"))
if name == "bench_broken":
    sys.exit(1)
with open(flags["--benchmark_out"], "w") as fh:
    json.dump({{"benchmarks": [{{"name": "s", "real_time": 2.0,
                                "time_unit": "ms"}}]}}, fh)
"""


# A fake perfbench/run.py for the pairs self-test: it appends its tree,
# workload, seconds and whether CARGO_TARGET_DIR is the tree's own
# .bench_build to calls.log beside the trees, and reports values that
# depend on the tree and on how often that tree has run. A tree named
# "broken" prints no result.
_FAKE_PERFBENCH = """import json, os, sys
flags = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tree = os.getcwd()
own = os.environ["CARGO_TARGET_DIR"] == os.path.join(tree, ".bench_build")
with open(os.path.join(os.path.dirname(tree), "calls.log"), "a") as fh:
    fh.write(" ".join([os.path.basename(tree), flags["--workload"],
                       flags["--seconds"], str(own)]) + "\\n")
calls = os.path.join(tree, "calls")
n = os.path.getsize(calls) if os.path.exists(calls) else 0
with open(calls, "a") as fh:
    fh.write("x")
if os.path.basename(tree) == "broken":
    sys.exit(2)
p50 = (24.0 if os.path.basename(tree) == "change" else 30.0) + n
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"advance_p50_ms": {"value": p50, "unit": "ms"},
                              "tweet_accuracy": {"value": 0.6,
                                                 "unit": "fraction"}}}))
"""

_FAKE_BENCHMARK = {
    "run_seconds": 20,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "tweets_per_s", "unit": "tweets/s", "better": "higher",
         "bound": 0.25},
        {"name": "advance_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "tweet_accuracy", "unit": "fraction", "better": "higher",
         "bound": 0.15},
    ],
}


def _pairs_self_test():
    lower = {"unit": "ms", "better": "lower", "bound": 0.25}
    higher = {"unit": "tweets/s", "better": "higher", "bound": 0.25}
    m = pair_metric(lower, [10.0, 12.0, 11.0, 13.0], [8.0, 9.0, 9.0, 10.0])
    _check(m["parent_median"] == 11.5 and m["change_median"] == 9.0,
           "pairs: both medians")
    _check(_approx(m["ratios"][1], 0.75), "pairs: ratio is change / parent")
    logs = [math.log(c / p) for p, c in
            zip([10.0, 12.0, 11.0, 13.0], [8.0, 9.0, 9.0, 10.0])]
    stats = summarize(logs)
    _check(_approx(m["ci95_ratio"][1],
                   math.exp(stats["mean"] + 3.182 * stats["stddev"] / 2.0)),
           "pairs: CI of the mean log-ratio uses t(df=3)=3.182")
    _check(m["ci95_ratio"][1] < 1.0 and m["wins"] == 4 and m["ties"] == 0,
           "pairs: a faster change wins 4/4 with a CI below 1")
    _check(m["verdict"] == "within bound", "pairs: a gain is within bound")
    _check(m["parent_quartiles"] == [10.25, 12.75] and not m["gain"],
           "pairs: quartiles as statistics.quantiles; a 4/4 win by exactly "
           "the parent's IQR (2.5) is no gain")
    m = pair_metric(lower, [10.0, 12.0, 11.0, 13.0], [7.0, 9.0, 8.0, 9.0])
    _check(m["gain"], "pairs: a 4/4 win by more than the parent's IQR is "
                      "a gain")
    m = pair_metric(lower, [10.0, 12.0, 11.0, 13.0], [9.9, 11.9, 10.9, 12.9])
    _check(m["wins"] == 4 and not m["gain"],
           "pairs: a win by less than the parent's IQR is no gain")
    m = pair_metric(lower, [10.0] * 9 + [13.0], [9.0] * 8 + [10.0, 14.0])
    _check(m["wins"] == 8 and not m["gain"],
           "pairs: 8 wins of 10 is no gain")
    m = pair_metric(higher, [100.0, 100.0], [70.0, 74.0])
    _check(m["verdict"] == "worse than bound" and m["wins"] == 0,
           "pairs: a 28% drop of a higher-is-better metric breaks 0.25")
    m = pair_metric(lower, [100.0, 100.0], [120.0, 124.0])
    _check(m["verdict"] == "within bound",
           "pairs: a 22% rise of a lower-is-better metric is within 0.25")
    m = pair_metric(higher, [0.6364, 0.6364], [0.6364, 0.6364])
    _check(m["ci95_ratio"] == [1.0, 1.0] and m["ties"] == 2 and
           m["wins"] == 0, "pairs: equal values tie with a CI of [1, 1]")
    m = pair_metric(lower, [0.0, 2.0], [0.0, 2.0])
    _check(m["ratios"] == [None, 1.0] and m["ci95_ratio"] is None,
           "pairs: a zero parent value has no ratio; one ratio has no CI")

    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("parent", "change", "broken"):
            os.makedirs(os.path.join(tmp, tree, "perfbench"))
            with open(os.path.join(tmp, tree, "perfbench", "run.py"), "w",
                      encoding="utf-8") as fh:
                fh.write(_FAKE_PERFBENCH)
        with open(os.path.join(tmp, "change", "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_FAKE_BENCHMARK, fh)
        calls_log = os.path.join(tmp, "calls.log")

        def run(parent, *argv):
            for path in [calls_log] + [os.path.join(tmp, t, "calls")
                                       for t in ("parent", "change")]:
                if os.path.exists(path):
                    os.unlink(path)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(["--pairs", "3", "--parent",
                               os.path.join(tmp, parent), "--change",
                               os.path.join(tmp, "change")] + list(argv))
            with open(calls_log, encoding="utf-8") as fh:
                return status, fh.read().splitlines()

        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            status, calls = run("parent", "--topic", "t")
        finally:
            os.chdir(cwd)
        _check(status == 0 and os.path.exists(os.path.join(tmp, "BENCH_t.json")),
               "pairs: --topic t writes BENCH_t.json")
        with open(os.path.join(tmp, "BENCH_t.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        order = [c.split()[0] for c in calls]
        _check(order == ["parent", "change", "parent", "change", "change",
                         "parent", "parent", "change"] * 2,
               "pairs: a prime run per tree, then the first side flips "
               "every pair")
        _check([c.split()[1] for c in calls] == ["w1"] * 8 + ["w2"] * 8,
               "pairs: every BENCHMARK.json workload by default")
        _check([c.split()[2] for c in calls[:3]] == ["1.0", "1.0", "20.0"],
               "pairs: primes run 1 s, pairs run_seconds")
        _check(all(c.split()[3] == "True" for c in calls),
               "pairs: each tree builds into its own .bench_build")
        section = doc["workloads"]["w1"]
        p50 = section["metrics"]["advance_p50_ms"]
        _check(doc["schema"] == PAIRS_SCHEMA and section["pairs"] == 3 and
               [r["first"] for r in section["runs"]] ==
               ["parent", "change", "parent"],
               "pairs: the report records each pair and its first side")
        _check(p50["parent_median"] == 32.0 and p50["change_median"] == 26.0
               and p50["wins"] == 3 and _approx(p50["ratios"][0], 25 / 31),
               "pairs: medians, ratios and wins from the runs")
        _check("tweets_per_s" not in section["metrics"] and
               section["metrics"]["tweet_accuracy"]["ties"] == 3,
               "pairs: only the metrics both trees report are compared")

        status, calls = run("broken", "--workload", "w1", "--out",
                            os.path.join(tmp, "b.json"))
        with open(os.path.join(tmp, "b.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        _check(status == 1 and len(doc["failures"]) == 1 and
               len(calls) == 1 and doc["workloads"] == {},
               "pairs: a tree that prints no result is a failure, exit 1")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                main(["--pairs", "2", "--topic", "t"])
            raise AssertionError("--pairs without --parent should fail")
        except SystemExit as err:
            _check(err.code == 2, "pairs: --parent is required")


def self_test():
    print("bench_runner self-test")

    # Statistics: worked example from docs/BENCHMARK.md.
    s = summarize([10.0, 12.0, 14.0])
    _check(_approx(s["mean"], 12.0), "mean of [10,12,14] is 12")
    _check(_approx(s["stddev"], 2.0), "sample stddev of [10,12,14] is 2")
    _check(_approx(s["ci95_half"], 4.303 * 2.0 / math.sqrt(3.0)),
           "ci95 half-width uses t(df=2)=4.303")
    _check(s["min"] == 10.0 and s["max"] == 14.0, "min/max")

    single = summarize([7.0])
    _check(single["stddev"] == 0.0 and single["ci95_half"] == 0.0,
           "n=1 reports zero spread")

    _check(t_critical_95(2) == 4.303, "t table exact hit")
    _check(t_critical_95(22) == 2.086, "t table between rows -> conservative")
    _check(t_critical_95(1000) == 1.96, "t table beyond rows -> 1.96")

    # Unit conversion and aggregate-row skipping.
    doc = _canned_run([("a/b", 2.0, {})], unit="s")
    doc["benchmarks"].append({"name": "a/b_mean", "run_type": "aggregate",
                              "real_time": 9.9, "time_unit": "s"})
    samples = parse_run_doc(doc)
    _check(len(samples) == 1, "aggregate rows are skipped")
    _check(_approx(samples[0][1], 2000.0), "seconds convert to ms")

    # Counter extraction ignores structural keys, keeps numerics.
    samples = parse_run_doc(_canned_run(
        [("x", 1.0, {"fits": 25.0, "threads": 8, "run_name": "x"})]))
    _check(samples[0][2] == {"fits": 25.0},
           "structural keys are not counters")

    # NaN counters must be rejected loudly.
    try:
        parse_run_doc(_canned_run([("x", 1.0, {"bad": float("nan")})]))
        raise AssertionError("NaN counter should raise")
    except ValueError:
        print("  ok: NaN counter raises ValueError")

    # Aggregation across repetitions, including in-process repetition rows.
    rep0 = parse_run_doc(_canned_run(
        [("s", 10.0, {"acc": 80.0}), ("s", 12.0, {"acc": 80.0})]))
    rep1 = parse_run_doc(_canned_run([("s", 14.0, {"acc": 80.0})]))
    binaries, scenarios = aggregate(
        {"bench_fake": ({"schema": RUN_SCHEMA}, [rep0, rep1])})
    _check(list(binaries) == ["bench_fake"], "context recorded per binary")
    _check(len(scenarios) == 1 and scenarios[0]["key"] == "bench_fake/s",
           "samples pool across repetitions under one key")
    _check(scenarios[0]["real_time"]["n"] == 3, "n counts all samples")
    _check(_approx(scenarios[0]["real_time"]["mean"], 12.0),
           "pooled mean")
    _check(_approx(scenarios[0]["counters"]["acc"]["stddev"], 0.0),
           "deterministic counter has zero variance")

    # Determinism: two binaries, scrambled insert order -> sorted output.
    _, scenarios = aggregate({
        "bench_z": ({}, [parse_run_doc(_canned_run([("n2", 1.0, {}),
                                                    ("n1", 1.0, {})]))]),
        "bench_a": ({}, [parse_run_doc(_canned_run([("m", 1.0, {})]))]),
    })
    _check([s["key"] for s in scenarios] ==
           ["bench_a/m", "bench_z/n1", "bench_z/n2"],
           "scenarios sorted by binary then name")

    # Report serialization round-trips and carries the schema tag.
    report = build_report("validate", "0.01x", 3, 0,
                          {"bench_fake": ({}, [rep0])}, [])
    _check(report["schema"] == REPORT_SCHEMA, "report schema tag")
    _check(json.loads(json.dumps(report)) == report,
           "report is JSON round-trippable")

    # The command line, over fake bench programs (two of the five files are
    # not bench programs: one is not executable, one has a dot in its name).
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "bench"))
        for name in ("bench_fake", "bench_gbench", "bench_broken",
                     "bench_data", "bench_notes.txt"):
            path = os.path.join(tmp, "bench", name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_FAKE_BENCH.format(python=sys.executable))
            os.chmod(path, 0o644 if name == "bench_data" else 0o755)
        out_path = os.path.join(tmp, "r.json")
        log_path = os.path.join(tmp, "r.log")

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                status = main(["--build-dir", tmp, "--out", out_path,
                               "--log", log_path] + list(argv))
            return status, out.getvalue()

        def read(path):
            with open(path, encoding="utf-8") as fh:
                return (json.load(fh) if path == out_path
                        else fh.read().splitlines())

        status, out = run("--list")
        _check(status == 0 and out.split() ==
               ["bench_broken", "bench_fake", "bench_gbench"],
               "--list names the executable bench_* files without a dot")
        status, _ = run("--profile", "metal", "--repetitions", "2",
                        "--warmup", "1", "--min-time", "0.5x",
                        "--filter", "PaperShape", "--exclude", "bench_broken")
        doc = read(out_path)
        _check(status == 0 and sorted(doc["binaries"]) ==
               ["bench_fake", "bench_gbench"], "--exclude skips a binary")
        _check([doc[k] for k in ("profile", "repetitions", "warmup",
                                 "min_time")] == ["metal", 2, 1, "0.5x"],
               "--repetitions, --warmup and --min-time override the profile")
        _check(read(log_path) == ["bench_fake 0.5x PaperShape"] * 3 +
               ["bench_gbench 0.5 PaperShape"] * 3,
               "--log: warmup + repetitions each run once with --filter, "
               "the x form retried in plain seconds")
        _check(doc["scenarios"][0]["real_time"]["n"] == 2,
               "warmup samples are discarded")
        status, _ = run("bench_fake")
        doc = read(out_path)
        _check(status == 0 and list(doc["binaries"]) == ["bench_fake"] and
               [doc[k] for k in ("profile", "repetitions", "warmup",
                                 "min_time")] == ["validate", 3, 0, "0.01x"],
               "named binaries run, under the validate profile by default")
        status, _ = run("--repetitions", "1", "bench_broken", "bench_fake")
        doc = read(out_path)
        _check(status == 1 and doc["failures"] == ["bench_broken"] and
               list(doc["binaries"]) == ["bench_fake"],
               "a failing binary is recorded and the others still run")
        _check(run("bench_missing")[0] == 2 and
               run("--exclude", "bench_fake", "bench_fake")[0] == 2,
               "an unknown binary or an empty selection exits 2")
        try:
            run("--repetitions", "0")
            raise AssertionError("--repetitions 0 should be rejected")
        except SystemExit as err:
            _check(err.code == 2, "--repetitions 0 is a usage error")

    _pairs_self_test()

    print("bench_runner self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
