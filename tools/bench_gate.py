#!/usr/bin/env python3
"""Noise-aware benchmark regression gate.

Compares a candidate ``bench_report.json`` (written by
``tools/bench_runner.py``, schema ``triclust-bench-report/1``) against a
baseline report from the same runner::

    python3 tools/bench_gate.py dispatched.json --baseline scalar.json \
        --threshold 300

A scenario REGRESSES only when both of these hold for its wall time:

1. the candidate mean exceeds the baseline mean by more than the threshold
   (``--threshold``, default 10%), AND
2. the confidence intervals separate: the candidate's 95% CI lower bound
   lies above the baseline's 95% CI upper bound.

Condition 2 is what makes the gate noise-aware — overlapping CIs mean the
difference is not statistically distinguishable at the chosen repetition
count, so no amount of threshold tuning should fail the build over it.
With single-sample reports the CIs are zero-width and the gate degrades to
a plain threshold comparison.

Hard failures regardless of thresholds: schema mismatch between the two
reports, a scenario present in the baseline but missing from the candidate
(a silently vanished benchmark is itself a regression), and binaries the
runner recorded as failed. Scenarios only in the candidate are reported as
notes.

Before the verdict the gate prints a wall-time table: for every scenario
in both reports, the baseline mean, the candidate mean and the speedup
(baseline / candidate, so > 1 means the candidate is faster), then the
geometric mean of the speedups. Gating a dispatched ``bench_kernels``
report against a ``TRICLUST_FORCE_SCALAR=1`` one therefore prints the
kernel-dispatch speedup table.

The gate exits 1 on any regression or hard failure, else 0.
``--self-test`` runs the built-in unit tests (registered with ctest as
``bench_gate_selftest``).
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

REPORT_SCHEMA = "triclust-bench-report/1"
DEFAULT_THRESHOLD_PCT = 10.0


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not JSON ({err})") from None
    schema = doc.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r}, expected {REPORT_SCHEMA!r} "
            "(regenerate with tools/bench_runner.py)")
    return doc


def scenarios_by_key(report):
    return {s["key"]: s for s in report.get("scenarios", [])}


def check_wall_time(base_stats, cand_stats, threshold_pct):
    """Applies the two-part rule. Returns (regressed, delta_pct, separated).

    delta_pct is the candidate mean's change relative to the baseline mean,
    positive when slower; against a zero baseline mean any slower candidate
    is an infinite change.
    """
    base_mean = base_stats["mean"]
    cand_mean = cand_stats["mean"]
    if base_mean > 0.0:
        delta_pct = (cand_mean / base_mean - 1.0) * 100.0
    else:
        delta_pct = math.inf if cand_mean > base_mean else 0.0
    beyond = cand_mean > base_mean * (1.0 + threshold_pct / 100.0)
    separated = (cand_mean - cand_stats.get("ci95_half", 0.0) >
                 base_mean + base_stats.get("ci95_half", 0.0))
    return beyond and separated, delta_pct, separated


def run_gate(baseline, candidate, threshold=DEFAULT_THRESHOLD_PCT):
    """Compares two reports. Returns (regressions, hard_failures, notes).

    regressions: [(label, message)] — threshold+CI violations.
    hard_failures: [(label, message)] — missing scenarios, failed binaries.
    notes: [str] — informational (new scenarios, CI-overlap saves).
    """
    base_by_key = scenarios_by_key(baseline)
    cand_by_key = scenarios_by_key(candidate)

    regressions = []
    hard_failures = []
    notes = []

    for binary in candidate.get("failures", []):
        hard_failures.append(
            (binary, "binary failed during the candidate run"))

    for key in sorted(base_by_key):
        if key not in cand_by_key:
            hard_failures.append(
                (key, "scenario in baseline but missing from candidate"))
            continue
        regressed, delta_pct, separated = check_wall_time(
            base_by_key[key]["real_time"], cand_by_key[key]["real_time"],
            threshold)
        if regressed:
            regressions.append(
                (key, f"real_time +{delta_pct:.1f}% "
                      f"(threshold {threshold:.1f}%, CIs separate)"))
        elif delta_pct > threshold and not separated:
            notes.append(
                f"{key}: real_time +{delta_pct:.1f}% but CIs overlap — "
                "not statistically distinguishable, not failing")

    for key in sorted(set(cand_by_key) - set(base_by_key)):
        notes.append(f"{key}: new scenario, not in baseline")

    return regressions, hard_failures, notes


def speedup_table(baseline, candidate):
    """Wall-time table over the scenarios both reports hold.

    Returns printable lines: a header, one row per shared scenario with the
    baseline mean, the candidate mean and the speedup (baseline / candidate)
    in key order, then the geometric mean of the speedups. A scenario with
    a zero mean has no speedup and is left out of the geomean. No shared
    scenario means no lines.
    """
    base_by_key = scenarios_by_key(baseline)
    cand_by_key = scenarios_by_key(candidate)
    shared = sorted(set(base_by_key) & set(cand_by_key))
    if not shared:
        return []
    width = max(len(key) for key in shared + ["scenario"])
    lines = [f"{'scenario':<{width}}  {'baseline ms':>12}  "
             f"{'candidate ms':>12}  {'speedup':>8}"]
    log_speedups = []
    for key in shared:
        base = base_by_key[key]["real_time"]["mean"]
        cand = cand_by_key[key]["real_time"]["mean"]
        speedup = "n/a"
        if base > 0.0 and cand > 0.0:
            log_speedups.append(math.log(base / cand))
            speedup = f"{base / cand:.2f}x"
        lines.append(f"{key:<{width}}  {base:>12.4g}  {cand:>12.4g}  "
                     f"{speedup:>8}")
    if log_speedups:
        geomean = math.exp(sum(log_speedups) / len(log_speedups))
        lines.append(f"{'geomean':<{width}}  {'':>12}  {'':>12}  "
                     f"{f'{geomean:.2f}x':>8}")
    return lines


def verdict_line(compared, regressions, hard_failures):
    verdict = "FAIL" if regressions or hard_failures else "PASS"
    return (f"[bench_gate] {verdict}: {compared} scenario(s) compared, "
            f"{regressions} regression(s), {hard_failures} hard failure(s)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate a benchmark report against a baseline report "
                    "(see docs/BENCHMARK.md).")
    parser.add_argument("report", nargs="?",
                        help="candidate bench_report.json")
    parser.add_argument("--baseline", default=None,
                        help="baseline bench_report.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD_PCT, metavar="PCT",
                        help="regression threshold in percent "
                             f"(default {DEFAULT_THRESHOLD_PCT:g})")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.report or not args.baseline:
        parser.error("report and --baseline are required "
                     "(unless --self-test)")

    try:
        candidate = load_report(args.report)
        baseline = load_report(args.baseline)
    except ValueError as err:
        # A report the gate cannot read fails it like any hard failure.
        print(f"[bench_gate] HARD FAILURE: {err}")
        print(verdict_line(0, 0, 1))
        return 1

    if baseline.get("profile") != candidate.get("profile"):
        print(f"[bench_gate] warning: comparing profile "
              f"{candidate.get('profile')!r} against baseline profile "
              f"{baseline.get('profile')!r}", file=sys.stderr)

    regressions, hard_failures, notes = run_gate(
        baseline, candidate, threshold=args.threshold)

    for line in speedup_table(baseline, candidate):
        print(line)
    for note in notes:
        print(f"[bench_gate] note: {note}")
    for label, message in hard_failures:
        print(f"[bench_gate] HARD FAILURE: {label}: {message}")
    for label, message in regressions:
        print(f"[bench_gate] REGRESSION: {label}: {message}")

    print(verdict_line(len(scenarios_by_key(baseline)), len(regressions),
                       len(hard_failures)))
    return 1 if regressions or hard_failures else 0


# --------------------------------------------------------------------------
# Self-test.

def _check(condition, label):
    if not condition:
        raise AssertionError(label)
    print(f"  ok: {label}")


def _report(scenarios, failures=(), profile="validate"):
    return {
        "schema": REPORT_SCHEMA,
        "profile": profile,
        "min_time": "0.01x",
        "repetitions": 3,
        "warmup": 0,
        "binaries": {},
        "failures": list(failures),
        "scenarios": scenarios,
    }


def _scenario(key, mean, ci=0.0):
    binary, _, name = key.partition("/")
    stats = {"mean": mean, "stddev": ci, "min": mean - ci, "max": mean + ci,
             "ci95_half": ci, "n": 3}
    return {"binary": binary, "name": name, "key": key, "time_unit": "ms",
            "real_time": stats, "counters": {}}


def self_test():
    print("bench_gate self-test")

    base = _report([_scenario("b/s", 100.0, ci=5.0)])
    # Clear regression: +50%, CIs separate.
    r, h, _ = run_gate(base, _report([_scenario("b/s", 150.0, ci=5.0)]))
    _check(len(r) == 1 and not h, "mean +50% with separated CIs fails")

    # Over threshold but CIs overlap -> noise, passes with a note.
    r, h, notes = run_gate(
        base, _report([_scenario("b/s", 115.0, ci=20.0)]))
    _check(not r and any("CIs overlap" in n for n in notes),
           "CI overlap suppresses a nominal +15%")

    # Under threshold but separated -> passes (both conditions required).
    r, _, _ = run_gate(base, _report([_scenario("b/s", 107.0, ci=0.5)]))
    _check(not r, "+7% under the 10% threshold passes even when separated")

    # Zero-CI reports degrade to the plain threshold rule.
    base0 = _report([_scenario("b/s", 100.0)])
    r, _, _ = run_gate(base0, _report([_scenario("b/s", 111.0)]))
    _check(len(r) == 1, "n=1 zero-width CIs: +11% fails the 10% threshold")
    r, _, _ = run_gate(base0, _report([_scenario("b/s", 109.0)]))
    _check(not r, "n=1 zero-width CIs: +9% passes")

    # Speedups never fail; a zero baseline mean does not divide by zero.
    r, _, _ = run_gate(base, _report([_scenario("b/s", 50.0, ci=1.0)]))
    _check(not r, "a speedup passes")
    r, _, _ = run_gate(_report([_scenario("b/s", 0.0)]),
                       _report([_scenario("b/s", 1.0)]))
    _check(len(r) == 1, "any slowdown from a zero mean fails")

    # Missing scenario is a hard failure; new scenario is a note.
    r, h, notes = run_gate(base, _report([_scenario("b/other", 1.0)]))
    _check(len(h) == 1 and "missing" in h[0][1], "missing scenario is hard")
    _check(any("new scenario" in n for n in notes), "new scenario is a note")

    # The table lists every shared scenario in key order, then the geomean.
    table = speedup_table(
        _report([_scenario("b/slow", 100.0), _scenario("b/fast", 100.0),
                 _scenario("b/gone", 1.0), _scenario("b/zero", 0.0)]),
        _report([_scenario("b/slow", 200.0), _scenario("b/fast", 50.0),
                 _scenario("b/new", 1.0), _scenario("b/zero", 1.0)]))
    _check(len(table) == 5, "table: header, 3 shared scenarios, geomean")
    _check(table[1].split() == ["b/fast", "100", "50", "2.00x"],
           "table row: baseline mean, candidate mean, speedup")
    _check(table[2].split() == ["b/slow", "100", "200", "0.50x"],
           "table row of a slowdown")
    _check(table[3].split() == ["b/zero", "0", "1", "n/a"],
           "a zero mean has no speedup")
    _check(table[4].split() == ["geomean", "1.00x"],
           "geomean of 2x and 0.5x is 1x, zero mean left out")
    _check(speedup_table(base, _report([_scenario("b/other", 1.0)])) == [],
           "no shared scenario, no table")

    # The command line: exit status, --baseline and --threshold. A runner
    # recorded failure, like a schema mismatch, fails at any threshold.
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (
                ("base", base0), ("slow", _report([_scenario("b/s", 1e3)])),
                ("broken", _report([_scenario("b/s", 100.0)],
                                   failures=["bench_broken"])),
                ("bad", {"schema": "something-else/9"})):
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        def gate(candidate, *flags):
            argv = [paths[candidate], "--baseline", paths["base"], *flags]
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()):
                return main(argv), out.getvalue()

        status, out = gate("base")
        _check(status == 0 and "PASS: 1 scenario(s)" in out,
               "a report gated against itself exits 0")
        status, out = gate("slow")
        _check(status == 1 and "REGRESSION: b/s" in out,
               "a 10x slowdown exits 1")
        _check(gate("slow", "--threshold", "1000")[0] == 0,
               "--threshold 1000 lets a 10x slowdown pass")
        status, out = gate("broken", "--threshold", "1000")
        _check(status == 1 and "HARD FAILURE: bench_broken" in out,
               "a failed binary exits 1 at any threshold")
        status, out = gate("bad")
        _check(status == 1 and
               f"HARD FAILURE: {paths['bad']}: schema" in out and
               "FAIL: 0 scenario(s) compared" in out,
               "a wrong-schema report exits 1 with a hard failure")

    print("bench_gate self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
