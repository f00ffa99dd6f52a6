#!/usr/bin/env python3
"""Noise-aware benchmark regression gate.

Compares a candidate ``bench_report.json`` (written by
``tools/bench_runner.py``, schema ``triclust-bench-report/1``) against a
checked-in baseline report::

    python3 tools/bench_gate.py bench_report.json \
        --baseline bench/baselines/validate.json

A scenario REGRESSES only when both of these hold for its wall time:

1. the candidate mean exceeds the baseline mean by more than the threshold
   (default 10%, configurable globally and per scenario), AND
2. the confidence intervals separate: the candidate's 95% CI lower bound
   lies above the baseline's 95% CI upper bound.

Condition 2 is what makes the gate noise-aware — overlapping CIs mean the
difference is not statistically distinguishable at the chosen repetition
count, so no amount of threshold tuning should fail the build over it.
With single-sample reports the CIs are zero-width and the gate degrades to
a plain threshold comparison.

The baseline file is a full runner report plus an optional top-level
``gate`` block::

    "gate": {
      "threshold_pct": 10,
      "overrides": {"bench_serving/serving/...": {"threshold_pct": 25}},
      "counter_gates": [
        {"key": "bench_table4_tweet_level/table4/tweet_level/triclust",
         "counter": "accuracy_prop30_pct",
         "direction": "higher", "threshold_pct": 5}
      ]
    }

``counter_gates`` extend the gate to quality counters: ``direction`` says
which way is good (``higher`` for accuracies, ``lower`` for costs). The
same two-part rule applies with the inequalities flipped as needed.

Hard failures regardless of thresholds: schema mismatch between the two
reports, a scenario present in the baseline but missing from the candidate
(a silently vanished benchmark is itself a regression), and binaries the
runner recorded as failed. Scenarios only in the candidate are reported as
notes — refresh the baseline to start tracking them.

Before the verdict the gate prints a wall-time table: for every scenario
in both reports, the baseline mean, the candidate mean and the speedup
(baseline / candidate, so > 1 means the candidate is faster), then the
geometric mean of the speedups. Gating a dispatched ``bench_kernels``
report against a ``TRICLUST_FORCE_SCALAR=1`` one therefore prints the
kernel-dispatch speedup table.

``--mode advisory`` prints the full verdict but always exits 0 — this is
what CI uses on shared runners, where machine-to-machine variance makes a
frozen wall-time baseline unenforceable. ``--mode enforcing`` (default)
exits 1 on any regression. ``--update-baseline`` rewrites the baseline
file from the candidate report, preserving the existing ``gate`` block.

``--self-test`` runs the built-in unit tests (registered with ctest as
``bench_gate_selftest``).
"""

import argparse
import copy
import json
import math
import sys

REPORT_SCHEMA = "triclust-bench-report/1"
DEFAULT_THRESHOLD_PCT = 10.0


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r}, expected {REPORT_SCHEMA!r} "
            "(regenerate with tools/bench_runner.py)")
    return doc


def scenarios_by_key(report):
    return {s["key"]: s for s in report.get("scenarios", [])}


def ci_bounds(stats):
    half = stats.get("ci95_half", 0.0)
    return stats["mean"] - half, stats["mean"] + half


def check_metric(base_stats, cand_stats, threshold_pct, direction="lower"):
    """Applies the two-part rule. Returns (regressed, delta_pct, separated).

    ``direction`` is the good direction for the metric: "lower" (times,
    costs) or "higher" (accuracies). delta_pct is the candidate's change
    relative to the baseline mean, signed so that positive = worse.
    """
    base_mean = base_stats["mean"]
    cand_mean = cand_stats["mean"]
    base_low, base_high = ci_bounds(base_stats)
    cand_low, cand_high = ci_bounds(cand_stats)
    if base_mean == 0.0:
        # Zero baseline (e.g. a deterministic zero counter): any nonzero
        # candidate in the bad direction is an infinite relative change;
        # fall back to CI separation alone.
        worse = cand_mean > 0.0 if direction == "lower" else cand_mean < 0.0
        separated = (cand_low > base_high if direction == "lower"
                     else cand_high < base_low)
        return worse and separated, float("inf") if worse else 0.0, separated
    if direction == "lower":
        delta_pct = (cand_mean / base_mean - 1.0) * 100.0
        beyond = cand_mean > base_mean * (1.0 + threshold_pct / 100.0)
        separated = cand_low > base_high
    else:
        delta_pct = (1.0 - cand_mean / base_mean) * 100.0
        beyond = cand_mean < base_mean * (1.0 - threshold_pct / 100.0)
        separated = cand_high < base_low
    return beyond and separated, delta_pct, separated


def run_gate(baseline, candidate, default_threshold=None):
    """Compares two reports. Returns (regressions, hard_failures, notes).

    regressions: [(label, message)] — threshold+CI violations.
    hard_failures: [(label, message)] — missing scenarios, failed binaries.
    notes: [str] — informational (new scenarios, CI-overlap saves).
    """
    gate_cfg = baseline.get("gate", {})
    threshold = default_threshold if default_threshold is not None \
        else float(gate_cfg.get("threshold_pct", DEFAULT_THRESHOLD_PCT))
    overrides = gate_cfg.get("overrides", {})

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
        scenario_threshold = float(
            overrides.get(key, {}).get("threshold_pct", threshold))
        regressed, delta_pct, separated = check_metric(
            base_by_key[key]["real_time"], cand_by_key[key]["real_time"],
            scenario_threshold, direction="lower")
        if regressed:
            regressions.append(
                (key, f"real_time +{delta_pct:.1f}% "
                      f"(threshold {scenario_threshold:.1f}%, CIs separate)"))
        elif delta_pct > scenario_threshold and not separated:
            notes.append(
                f"{key}: real_time +{delta_pct:.1f}% but CIs overlap — "
                "not statistically distinguishable, not failing")

    for gate in gate_cfg.get("counter_gates", []):
        key = gate["key"]
        counter = gate["counter"]
        direction = gate.get("direction", "lower")
        gate_threshold = float(gate.get("threshold_pct", threshold))
        label = f"{key}#{counter}"
        base_scenario = base_by_key.get(key)
        cand_scenario = cand_by_key.get(key)
        if base_scenario is None:
            hard_failures.append(
                (label, "counter gate references a key absent from the "
                        "baseline report"))
            continue
        if cand_scenario is None:
            continue  # already a hard failure above
        base_stats = base_scenario.get("counters", {}).get(counter)
        cand_stats = cand_scenario.get("counters", {}).get(counter)
        if base_stats is None or cand_stats is None:
            hard_failures.append(
                (label, "gated counter missing from "
                        + ("baseline" if base_stats is None else "candidate")))
            continue
        regressed, delta_pct, _ = check_metric(
            base_stats, cand_stats, gate_threshold, direction=direction)
        if regressed:
            worse_word = "dropped" if direction == "higher" else "rose"
            regressions.append(
                (label, f"{worse_word} {delta_pct:.1f}% "
                        f"(threshold {gate_threshold:.1f}%, CIs separate)"))

    for key in sorted(set(cand_by_key) - set(base_by_key)):
        notes.append(f"{key}: new scenario, not in baseline "
                     "(refresh with --update-baseline to track it)")

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


def update_baseline(baseline_path, candidate):
    """Writes the candidate as the new baseline, keeping the gate block."""
    gate_cfg = None
    try:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            gate_cfg = json.load(fh).get("gate")
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    doc = copy.deepcopy(candidate)
    if gate_cfg is not None:
        doc["gate"] = gate_cfg
    with open(baseline_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description="Gate a benchmark report against a frozen baseline "
                    "(see docs/BENCHMARK.md).")
    parser.add_argument("report", nargs="?",
                        help="candidate bench_report.json")
    parser.add_argument("--baseline", default=None,
                        help="baseline report (e.g. "
                             "bench/baselines/validate.json)")
    parser.add_argument("--threshold", type=float, default=None, metavar="PCT",
                        help="override the global regression threshold")
    parser.add_argument("--mode", choices=("enforcing", "advisory"),
                        default="enforcing",
                        help="advisory prints the verdict but exits 0")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the candidate "
                             "report, preserving its gate block")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.report or not args.baseline:
        parser.error("report and --baseline are required "
                     "(unless --self-test)")

    candidate = load_report(args.report)
    if args.update_baseline:
        update_baseline(args.baseline, candidate)
        print(f"[bench_gate] baseline {args.baseline} updated from "
              f"{args.report}")
        return 0
    baseline = load_report(args.baseline)

    if baseline.get("profile") != candidate.get("profile"):
        print(f"[bench_gate] warning: comparing profile "
              f"{candidate.get('profile')!r} against baseline profile "
              f"{baseline.get('profile')!r}", file=sys.stderr)

    regressions, hard_failures, notes = run_gate(
        baseline, candidate, default_threshold=args.threshold)

    for line in speedup_table(baseline, candidate):
        print(line)
    for note in notes:
        print(f"[bench_gate] note: {note}")
    for label, message in hard_failures:
        print(f"[bench_gate] HARD FAILURE: {label}: {message}")
    for label, message in regressions:
        print(f"[bench_gate] REGRESSION: {label}: {message}")

    failed = bool(regressions or hard_failures)
    compared = len(scenarios_by_key(baseline))
    verdict = "FAIL" if failed else "PASS"
    print(f"[bench_gate] {verdict}: {compared} scenario(s) compared, "
          f"{len(regressions)} regression(s), "
          f"{len(hard_failures)} hard failure(s) [mode={args.mode}]")
    if failed and args.mode == "advisory":
        print("[bench_gate] advisory mode: not failing the build")
        return 0
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Self-test.

def _check(condition, label):
    if not condition:
        raise AssertionError(label)
    print(f"  ok: {label}")


def _report(scenarios, failures=(), gate=None, profile="validate"):
    doc = {
        "schema": REPORT_SCHEMA,
        "profile": profile,
        "min_time": "0.01x",
        "repetitions": 3,
        "warmup": 0,
        "binaries": {},
        "failures": list(failures),
        "scenarios": scenarios,
    }
    if gate is not None:
        doc["gate"] = gate
    return doc


def _scenario(key, mean, ci=0.0, counters=None):
    binary, _, name = key.partition("/")
    stats = {"mean": mean, "stddev": ci, "min": mean - ci, "max": mean + ci,
             "ci95_half": ci, "n": 3}
    return {
        "binary": binary, "name": name, "key": key, "time_unit": "ms",
        "real_time": stats,
        "counters": {
            k: {"mean": v, "stddev": c, "min": v - c, "max": v + c,
                "ci95_half": c, "n": 3}
            for k, (v, c) in (counters or {}).items()
        },
    }


def self_test():
    print("bench_gate self-test")

    base = _report([_scenario("b/s", 100.0, ci=5.0)])
    # Identical candidate passes.
    r, h, _ = run_gate(base, _report([_scenario("b/s", 100.0, ci=5.0)]))
    _check(not r and not h, "identical report passes")

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

    # Speedups never fail.
    r, _, _ = run_gate(base, _report([_scenario("b/s", 50.0, ci=1.0)]))
    _check(not r, "a speedup passes")

    # Missing scenario is a hard failure; new scenario is a note.
    r, h, notes = run_gate(base, _report([_scenario("b/other", 1.0)]))
    _check(len(h) == 1 and "missing" in h[0][1], "missing scenario is hard")
    _check(any("new scenario" in n for n in notes), "new scenario is a note")

    # Failed binaries recorded by the runner are hard failures.
    _, h, _ = run_gate(base, _report([_scenario("b/s", 100.0, ci=5.0)],
                                     failures=["bench_broken"]))
    _check(len(h) == 1, "runner-recorded binary failure is hard")

    # Per-scenario override loosens the global threshold.
    base_ov = _report(
        [_scenario("b/s", 100.0, ci=1.0)],
        gate={"threshold_pct": 10,
              "overrides": {"b/s": {"threshold_pct": 60}}})
    r, _, _ = run_gate(base_ov, _report([_scenario("b/s", 150.0, ci=1.0)]))
    _check(not r, "per-scenario override to 60% lets +50% pass")
    r, _, _ = run_gate(base_ov, _report([_scenario("b/s", 170.0, ci=1.0)]))
    _check(len(r) == 1, "override still fails beyond its own threshold")

    # Counter gate, direction=higher (accuracy must not drop).
    gate = {"threshold_pct": 10,
            "counter_gates": [{"key": "b/s", "counter": "acc_pct",
                               "direction": "higher", "threshold_pct": 5}]}
    base_c = _report([_scenario("b/s", 100.0, ci=1.0,
                                counters={"acc_pct": (80.0, 1.0)})],
                     gate=gate)
    r, _, _ = run_gate(base_c, _report(
        [_scenario("b/s", 100.0, ci=1.0, counters={"acc_pct": (70.0, 1.0)})]))
    _check(len(r) == 1 and "acc_pct" in r[0][0],
           "accuracy drop beyond 5% with separated CIs fails")
    r, _, _ = run_gate(base_c, _report(
        [_scenario("b/s", 100.0, ci=1.0, counters={"acc_pct": (79.0, 1.0)})]))
    _check(not r, "accuracy wobble within threshold passes")
    _, h, _ = run_gate(base_c, _report(
        [_scenario("b/s", 100.0, ci=1.0)]))
    _check(any("gated counter missing" in m for _, m in h),
           "vanished gated counter is a hard failure")

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

    # Schema mismatch refuses to load.
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump({"schema": "something-else/9", "scenarios": []}, fh)
        try:
            load_report(bad)
            raise AssertionError("schema mismatch should raise")
        except ValueError:
            print("  ok: schema mismatch raises ValueError")

        # --update-baseline preserves the gate block.
        baseline_path = os.path.join(tmp, "baseline.json")
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(base_c, fh)
        update_baseline(baseline_path,
                        _report([_scenario("b/s", 42.0, ci=1.0)]))
        with open(baseline_path, encoding="utf-8") as fh:
            updated = json.load(fh)
        _check(updated["gate"] == gate, "update-baseline keeps gate block")
        _check(updated["scenarios"][0]["real_time"]["mean"] == 42.0,
               "update-baseline takes candidate stats")

    print("bench_gate self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
