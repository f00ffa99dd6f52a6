"""Summary statistics and metrics of the repository benchmark.

perfbench_run writes raw samples, spans and counters; this module turns
them into the end-to-end metrics (untraced run) or the per-layer metrics
(traced run), and applies the correctness gate and the two sum checks.
Everything here is plain Python so test_summary.py can check it on canned
samples.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it: p90 needs 100 samples, p99 needs 1,000.
MIN_SAMPLES_BEYOND = 10

# Sum check 1: an interval's child spans (ingest + advance + save + observe,
# or an offline cell's run + observe) must cover its wall time to within
# this share, summed over the traced pass. The gap is the benchmark's own
# loop between the calls.
INTERVAL_SUM_TOLERANCE = 0.01

# Sum check 2: per-call layer times x call counts (the parts) plus the
# residual must add up to the engine-reported fit time. The residual is
# what the parts leave over, so the check is that it is not negative: the
# parts may exceed the summed fit time by at most this share. The probes
# re-time each call outside the fit, so single fits scatter around their
# measured time; only a systematic over-attribution fails.
FIT_SUM_TOLERANCE = 0.10

RULES = ("update_sp", "update_hp", "update_su", "update_hu", "update_sf")

END_TO_END = (
    ("tweets_per_s", "tweets/s"),
    ("advance_p50_ms", "ms"),
    ("advance_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tweet_accuracy", "fraction"),
    ("user_accuracy", "fraction"),
)

PER_LAYER = (
    ("util.parallel_for_us", "us"),
    ("util.os_threads", "count"),
    ("util.ctx_switches_per_fit", "count"),
    ("util.sys_cpu_share", "fraction"),
    ("core.objective_ms", "ms"),
    ("core.objective_share", "fraction"),
    ("core.iterations_per_fit", "count"),
    ("core.converged_share", "fraction"),
    ("matrix.trifactor_loss_ms", "ms"),
    ("core.update_sp_ms", "ms"),
    ("core.update_hp_ms", "ms"),
    ("core.update_su_ms", "ms"),
    ("core.update_hu_ms", "ms"),
    ("core.update_sf_ms", "ms"),
    ("matrix.spmm_ms", "ms"),
    ("core.fit_residual_ms", "ms"),
    ("serving.fit_p50_ms", "ms"),
    ("serving.fit_p99_ms", "ms"),
    ("serving.campaign_tier_efficiency", "fraction"),
    ("serving.save_ms", "ms"),
    ("serving.checkpoint_kb", "KB"),
    ("serving.ingest_us_per_tweet", "us"),
    ("data.emit_ms", "ms"),
    ("data.rows_per_fit", "count"),
    ("serving.add_campaign_ms", "ms"),
    ("data.read_tsv_ms", "ms"),
    ("data.vocab_fit_ms", "ms"),
    ("eval.observe_ms", "ms"),
    ("trace.tweets_per_s_delta", "tweets/s"),
    ("check.interval_sum_error", "fraction"),
    ("check.fit_attributed_share", "fraction"),
)


class SummaryError(ValueError):
    """A statistic the samples cannot support."""


def median(values):
    if not values:
        raise SummaryError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise SummaryError("quartiles need at least 2 samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def samples_beyond(n, pct):
    """Samples above the nearest-rank pct-th percentile of n samples."""
    return n - math.ceil(pct / 100.0 * n)


def percentile(values, pct):
    """Nearest-rank percentile, refused unless MIN_SAMPLES_BEYOND samples
    lie beyond it (so p90 needs 100 samples)."""
    n = len(values)
    if n == 0 or samples_beyond(n, pct) < MIN_SAMPLES_BEYOND:
        raise SummaryError(
            f"p{pct:g} of {n} samples has fewer than "
            f"{MIN_SAMPLES_BEYOND} samples beyond it")
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted(values)[rank - 1]


def highest_percentile(values, candidates=(99.0, 90.0, 50.0)):
    """(pct, value) for the highest candidate percentile the samples
    support."""
    for pct in candidates:
        if samples_beyond(len(values), pct) >= MIN_SAMPLES_BEYOND:
            return pct, percentile(values, pct)
    raise SummaryError(f"{len(values)} samples support no percentile")


def failed_share(failed, attempted):
    """fits_failed as a share of fits_attempted."""
    if attempted < 1:
        raise SummaryError("no fits attempted")
    if failed < 0 or failed > attempted:
        raise SummaryError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _pooled(passes, key):
    return [v for p in passes for v in p[key]]


def _accuracy_errors(passes):
    errors = []
    for name in ("tweet_accuracy", "user_accuracy"):
        values = [p[name] for p in passes]
        if any(v is None or not math.isfinite(v) for v in values):
            errors.append(f"{name} is NaN")
        elif len(set(values)) > 1:
            # The library is bit-identical at every width, so every pass
            # over the same inputs must score the same.
            errors.append(f"{name} differs between passes: {values}")
    return errors


def gate(raw):
    """Correctness-gate failures of a raw run (empty when it passed)."""
    passes = raw["passes"]
    errors = [e for p in passes for e in p["errors"]]
    errors += _accuracy_errors(passes)
    return errors


def end_to_end(raw):
    """End-to-end metrics of an untraced run, name -> value."""
    # Per-pass values, then the median over passes: a pass slowed by
    # another tenant of the machine moves the result only when it is the
    # majority.
    passes = [p for p in raw["passes"] if not p["traced"]]
    setups = _pooled(passes, "setups")
    return {
        "tweets_per_s": median(
            [p["tweets"] / (sum(p["interval_ms"]) / 1e3) for p in passes]),
        "advance_p50_ms": median(
            [median(p["advance_ms"]) for p in passes]),
        "advance_p90_ms": median(
            [percentile(p["advance_ms"], 90) for p in passes]),
        "setup_s": median([setup_seconds(s) for s in setups]),
        "peak_rss_mb": raw["counters"]["max_rss_kb"] / 1024.0,
        "tweet_accuracy": passes[0]["tweet_accuracy"],
        "user_accuracy": passes[0]["user_accuracy"],
    }


def setup_seconds(setup):
    return (setup["read_tsv_ms"] + setup["vocab_fit_ms"] + setup["prior_ms"]
            + setup["register_ms"]) / 1e3


def fit_parts(probe):
    """Per-fit attribution: rules x iterations, objective x (iterations +
    1) — the solvers evaluate the objective once before the loop and once
    per iteration — and the snapshot emit (online)."""
    calls = probe["calls"]
    iterations = probe["iterations"]
    rules = sum(calls[r] for r in RULES) * iterations
    objective = calls["objective"] * (iterations + 1) if iterations else 0.0
    return rules, objective, probe["emit_ms"]


def interval_sum_error(passes):
    """Uncovered share of the intervals' wall time, over the traced passes:
    |sum of interval walls - sum of their direct children| / sum of walls.
    Span parents index into their own pass's span list."""
    walls = 0.0
    children = 0.0
    for p in passes:
        spans = p["spans"]
        for name, _start, _end, dur, parent, _interval in spans:
            if name == "interval":
                walls += dur
            elif parent >= 0 and spans[int(parent)][0] == "interval":
                children += dur
    if walls <= 0.0:
        raise SummaryError("no interval spans")
    return abs(walls - children) / walls


def fit_attribution(probes):
    """(sum of parts / sum of fit times, residual total in ms): the share of
    the measured fit time the probed calls account for, and the rest."""
    solve = sum(probe["solve_ms"] for probe in probes)
    parts = sum(sum(fit_parts(probe)) for probe in probes)
    if solve <= 0.0:
        raise SummaryError("no fitted snapshots")
    return parts / solve, solve - parts


def _weighted_call_ms(probes, name, calls_of):
    total = sum(p["calls"][name] * calls_of(p) for p in probes)
    count = sum(calls_of(p) for p in probes)
    return total / count if count else 0.0


def per_layer(raw):
    """Per-layer metrics of a traced run (name -> value), plus the notes
    that explain a substituted percentile and the sum-check failures."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    probes = [f for p in traced for f in p["probes"]]
    spans = [s for p in traced for s in p["spans"]]
    notes = []
    errors = []
    metrics = {}

    fits = len(probes)
    metrics["util.parallel_for_us"] = _mean(
        [f["calls"]["parallel_for_us"] for f in probes])
    metrics["util.os_threads"] = max(p["os_threads"] for p in traced)
    ctx = sum(p["voluntary_ctx"] + p["involuntary_ctx"] for p in traced)
    metrics["util.ctx_switches_per_fit"] = ctx / fits
    cpu = sum(p["user_cpu_s"] + p["sys_cpu_s"] for p in traced)
    metrics["util.sys_cpu_share"] = sum(p["sys_cpu_s"] for p in traced) / cpu

    def by_iterations(fit):
        return fit["iterations"]

    def by_objective(fit):
        return fit["iterations"] + 1 if fit["iterations"] else 0

    rules_ms = sum(fit_parts(f)[0] for f in probes)
    objective_ms = sum(fit_parts(f)[1] for f in probes)
    metrics["core.objective_ms"] = _weighted_call_ms(
        probes, "objective", by_objective)
    metrics["core.objective_share"] = objective_ms / (rules_ms + objective_ms)
    metrics["core.iterations_per_fit"] = _mean(
        [f["iterations"] for f in probes])
    metrics["core.converged_share"] = (
        sum(p["converged"] for p in traced) / sum(p["fits_attempted"]
                                                  for p in traced))
    metrics["matrix.trifactor_loss_ms"] = _mean(
        [f["calls"]["trifactor_loss"] for f in probes])
    for rule in RULES:
        metrics[f"core.{rule}_ms"] = _weighted_call_ms(
            probes, rule, by_iterations)
    metrics["matrix.spmm_ms"] = _mean([f["calls"]["spmm"] for f in probes])

    attributed, residual_ms = fit_attribution(probes)
    metrics["core.fit_residual_ms"] = residual_ms / fits
    metrics["check.fit_attributed_share"] = attributed
    if attributed > 1.0 + FIT_SUM_TOLERANCE:
        errors.append(f"fit sum check: the probed parts add up to "
                      f"{attributed:.3f} of the fit time, more than "
                      f"1 + {FIT_SUM_TOLERANCE}")
    interval_error = interval_sum_error(traced)
    metrics["check.interval_sum_error"] = interval_error
    if interval_error > INTERVAL_SUM_TOLERANCE:
        errors.append(f"interval sum check: child spans miss the interval "
                      f"wall time by {interval_error:.4f} > "
                      f"{INTERVAL_SUM_TOLERANCE}")

    solve = _pooled(raw["passes"], "solve_ms")
    metrics["serving.fit_p50_ms"] = median(solve)
    pct, value = highest_percentile(solve)
    metrics["serving.fit_p99_ms"] = value
    if pct != 99.0:
        notes.append(f"serving.fit_p99_ms reports p{pct:g}: {len(solve)} "
                     f"fits support no p99")
    advance = sum(sum(p["advance_ms"]) for p in traced)
    width = traced[0]["width"]
    metrics["serving.campaign_tier_efficiency"] = (
        sum(f["solve_ms"] for f in probes) / (advance * width))

    def span_ms(name):
        return [s[3] / 1e3 for s in spans if s[0] == name]

    metrics["serving.save_ms"] = _mean(_pooled(traced, "save_ms"))
    metrics["serving.checkpoint_kb"] = _mean(_pooled(traced, "checkpoint_kb"))
    metrics["serving.ingest_us_per_tweet"] = (
        sum(span_ms("ingest")) * 1e3 / sum(p["ingested"] for p in traced))
    metrics["data.emit_ms"] = _mean(_pooled(traced, "emit_ms"))
    metrics["data.rows_per_fit"] = _mean([f["rows"] for f in probes])
    setups = _pooled(raw["passes"], "setups")
    metrics["serving.add_campaign_ms"] = _mean(
        [ms for s in setups for ms in s["add_campaign_ms"]])
    metrics["data.read_tsv_ms"] = median([s["read_tsv_ms"] for s in setups])
    metrics["data.vocab_fit_ms"] = median([s["vocab_fit_ms"] for s in setups])
    metrics["eval.observe_ms"] = _mean(span_ms("observe"))

    def tweets_per_s(ps):
        return sum(p["tweets"] for p in ps) / (
            sum(sum(p["interval_ms"]) for p in ps) / 1e3)

    metrics["trace.tweets_per_s_delta"] = (
        tweets_per_s(traced) - tweets_per_s(untraced))
    return metrics, notes, errors
