#ifndef TRICLUST_SRC_EVAL_METHOD_RUNNER_H_
#define TRICLUST_SRC_EVAL_METHOD_RUNNER_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/data/scenario.h"
#include "src/eval/timeline_eval.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/replay.h"
#include "src/util/status.h"

namespace triclust {

/// Multi-method scenario runner: replays one adversarial scenario
/// (src/data/scenario.h) through the serving stack for the online
/// tri-cluster solver AND the baseline methods, producing the
/// method-comparison timelines the paper's figures plot — per-day
/// accuracy of every method over the same hostile stream.
///
/// The tri-cluster method runs exactly like production: author-disjoint
/// streams through a CampaignEngine via ReplayDriver (churn events
/// applied by the day hook), scored by TimelineEvaluator. Baselines run
/// per day on the pooled day snapshot (all campaigns' traffic together,
/// which only favors them — they see more signal than any single
/// campaign): lexvote is the zero-shot lexicon vote, lp10 propagates a
/// 10% label seed over the lexical bipartite graph, userreg10 is the
/// user-regularized classifier with the same seed. Seeds are fixed per
/// day, so every run of a scenario is bit-identical.

/// One method's timeline: one score per replay day (NaN metrics when the
/// day scored nothing) and their run aggregate, whose accuracies are
/// fractions of all scored items.
struct MethodTimeline {
  std::string method;
  std::vector<SnapshotScore> days;
  TimelineAggregate totals;
};

/// Everything one scenario run produced: the per-method timelines, the
/// tri-cluster replay's annotated stats, and the fleet's final health.
struct ScenarioRun {
  std::string scenario;
  std::vector<MethodTimeline> methods;
  serving::ReplayStats replay;
  /// The day horizon the tri-cluster replay walked (ReplayDriver::num_days
  /// at launch; 0 when triclust was not run).
  int replay_horizon_days = 0;
  serving::EngineHealthReport final_health;
  /// Run aggregate of the tri-cluster method (TimelineEvaluator).
  TimelineAggregate triclust_aggregate;

  /// The timeline of `method`, or nullptr when it was not run.
  const MethodTimeline* FindMethod(const std::string& method) const;
};

/// Knobs of one scenario run.
struct MethodRunnerOptions {
  /// Methods to run, from {"triclust", "lexvote", "lp10", "userreg10"}.
  /// "triclust" must be present for expectation checks to be meaningful.
  std::vector<std::string> methods = {"triclust", "lexvote", "lp10",
                                      "userreg10"};
  /// Solver iterations per snapshot (kept modest: scenarios are about
  /// robustness shape, not squeezing the last accuracy point). The
  /// scenario expectation floors are calibrated at this default.
  int max_iterations = 30;
  /// Engine thread budget (results are bit-identical at every width).
  int num_threads = 1;
  /// Seed-label fraction of the semi-supervised baselines.
  double seed_fraction = 0.10;
};

/// Runs `scenario` end to end. InvalidArgument on an unknown method name.
Result<ScenarioRun> RunScenario(const Scenario& scenario,
                                const MethodRunnerOptions& options = {});

/// Outcome of checking a run against its scenario's expectation record.
struct ExpectationReport {
  /// Human-readable description of every expectation that failed.
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

/// Checks the run against `scenario.expect` (accuracy floors on the
/// tri-cluster aggregate, fleet-health limits, day/traffic shape).
ExpectationReport CheckExpectations(const Scenario& scenario,
                                    const ScenarioRun& run);

/// Writes the plot-ready method-comparison CSV: header
/// "scenario,method,day,tweets_scored,tweet_accuracy,tweet_nmi,
/// users_scored,user_accuracy,user_nmi", one row per (method, day); NaN
/// metrics are empty fields. Day -1 rows carry each method's run
/// aggregate.
void WriteMethodComparisonCsv(const ScenarioRun& run, std::ostream& os);

/// Atomic-file variant of WriteMethodComparisonCsv.
Status WriteMethodComparisonCsvFile(const ScenarioRun& run,
                                    const std::string& path);

}  // namespace triclust

#endif  // TRICLUST_SRC_EVAL_METHOD_RUNNER_H_
