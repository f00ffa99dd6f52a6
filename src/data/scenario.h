#ifndef TRICLUST_SRC_DATA_SCENARIO_H_
#define TRICLUST_SRC_DATA_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/synthetic.h"
#include "src/util/status.h"

namespace triclust {

/// Adversarial scenario suite: named hostile workloads for the serving
/// stack, each a composition of SyntheticConfig knobs plus a
/// machine-readable expectation record.
///
/// A scenario answers "what should the system do under this attack" in a
/// form CI can check: the corpus is seeded (bit-identical per scenario
/// name and scale), and the expectations are floors/limits with generous
/// margins below the observed seeded values — they catch regressions in
/// robustness (a quarantine storm, an accuracy collapse), not run-to-run
/// noise, of which there is none.
///
/// The catalog (GetScenario / AllScenarios):
///   spam_botnet    — a bot fleet floods the matrix with high-polarity
///                    unlabeled spam; genuine accuracy must hold and no
///                    campaign may be quarantined by the flood.
///   topic_hijack   — the polar vocabulary swaps roles mid-campaign, so
///                    text contradicts any pre-hijack lexicon; the online
///                    solver must track the swap (Observation 1 taken to
///                    its adversarial extreme).
///   burst_extreme  — repeated volume bursts an order of magnitude over
///                    baseline (election-night load), stressing snapshot
///                    batching.
///   campaign_churn — campaigns are retired and launched mid-replay; the
///                    fleet's per-campaign results must match a fleet
///                    that never co-hosted them.
///   empty_days     — dead days (including the stream's very first days
///                    and multi-day runs of silence) that inject
///                    zero-event snapshots into every campaign.
///   drift_storm    — vocabulary drift and off-class noise far above the
///                    paper's observed rates; the floor scenario for how
///                    much signal the coupling still extracts.
///
/// Scenarios run through the replay stack (ReplayDriver +
/// TimelineEvaluator) for the tri-cluster solver and the baseline methods
/// via RunMethodComparison (src/eval/method_runner.h);
/// `examples/replay --scenario=<name>` is the CLI entry and
/// tests/scenario_test.cc pins every expectation record.

/// Machine-readable expectations of one scenario. Accuracy floors are
/// fractions in [0, 1] (the unit of TimelineEvaluator metrics) and apply
/// to the tri-cluster run aggregate (RunAggregate micro-averages) at any
/// scale ≥ 0.5; health limits apply to the final fleet HealthReport.
struct ScenarioExpectation {
  /// Floors on the run-aggregate clustering accuracy of the tri-cluster
  /// method over the replay (0 = no floor).
  double min_tweet_accuracy = 0.0;
  double min_user_accuracy = 0.0;
  /// Fleet health at the end of the replay: at most this many campaigns
  /// quarantined, at least this many healthy, exactly this many retired.
  size_t max_quarantined = 0;
  size_t min_healthy = 0;
  size_t expected_retired = 0;
  /// Every replay day must be walked (the scenario's day count).
  int expected_days = 0;
  /// The generated corpus must carry at least this much traffic at scale
  /// 1 (scaled down proportionally by GetScenario's scale).
  size_t min_tweets = 0;
};

/// One event of a campaign-churn schedule, applied by the replay day hook
/// before the day's traffic is released.
struct ChurnEvent {
  enum class Action { kRetire = 0, kLaunch = 1 };

  /// Replay day the event fires on.
  int day = 0;
  Action action = Action::kRetire;
  /// kRetire: the id of the campaign to retire (ids are dense in
  /// registration order; launched campaigns extend the sequence).
  size_t campaign = 0;
  /// kLaunch: the name to register the new campaign under.
  std::string name;
};

/// A named hostile workload: generator knobs, prior-lexicon corruption,
/// fleet shape, churn schedule, and the expectation record.
struct Scenario {
  std::string name;
  std::string description;
  /// Generator knobs (seeded; GenerateSynthetic(config) is the corpus).
  SyntheticConfig config;
  /// Prior-lexicon corruption applied to the generator's ground-truth
  /// lexicon (CorruptLexicon arguments) — the imperfect word list the
  /// engine actually gets.
  double lexicon_coverage = 0.6;
  double lexicon_error_rate = 0.05;
  uint64_t lexicon_seed = 99;
  /// Campaigns registered before the replay starts (fed author-disjoint
  /// slices via PartitionIntoStreams; launched campaigns add more).
  size_t num_campaigns = 2;
  /// Day-ordered churn schedule (empty for most scenarios).
  std::vector<ChurnEvent> churn;
  ScenarioExpectation expect;

  /// Total streams the scenario uses: the initial fleet plus one
  /// author-disjoint slice per launch event.
  size_t NumStreams() const;
};

/// Names of every registered scenario, in catalog order.
std::vector<std::string> ScenarioNames();

/// Builds scenario `name` at `scale` ∈ (0, 1]: population and volume
/// knobs (users, tweets/day, spam fleet) are multiplied by `scale`, while
/// the day structure — day count, hijack/burst/dead days, churn days —
/// is kept, so a reduced-scale CI run exercises the same timeline shape.
/// Expectation floors are calibrated to hold at any scale ≥ 0.5.
/// NotFound for an unknown name; InvalidArgument for a bad scale.
Result<Scenario> GetScenario(const std::string& name, double scale = 1.0);

/// The whole catalog at `scale` (ScenarioNames order).
std::vector<Scenario> AllScenarios(double scale = 1.0);

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_SCENARIO_H_
