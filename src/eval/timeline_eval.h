#ifndef TRICLUST_SRC_EVAL_TIMELINE_EVAL_H_
#define TRICLUST_SRC_EVAL_TIMELINE_EVAL_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/core/result.h"
#include "src/data/corpus.h"
#include "src/data/matrix_builder.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/replay.h"
#include "src/util/status.h"

namespace triclust {

/// Replay-driven evaluation harness: scores every fitted snapshot that a
/// CampaignEngine produces during a replay against the corpus ground
/// truth, yielding the per-day accuracy timelines the paper's headline
/// figures plot (tweet-level and user-level accuracy over time) plus
/// run-level aggregates.
///
/// Scoring maps each snapshot row back into the corpus through the
/// report's row-id maps: tweet row i is corpus tweet data.tweet_ids[i]
/// and is scored against its static label; user row j is corpus user
/// data.user_ids[j] and is scored against the *temporal* per-day label at
/// the snapshot's label_day (the D rows of the corpus TSV, falling back
/// to the static U label — see docs/FORMATS.md §1.1), exactly the labels
/// MatrixBuilder::Build bakes into the snapshot.
///
/// Unlike the metrics in metrics.h (which this header builds on), the
/// harness sits *above* the serving layer: it scores the
/// CampaignEngine::SnapshotReports that Advance() returns. The one hook is
/// ReplayDriver::AddObserver (Attach below); any other caller of Advance()
/// passes its reports to Observe directly.

/// Scores of one fitted snapshot (one campaign, one replay day). Metric
/// fields are NaN when the snapshot scored no items of that kind (e.g. an
/// idle campaign's empty snapshot, or a fully unlabeled day).
struct SnapshotScore {
  /// Replay day the snapshot was fitted on (the drain pass reports the
  /// day count, like ReplayDayStats).
  int day = 0;
  size_t campaign = 0;
  /// Temporal user-label day the snapshot was built against (-1 = static).
  int label_day = -1;

  /// Rows in the snapshot / rows that were scored (labeled AND assigned
  /// to a cluster; metrics.h skips the rest).
  size_t tweets = 0;
  size_t tweets_scored = 0;
  size_t users = 0;
  size_t users_scored = 0;

  /// Tweet-level metrics: hard Sp assignments vs static tweet labels.
  double tweet_accuracy = serving::kUnscoredMetric;
  double tweet_permutation_accuracy = serving::kUnscoredMetric;
  double tweet_nmi = serving::kUnscoredMetric;

  /// User-level metrics: hard Su assignments vs temporal user labels.
  double user_accuracy = serving::kUnscoredMetric;
  double user_permutation_accuracy = serving::kUnscoredMetric;
  double user_nmi = serving::kUnscoredMetric;
};

/// Scores one fitted snapshot against `corpus` ground truth via the
/// snapshot's row-id maps (see file comment for the label semantics).
/// This is the single scoring kernel: the replayed timeline and a direct
/// per-day solve score through the same call, so equal factors give
/// bit-identical scores. `day`/`campaign`/`label_day` are recorded
/// verbatim.
SnapshotScore ScoreSnapshot(const Corpus& corpus,
                            const DatasetMatrices& data,
                            const TriClusterResult& result, int day,
                            size_t campaign, int label_day);

/// Aggregate over a set of scored snapshots. Accuracies are
/// micro-averages: each per-snapshot accuracy weighted by its scored item
/// count, i.e. the fraction of all scored items that were correct. NMI is
/// not decomposable over items, so its aggregate is the same
/// scored-weighted mean, reported for trend lines only. Every stream
/// accuracy the repository prints is one of these.
struct TimelineAggregate {
  /// Fitted snapshots folded in / of those, snapshots that scored items.
  size_t snapshots = 0;
  size_t snapshots_scored = 0;
  size_t tweets_scored = 0;
  size_t users_scored = 0;
  double tweet_accuracy = serving::kUnscoredMetric;
  double tweet_permutation_accuracy = serving::kUnscoredMetric;
  double tweet_nmi = serving::kUnscoredMetric;
  double user_accuracy = serving::kUnscoredMetric;
  double user_permutation_accuracy = serving::kUnscoredMetric;
  double user_nmi = serving::kUnscoredMetric;
};

/// Folds `scores` in order into one aggregate: the accumulator behind
/// RunAggregate, CampaignAggregate and Annotate. A snapshot that scored
/// nothing (NaN metrics) carries no weight.
TimelineAggregate AggregateScores(const std::vector<SnapshotScore>& scores);

/// Per-campaign accuracy timeline: every fitted snapshot of the campaign
/// observed during the run, in fit order.
struct CampaignTimeline {
  size_t campaign = 0;
  std::string name;
  std::vector<SnapshotScore> scores;
};

/// Observes a replay (or any sequence of SnapshotReports) and accumulates
/// per-day, per-campaign accuracy timelines.
///
/// Usage during replay:
///   TimelineEvaluator evaluator(&engine);
///   evaluator.Attach(&driver);              // additive observer
///   ReplayStats stats = driver.Replay();
///   evaluator.Annotate(&stats);             // fill the metric fields
///   evaluator.WriteCsvFile("timeline.csv");
///
/// The evaluator is purely observational: it runs on the replay caller
/// thread after each Advance() completed, so attaching it cannot perturb
/// the fitted factors (the replay-vs-direct bit-identity invariant of
/// tests/replay_test.cc holds with an evaluator attached).
///
/// Thread safety: confined to one caller thread, like the engine and
/// driver it observes. The engine must outlive the evaluator.
class TimelineEvaluator {
 public:
  /// `engine` is borrowed: campaign names and corpora are read from it.
  explicit TimelineEvaluator(const serving::CampaignEngine* engine);

  /// Folds one report in (deferred reports are ignored). The replay
  /// observer installed by Attach() forwards here; tests and custom
  /// drivers may call it directly.
  void Observe(int day, const serving::CampaignEngine::SnapshotReport& report);

  /// Registers this evaluator as an additional observer on `driver`
  /// (ReplayDriver::AddObserver — existing callbacks keep working). The
  /// evaluator must outlive the driver's replays.
  void Attach(serving::ReplayDriver* driver);

  /// One timeline per engine campaign (campaigns that never fitted have
  /// empty `scores`).
  const std::vector<CampaignTimeline>& timelines() const {
    return timelines_;
  }

  /// Aggregate over every observed snapshot / one campaign's snapshots.
  TimelineAggregate RunAggregate() const;
  TimelineAggregate CampaignAggregate(size_t campaign) const;

  /// Copies the accuracy timeline into the replay stats: per-day fields
  /// of ReplayDayStats (micro-averaged across that day's campaigns) and
  /// the run-level fields of each CampaignReplayStats. Days or campaigns
  /// the evaluator never scored keep their NaN sentinels.
  void Annotate(serving::ReplayStats* stats) const;

  /// Writes the timeline as CSV for plotting against the paper's figures:
  /// one row per fitted snapshot, ordered by (day, campaign). NaN metrics
  /// (nothing scored) are written as empty fields.
  void WriteCsv(std::ostream& os) const;

  /// Atomic-file variant of WriteCsv.
  Status WriteCsvFile(const std::string& path) const;

 private:
  const serving::CampaignEngine* engine_;
  std::vector<CampaignTimeline> timelines_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_EVAL_TIMELINE_EVAL_H_
