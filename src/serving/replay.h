#ifndef TRICLUST_SRC_SERVING_REPLAY_H_
#define TRICLUST_SRC_SERVING_REPLAY_H_

#include <functional>
#include <limits>
#include <vector>

#include "src/data/corpus.h"
#include "src/data/snapshots.h"
#include "src/serving/campaign_engine.h"

namespace triclust {
namespace serving {

/// Pacing and stress knobs of one replay run.
struct ReplayOptions {
  /// Wall-clock interval between consecutive day releases at speedup 1, in
  /// milliseconds. 0 (the default) replays as fast as possible — each day is
  /// released the moment the previous Advance() returns.
  double day_interval_ms = 0.0;
  /// Replay acceleration: day d is released at d·day_interval_ms/speedup
  /// after the run starts. Must be > 0 when pacing is enabled
  /// (day_interval_ms > 0); ignored — and not validated — when
  /// day_interval_ms is 0.
  double speedup = 1.0;
  /// Per-Advance soft deadline forwarded to the engine (deadline-stressed
  /// mode): fits not started in time are deferred and their tweets fold
  /// into the next day's snapshot. ≤ 0 disables.
  double deadline_ms = 0.0;
  /// Advance campaigns with an empty queue too, so every campaign's
  /// timestep tracks the replay day even through quiet days. Matches
  /// AdvanceOptions::include_idle.
  bool include_idle = true;
  /// Replay only the first `max_days` days (0 = every day in the streams).
  int max_days = 0;
};

/// NaN sentinel for accuracy fields no evaluator has filled (TableWriter
/// prints it as "-").
inline constexpr double kUnscoredMetric =
    std::numeric_limits<double>::quiet_NaN();

/// What happened on one replay day (one Ingest round + one Advance).
///
/// Deferral accounting: `deferred` counts *deferral events* — campaigns
/// whose pending fit was skipped by the deadline on this day. The same
/// queued snapshot deferred on several consecutive days contributes one
/// event per day (so Σ deferred over days can exceed the number of fits
/// it eventually batches into), and a campaign with an empty queue that
/// misses the deadline is NOT an event — there was no fit to defer. The
/// drain pass runs without a deadline, so the drain day entry only ever
/// records fits. `fits` counts snapshots that carried tweets: the
/// zero-row alignment solve a campaign runs on a zero-event day (empty
/// snapshot, or include_idle with nothing queued) is neither a fit nor a
/// deferral. tests/replay_test.cc pins these semantics.
struct ReplayDayStats {
  int day = 0;
  /// Tweets ingested across all streams this day.
  size_t tweets = 0;
  /// Snapshot fits completed / pending fits deferred by the deadline.
  size_t fits = 0;
  size_t deferred = 0;
  double ingest_ms = 0.0;
  double advance_ms = 0.0;
  /// Pacing wait before this day's release (0 when replaying flat out).
  double wait_ms = 0.0;

  /// Accuracy of this day's fitted snapshots, micro-averaged over their
  /// scored items across campaigns. Filled by
  /// TimelineEvaluator::Annotate (src/eval/timeline_eval.h) when an
  /// evaluator observed the run; NaN until then, and NaN when the day
  /// scored no items.
  size_t tweets_scored = 0;
  size_t users_scored = 0;
  double tweet_accuracy = kUnscoredMetric;
  double user_accuracy = kUnscoredMetric;
  double tweet_nmi = kUnscoredMetric;
  double user_nmi = kUnscoredMetric;
};

/// Per-campaign totals over one replay run.
struct CampaignReplayStats {
  size_t campaign = 0;
  /// Snapshots fitted / pending fits deferred by the deadline. `deferred`
  /// counts deferral events (see ReplayDayStats), so snapshots + deferred
  /// can exceed the replayed days under sustained deadline pressure.
  size_t snapshots = 0;
  size_t deferred = 0;
  /// Tweets that went through fitted snapshots.
  size_t tweets = 0;
  double solve_ms_total = 0.0;
  double solve_ms_max = 0.0;

  /// Run-level accuracy micro-averaged over every scored item of the
  /// campaign's fitted snapshots; filled by TimelineEvaluator::Annotate
  /// like the per-day fields above.
  size_t tweets_scored = 0;
  size_t users_scored = 0;
  double tweet_accuracy = kUnscoredMetric;
  double user_accuracy = kUnscoredMetric;
  double tweet_nmi = kUnscoredMetric;
  double user_nmi = kUnscoredMetric;

  double MeanSolveMs() const {
    return snapshots == 0 ? 0.0 : solve_ms_total / snapshots;
  }
};

/// Aggregate outcome of ReplayDriver::Replay().
struct ReplayStats {
  std::vector<ReplayDayStats> days;
  /// Indexed by engine campaign id (including campaigns without a stream).
  std::vector<CampaignReplayStats> campaigns;
  double wall_ms = 0.0;
  size_t total_tweets = 0;
  size_t total_fits = 0;
  size_t total_deferred = 0;

  /// Ingested tweets per wall-clock second (0 when nothing ran).
  double TweetsPerSecond() const;
  /// Mean / max Advance() latency over the replayed days.
  double MeanAdvanceMs() const;
  double MaxAdvanceMs() const;
};

/// Streams historical corpora through a CampaignEngine in day order at a
/// configurable speed-up — the bridge between an on-disk corpus (ReadTsv)
/// and the serving path the engine exposes to live traffic.
///
/// Each bound stream is a day-ordered Snapshot list feeding one engine
/// campaign (register the campaign first; the driver never creates them).
/// Replay() walks the union of days: it releases day d at its paced
/// wall-clock time (immediately when unpaced), Ingests every stream's
/// tweets for that day, then drives one engine Advance() whose reports are
/// folded into ReplayStats and forwarded to every observer.
///
/// Determinism: pacing, speed-up, and the wall clock affect only *when*
/// work happens. Without a deadline, the sequence of snapshots each
/// campaign fits — and therefore every factor matrix — is bit-identical to
/// a direct per-day MatrixBuilder::Build + SnapshotSolver::Solve loop over
/// the same day splits (tests/replay_test.cc pins this). With a deadline,
/// deferred days batch into later snapshots exactly as live deadline
/// pressure would batch them.
///
/// Thread safety: confined to one caller thread, like the engine it
/// drives; internal concurrency is the engine's Advance() sharding.
class ReplayDriver {
 public:
  /// Observer invoked after each Advance() for every report (fitted and
  /// deferred), in campaign-id order. `day` is the replay day, or the
  /// day count for the final drain pass.
  using SnapshotCallback =
      std::function<void(int day, const CampaignEngine::SnapshotReport&)>;

  /// Pull source of a provider-bound stream: returns the Snapshot released
  /// on `day`. Called once per replay day, in day order — the contract the
  /// bounded-memory streaming replay relies on (TsvStreamReader yields
  /// each day-chunk exactly once, so a provider cannot be re-asked for a
  /// past day).
  using SnapshotProvider = std::function<Snapshot(int day)>;

  /// Admin hook invoked at the start of each replay day, after the pacing
  /// wait and before that day's Ingest — where campaign-churn schedules
  /// retire campaigns (`CampaignEngine::RetireCampaign`) or register and
  /// bind new ones (`AddCampaign` + `AddStream`) mid-replay. Streams bound
  /// to retired campaigns stop being fed from that day on. A stream bound
  /// mid-run is fed from the current day forward; it does not extend the
  /// day horizon computed when Replay() started.
  using DayHook = std::function<void(int day)>;

  /// `engine` is borrowed and must outlive the driver.
  explicit ReplayDriver(CampaignEngine* engine);

  /// Binds a day-ordered stream (entry d = the tweets released on day d)
  /// to registered campaign `campaign`. One stream per campaign.
  void AddStream(size_t campaign, std::vector<Snapshot> days);

  /// Convenience: binds the whole corpus split one-snapshot-per-day. The
  /// corpus must be the one the campaign was registered with.
  void AddStream(size_t campaign, const Corpus& corpus);

  /// Binds a pull-based stream of `num_days` days: instead of
  /// materializing every day's Snapshot up front, the driver calls
  /// `provider(day)` when — and only when — that day is released. This is
  /// how a streamed corpus (ReadTsvStream / TsvStreamReader) replays with
  /// only one day-chunk resident: the day hook pulls the next chunk into
  /// the corpus, providers slice it per campaign, and the previous day's
  /// text is released behind it.
  void AddStream(size_t campaign, int num_days, SnapshotProvider provider);

  /// Appends an observer, invoked for every report in registration order
  /// — lets an evaluation harness (TimelineEvaluator::Attach) and ad-hoc
  /// capture callbacks watch the same run. Observers cannot be removed.
  void AddObserver(SnapshotCallback observer);

  /// Installs the per-day admin hook (pass {} to remove). At most one.
  void set_day_hook(DayHook hook);

  /// Number of days Replay() will walk (the longest bound stream).
  int num_days() const;

  /// Replays every bound stream through the engine. Can be called again to
  /// replay further data; the engine keeps its evolved states. After the
  /// last day it drains: when any deferred queue is still pending, one
  /// deadline-free Advance() fits it, so the replay ends with every
  /// ingested tweet fitted. The drain is recorded as an extra day entry
  /// with day == <number of days>.
  ReplayStats Replay(const ReplayOptions& options = ReplayOptions());

 private:
  struct Stream {
    size_t campaign = 0;
    std::vector<Snapshot> days;
    // Pull-based alternative to `days` (exactly one of the two is active;
    // provider_days is the bound stream length when provider is set).
    SnapshotProvider provider;
    int provider_days = 0;

    int NumDays() const {
      return provider ? provider_days : static_cast<int>(days.size());
    }
  };

  CampaignEngine* engine_;
  std::vector<Stream> streams_;
  std::vector<SnapshotCallback> observers_;
  DayHook day_hook_;
};

/// Partitions one corpus into `num_streams` author-disjoint topic streams:
/// tweet t goes to stream (t.user mod num_streams), so each user's
/// activity — and the retweet homophily around it — stays within one
/// stream. Every stream gets the same number of day entries (the corpus's
/// num_days), keeping campaign timesteps aligned. Deterministic.
///
/// This is how a single real collection exercises multi-campaign serving:
/// feed stream s to campaign s via ReplayDriver::AddStream.
std::vector<std::vector<Snapshot>> PartitionIntoStreams(const Corpus& corpus,
                                                        size_t num_streams);

}  // namespace serving
}  // namespace triclust

#endif  // TRICLUST_SRC_SERVING_REPLAY_H_
