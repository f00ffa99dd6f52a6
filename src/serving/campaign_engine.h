#ifndef TRICLUST_SRC_SERVING_CAMPAIGN_ENGINE_H_
#define TRICLUST_SRC_SERVING_CAMPAIGN_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/result.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/corpus.h"
#include "src/data/matrix_builder.h"
#include "src/matrix/dense_matrix.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace triclust {
namespace serving {

/// Serves N independent online tri-clustering campaigns from one process.
///
/// Each campaign owns an incremental MatrixBuilder (pending-snapshot
/// ingestion) and a StreamState (the Sf and Su window histories, all that
/// one snapshot's fit passes to the next), plus a stateless SnapshotSolver
/// over its config and lexicon prior. Campaigns registered from copies of one
/// fitted builder share its immutable feature space (vocabulary, weights
/// and cached corpus rows) and own only their pending rows, so a campaign
/// costs no memory per corpus tweet. Ingest() queues tweets in O(new tweets);
/// Advance() emits every pending snapshot and shards the per-snapshot fits
/// across the process thread pool (the fits are independent given each
/// campaign's window aggregates, so they parallelize without coordination).
///
/// Two-level parallelism: Advance() splits its thread pool hierarchically.
/// The campaign tier shards the batch's ready fits across the pool; the
/// kernel tier installs a per-fit ThreadBudget around every sharded solve —
/// its slice of `num_threads / ready_fits` with the remainder spilled one
/// thread at a time onto the first fits (SplitThreadBudget) — so each fit
/// also runs its kernels row-parallel inside its slice. A 2-campaign fleet on 16 cores therefore
/// uses all 16 (8 per fit) instead of idling 14, and a 1-campaign batch
/// gets the whole machine. Budgets are recomputed for every Advance()
/// batch from the fits actually ready in it.
///
/// Determinism: the kernels are bit-identical at every width (fixed-grain
/// reductions, disjoint-row partitions — see parallel.h), so each
/// campaign's results are bit-identical to a serial SnapshotSolver::Solve
/// over its own StreamState processing the same snapshots — regardless of
/// how many campaigns advanced together, the engine's thread budget, how it
/// was split across fits, or which pool thread ran a fit.
///
/// Deadlines: Advance() accepts a soft deadline. A campaign whose fit has
/// not *started* by the deadline is skipped — its pending tweets stay
/// queued and simply accumulate into a larger snapshot for the next
/// Advance(), mirroring how the paper's per-day snapshots batch whatever
/// arrived in the interval. The fit order rotates across Advance() calls
/// so sustained deadline pressure spreads deferrals over the fleet rather
/// than starving the highest campaign ids; beyond that, which campaigns
/// get deferred depends on scheduling — the per-campaign results never do.
///
/// Thread safety: the engine itself is confined to one caller thread
/// (Ingest/Advance are not re-entrant); internal concurrency is the
/// engine's job. All thread budgets are installed THREAD-LOCALLY (see
/// parallel.h), so unrelated solver fits on other threads of the same
/// process run safely concurrently with Advance(), each under its own
/// budget.
struct EngineOptions {
  /// Total thread budget of one Advance() batch — the pool split across
  /// that batch's ready fits with SplitThreadBudget: 0 = hardware
  /// concurrency, 1 = fit campaigns sequentially with serial kernels.
  int num_threads = 0;
  /// Consecutive fit failures after which a campaign is quarantined
  /// (skipped by Advance() until ReviveCampaign()). ≤ 0 disables automatic
  /// quarantine — failed campaigns stay degraded and keep being retried.
  int quarantine_after_failures = 3;
};

/// Per-campaign serving health (the graceful-degradation lifecycle):
/// kHealthy → (fit failure) → kDegraded → (quarantine_after_failures
/// consecutive failures) → kQuarantined; any successful fit returns the
/// campaign to kHealthy, and ReviveCampaign() re-admits a quarantined one.
enum class CampaignHealth { kHealthy = 0, kDegraded = 1, kQuarantined = 2 };

/// Stable lowercase name of a health state ("healthy", "degraded",
/// "quarantined") for dashboards and logs.
const char* CampaignHealthName(CampaignHealth health);

/// One campaign's row in the fleet health report.
struct CampaignHealthStatus {
  size_t campaign = 0;
  std::string name;
  CampaignHealth health = CampaignHealth::kHealthy;
  /// Permanently out of rotation (see RetireCampaign).
  bool retired = false;
  /// Failures since the last successful fit.
  int consecutive_failures = 0;
  /// The most recent failure (OK when the campaign never failed); kept
  /// across recovery so operators can see what last went wrong.
  Status last_error;
  int timestep = 0;
  size_t pending = 0;
};

/// Fleet-wide health snapshot — what a network front-end's /health
/// endpoint serves.
struct EngineHealthReport {
  size_t healthy = 0;
  size_t degraded = 0;
  size_t quarantined = 0;
  /// Retired campaigns (see RetireCampaign) are listed but not counted
  /// toward the live tallies above.
  size_t retired = 0;
  /// One entry per campaign, in campaign-id order.
  std::vector<CampaignHealthStatus> campaigns;

  bool AllHealthy() const { return degraded == 0 && quarantined == 0; }
};

struct AdvanceOptions {
  /// Soft deadline in milliseconds from the start of Advance(); fits not
  /// started by then are deferred with their queue intact. ≤ 0 = none.
  double deadline_ms = 0.0;
  /// Also advance campaigns with an empty queue (their snapshot is empty
  /// and carries the feature state forward) — keeps every campaign's
  /// timestep aligned with wall-clock days even through quiet periods.
  bool include_idle = false;
};

/// TRICLUST_EXTERNALLY_SYNCHRONIZED: the engine deliberately owns no
/// mutex. Its safety contract is *confinement* — all public members are
/// called from one caller thread (see "Thread safety" above), and during
/// Advance() each sharded fit has exclusive ownership of its one
/// Campaign. Confinement is a discipline the thread-safety analysis
/// cannot model, so the marker (a no-op macro) plus the TSan CI job carry
/// this contract where GUARDED_BY carries the locked ones.
class TRICLUST_EXTERNALLY_SYNCHRONIZED CampaignEngine {
 public:
  using Options = EngineOptions;

  explicit CampaignEngine(Options options = Options());
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Registers a campaign and returns its id (dense, in registration
  /// order). `builder` must already be Fit and `sf0` built over its
  /// vocabulary; `corpus` is not owned and must outlive the engine. Pass
  /// the same fitted builder to every campaign: each copy shares its
  /// feature space, so registration is O(1) in the corpus size.
  /// Campaign names must be unique (they key persistence — see
  /// CampaignStore). Registration is admin input, so bad requests are
  /// errors, not crashes: InvalidArgument for an empty name, a name with
  /// control characters or a leading space (either would corrupt the
  /// store's line-oriented manifest), a builder that was never fit, an
  /// `sf0` whose row count does not match the builder's vocabulary, or a
  /// `config`/`sf0` pair that ValidateConfig rejects (e.g. tau = 0, or sf0
  /// columns != num_clusters); AlreadyExists for a duplicate name.
  Result<size_t> AddCampaign(std::string name, OnlineConfig config,
                             DenseMatrix sf0, MatrixBuilder builder,
                             const Corpus* corpus);

  /// Number of registered campaigns. Thread safety (like every accessor
  /// below): safe from the confined caller thread; not from others while
  /// Advance() runs.
  size_t num_campaigns() const { return campaigns_.size(); }

  /// The resolved total thread budget of an Advance() batch: Options::
  /// num_threads with 0 resolved through hardware concurrency, always ≥ 1.
  int effective_num_threads() const;

  /// How one Advance() batch splits `pool_threads` across `ready_fits`
  /// fits: every fit gets at least max(1, pool_threads / ready_fits)
  /// threads and the remainder spills one extra thread onto the first
  /// `pool_threads % ready_fits` fits, so the slices sum to exactly
  /// max(pool_threads, ready_fits). Pure function, exposed for tests;
  /// empty for ready_fits == 0.
  static std::vector<int> SplitThreadBudget(int pool_threads,
                                            size_t ready_fits);

  /// The unique name `campaign` was registered under.
  const std::string& name(size_t campaign) const;

  /// Id of the campaign with `name`, or -1 when unknown.
  ptrdiff_t FindCampaign(const std::string& name) const;

  /// The corpus the campaign was registered with (evaluation harnesses map
  /// snapshot row ids back into it — see src/eval/timeline_eval.h).
  const Corpus& corpus(size_t campaign) const;

  /// Queues tweets for the campaign's next snapshot, vectorizing each once
  /// (O(new tweets)). `label_day` is the temporal ground-truth day used for
  /// the snapshot's user labels (-1 = static labels); the last value queued
  /// before an Advance wins.
  void Ingest(size_t campaign, const std::vector<size_t>& tweet_ids,
              int label_day = -1);

  /// Tweets queued for the campaign since its last fitted snapshot.
  size_t num_pending(size_t campaign) const;

  /// The campaign's evolving stream state (CampaignStore serializes it).
  /// The reference is invalidated by set_state and mutated by Advance().
  const StreamState& state(size_t campaign) const;

  /// The campaign's immutable solver: its config and lexicon prior
  /// (CampaignStore validates checkpoints against solver().sf0()).
  const SnapshotSolver& solver(size_t campaign) const;

  /// Replaces a campaign's stream state (CampaignStore restore path). The
  /// state must be dimensionally consistent with the campaign's sf0 —
  /// StreamState::Read validates this.
  void set_state(size_t campaign, StreamState state);

  // --- fleet health / graceful degradation ----------------------------------

  /// The campaign's current health state (see CampaignHealth).
  CampaignHealth health(size_t campaign) const;

  /// The campaign's most recent failure; OK when it never failed.
  const Status& last_error(size_t campaign) const;

  /// Forces the campaign into kQuarantined with `reason` as its last
  /// error: Advance() skips it (its ingest queue keeps accumulating) until
  /// ReviveCampaign(). Used by CampaignStore's partial recovery for
  /// campaigns whose checkpoints failed verification, and available to
  /// admin layers.
  void QuarantineCampaign(size_t campaign, Status reason);

  /// Re-admits a campaign to Advance() scheduling: health back to
  /// kHealthy, consecutive-failure count cleared. last_error is kept for
  /// the record until the next failure overwrites it. If the underlying
  /// cause persists, the next fit re-degrades the campaign. Retired
  /// campaigns stay retired (retirement is permanent).
  void ReviveCampaign(size_t campaign);

  /// Permanently removes a campaign from Advance() rotation (campaign
  /// churn: an election decided, a product launch wound down). Its id
  /// stays dense and its name stays registered — ids index evaluator
  /// timelines and the store manifest — but it never fits again, accepts
  /// no further Ingest (a CHECK guards the contract), and its final
  /// stream state remains readable for queries and persistence. Unlike
  /// quarantine there is no revive.
  void RetireCampaign(size_t campaign);

  /// Whether the campaign was retired.
  bool retired(size_t campaign) const;

  /// Fleet-wide health snapshot, one entry per campaign in id order. Safe
  /// from the confined caller thread (like every accessor).
  EngineHealthReport HealthReport() const;

  /// Outcome of one campaign's snapshot within an Advance() call.
  struct SnapshotReport {
    size_t campaign = 0;
    /// False when the deadline deferred this fit (queue left intact) or
    /// the fit failed (see `status`).
    bool fitted = false;
    /// OK for a fitted or deferred snapshot; the failure when this fit was
    /// attempted and rejected (non-finite factors — a poisoned stream).
    /// On failure the campaign keeps its pre-fit state (SnapshotSolver::
    /// Solve does not advance a state with a non-finite result), the
    /// snapshot's tweets are dropped (re-fitting the same poison would fail
    /// forever), and the campaign is degraded / eventually quarantined —
    /// see CampaignHealth.
    Status status;
    /// The emitted snapshot (row-id maps and labels for the caller).
    DatasetMatrices data;
    TriClusterResult result;
    SnapshotSolver::SolveInfo info;
    /// Wall-clock cost of emit + fit, for load reporting.
    double solve_ms = 0.0;
    /// Temporal ground-truth day `data.user_labels` was built against
    /// (the label_day of the last Ingest before this fit; -1 = static
    /// labels). Meaningful only when fitted.
    int label_day = -1;
  };

  /// Advances every campaign with pending tweets (and idle ones when
  /// requested) by exactly one snapshot, sharding fits across the pool.
  /// Reports are ordered by campaign id. Quarantined campaigns are skipped
  /// entirely (no report; their queues keep accumulating). A fit whose
  /// result is non-finite is rejected: that campaign's state stays as it
  /// was before the fit, its report carries the error, and only it
  /// degrades — the rest of the fleet advances normally (per-campaign
  /// blast radius).
  std::vector<SnapshotReport> Advance(
      const AdvanceOptions& options = AdvanceOptions());

 private:
  /// Everything one campaign owns: ingestion, solver inputs and stream
  /// state. unique_ptr keeps addresses stable across registration.
  struct Campaign {
    Campaign(std::string campaign_name, OnlineConfig config, DenseMatrix sf0,
             MatrixBuilder matrix_builder, const Corpus* labeled_corpus)
        : name(std::move(campaign_name)),
          solver(config, std::move(sf0)),
          builder(std::move(matrix_builder)),
          corpus(labeled_corpus) {}

    std::string name;
    SnapshotSolver solver;
    MatrixBuilder builder;
    const Corpus* corpus;
    StreamState state;
    int pending_label_day = -1;
    /// Serving health (see CampaignHealth). Written only by the one worker
    /// fitting this campaign during Advance() or by the confined caller
    /// thread — same discipline as `state`.
    CampaignHealth health = CampaignHealth::kHealthy;
    int consecutive_failures = 0;
    Status last_error;
    /// Permanently out of rotation (campaign churn); never cleared.
    bool retired = false;
  };

  /// Updates one campaign's health after a fit attempt. Runs on the worker
  /// that owns the campaign for this batch (exclusive access, like the
  /// state update itself).
  void RecordFitOutcome(Campaign* campaign, Status status);

  Options options_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;
  /// Advance() calls so far; rotates the fit order for deadline fairness.
  uint64_t advance_count_ = 0;
};

}  // namespace serving
}  // namespace triclust

#endif  // TRICLUST_SRC_SERVING_CAMPAIGN_ENGINE_H_
