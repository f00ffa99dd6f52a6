#include "src/serving/campaign_engine.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/stopwatch.h"

namespace triclust {
namespace serving {

const char* CampaignHealthName(CampaignHealth health) {
  switch (health) {
    case CampaignHealth::kHealthy:
      return "healthy";
    case CampaignHealth::kDegraded:
      return "degraded";
    case CampaignHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

CampaignEngine::CampaignEngine(Options options) : options_(options) {
  TRICLUST_CHECK_GE(options_.num_threads, 0);
}

int CampaignEngine::effective_num_threads() const {
  return ThreadBudget(options_.num_threads).resolved();
}

std::vector<int> CampaignEngine::SplitThreadBudget(int pool_threads,
                                                   size_t ready_fits) {
  TRICLUST_CHECK_GE(pool_threads, 1);
  std::vector<int> budgets(ready_fits, 1);
  if (ready_fits == 0) return budgets;
  const int base = pool_threads / static_cast<int>(ready_fits);
  const int spill = pool_threads % static_cast<int>(ready_fits);
  for (size_t i = 0; i < ready_fits; ++i) {
    budgets[i] = std::max(1, base + (i < static_cast<size_t>(spill) ? 1 : 0));
  }
  return budgets;
}

Result<size_t> CampaignEngine::AddCampaign(std::string name,
                                           OnlineConfig config,
                                           DenseMatrix sf0,
                                           MatrixBuilder builder,
                                           const Corpus* corpus) {
  // A null corpus is a programming error in the caller, not admin input.
  TRICLUST_CHECK(corpus != nullptr);
  // Everything below is untrusted registration input: reject, don't abort.
  if (name.empty()) {
    return Status::InvalidArgument("campaign name must not be empty");
  }
  // Names key the store's line-oriented manifest: no control characters,
  // and no leading space (Restore trims exactly one after the timestep).
  for (const char ch : name) {
    if (static_cast<unsigned char>(ch) < 0x20) {
      return Status::InvalidArgument(
          "campaign name contains a control character: " + name);
    }
  }
  if (name.front() == ' ') {
    return Status::InvalidArgument("campaign name has a leading space: '" +
                                   name + "'");
  }
  if (!builder.fitted()) {
    return Status::InvalidArgument("campaign '" + name +
                                   "': the builder was never fit");
  }
  if (sf0.rows() != builder.vocabulary().size()) {
    return Status::InvalidArgument(
        "campaign '" + name + "': sf0 has " + std::to_string(sf0.rows()) +
        " rows but the builder vocabulary has " +
        std::to_string(builder.vocabulary().size()) + " features");
  }
  const Status valid = ValidateConfig(config, sf0);
  if (!valid.ok()) {
    return Status::InvalidArgument("campaign '" + name +
                                   "': " + valid.message());
  }
  if (FindCampaign(name) != -1) {
    return Status::AlreadyExists("campaign name already registered: " + name);
  }
  campaigns_.push_back(std::make_unique<Campaign>(
      std::move(name), config, std::move(sf0), std::move(builder), corpus));
  return campaigns_.size() - 1;
}

const std::string& CampaignEngine::name(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->name;
}

ptrdiff_t CampaignEngine::FindCampaign(const std::string& name) const {
  for (size_t i = 0; i < campaigns_.size(); ++i) {
    if (campaigns_[i]->name == name) return static_cast<ptrdiff_t>(i);
  }
  return -1;
}

void CampaignEngine::Ingest(size_t campaign,
                            const std::vector<size_t>& tweet_ids,
                            int label_day) {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  Campaign& c = *campaigns_[campaign];
  // Feeding a retired campaign is a routing bug in the caller: the tweets
  // would queue forever (retired campaigns never fit again).
  TRICLUST_CHECK(!c.retired);
  c.builder.Append(*c.corpus, tweet_ids);
  c.pending_label_day = label_day;
}

size_t CampaignEngine::num_pending(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->builder.num_pending();
}

const Corpus& CampaignEngine::corpus(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return *campaigns_[campaign]->corpus;
}

const StreamState& CampaignEngine::state(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->state;
}

const SnapshotSolver& CampaignEngine::solver(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->solver;
}

void CampaignEngine::set_state(size_t campaign, StreamState state) {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  campaigns_[campaign]->state = std::move(state);
}

CampaignHealth CampaignEngine::health(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->health;
}

const Status& CampaignEngine::last_error(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->last_error;
}

void CampaignEngine::QuarantineCampaign(size_t campaign, Status reason) {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  Campaign& c = *campaigns_[campaign];
  c.health = CampaignHealth::kQuarantined;
  c.last_error = std::move(reason);
  TRICLUST_LOG(kWarning) << "campaign '" << c.name
                         << "' quarantined: " << c.last_error.ToString();
}

void CampaignEngine::ReviveCampaign(size_t campaign) {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  Campaign& c = *campaigns_[campaign];
  c.health = CampaignHealth::kHealthy;
  c.consecutive_failures = 0;
  TRICLUST_LOG(kInfo) << "campaign '" << c.name << "' revived";
}

void CampaignEngine::RetireCampaign(size_t campaign) {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  Campaign& c = *campaigns_[campaign];
  if (c.retired) return;
  c.retired = true;
  TRICLUST_LOG(kInfo) << "campaign '" << c.name << "' retired at timestep "
                      << c.state.timestep << " with "
                      << c.builder.num_pending() << " pending tweet(s)";
}

bool CampaignEngine::retired(size_t campaign) const {
  TRICLUST_CHECK_LT(campaign, campaigns_.size());
  return campaigns_[campaign]->retired;
}

EngineHealthReport CampaignEngine::HealthReport() const {
  EngineHealthReport report;
  report.campaigns.reserve(campaigns_.size());
  for (size_t i = 0; i < campaigns_.size(); ++i) {
    const Campaign& c = *campaigns_[i];
    CampaignHealthStatus status;
    status.campaign = i;
    status.name = c.name;
    status.health = c.health;
    status.retired = c.retired;
    status.consecutive_failures = c.consecutive_failures;
    status.last_error = c.last_error;
    status.timestep = c.state.timestep;
    status.pending = c.builder.num_pending();
    if (c.retired) {
      ++report.retired;
      report.campaigns.push_back(std::move(status));
      continue;
    }
    switch (c.health) {
      case CampaignHealth::kHealthy:
        ++report.healthy;
        break;
      case CampaignHealth::kDegraded:
        ++report.degraded;
        break;
      case CampaignHealth::kQuarantined:
        ++report.quarantined;
        break;
    }
    report.campaigns.push_back(std::move(status));
  }
  return report;
}

void CampaignEngine::RecordFitOutcome(Campaign* campaign, Status status) {
  if (status.ok()) {
    campaign->health = CampaignHealth::kHealthy;
    campaign->consecutive_failures = 0;
    return;
  }
  campaign->last_error = std::move(status);
  ++campaign->consecutive_failures;
  if (options_.quarantine_after_failures > 0 &&
      campaign->consecutive_failures >= options_.quarantine_after_failures) {
    campaign->health = CampaignHealth::kQuarantined;
    TRICLUST_LOG(kWarning)
        << "campaign '" << campaign->name << "' quarantined after "
        << campaign->consecutive_failures
        << " consecutive fit failures: " << campaign->last_error.ToString();
  } else {
    campaign->health = CampaignHealth::kDegraded;
    TRICLUST_LOG(kWarning)
        << "campaign '" << campaign->name << "' degraded ("
        << campaign->consecutive_failures << " consecutive failure(s)): "
        << campaign->last_error.ToString();
  }
}

std::vector<CampaignEngine::SnapshotReport> CampaignEngine::Advance(
    const AdvanceOptions& options) {
  std::vector<size_t> targets;
  for (size_t i = 0; i < campaigns_.size(); ++i) {
    // Retired campaigns are gone for good; quarantined campaigns are out
    // of rotation until ReviveCampaign() re-admits them (their queues keep
    // accumulating).
    if (campaigns_[i]->retired) continue;
    if (campaigns_[i]->health == CampaignHealth::kQuarantined) continue;
    if (campaigns_[i]->builder.num_pending() > 0 || options.include_idle) {
      targets.push_back(i);
    }
  }
  // Chunks are claimed in `targets` order, so under deadline pressure the
  // tail of the list is what gets deferred. Rotate the starting point each
  // call so no campaign is *systematically* starved by its id.
  if (!targets.empty()) {
    std::rotate(targets.begin(),
                targets.begin() + static_cast<ptrdiff_t>(
                                      advance_count_ % targets.size()),
                targets.end());
  }
  ++advance_count_;
  std::vector<SnapshotReport> reports(targets.size());

  const Stopwatch advance_clock;
  // Two-level split (see class comment): the campaign tier shards the
  // batch across the pool under the engine budget, and each fit's solve
  // runs under its slice of that budget, recomputed per batch from the
  // fits actually ready. Both tiers' budgets are thread-local; results are
  // bit-identical for any split because the kernels are width-invariant.
  const int pool_threads = effective_num_threads();
  const std::vector<int> fit_budgets =
      SplitThreadBudget(pool_threads, targets.size());
  // Brace-initialized on purpose: with parentheses this whole line is a
  // *function declaration* (most vexing parse) and no budget is installed
  // — the campaign tier then silently runs serially.
  // -Wvexing-parse guards the regression.
  ScopedThreadBudget campaign_tier{ThreadBudget(pool_threads)};
  ParallelFor(0, targets.size(), /*grain=*/1, [&](size_t lo, size_t hi) {
    for (size_t t = lo; t < hi; ++t) {
      SnapshotReport& report = reports[t];
      report.campaign = targets[t];
      if (options.deadline_ms > 0.0 &&
          advance_clock.ElapsedMillis() > options.deadline_ms) {
        continue;  // deferred: the queue keeps accumulating
      }
      Campaign& c = *campaigns_[targets[t]];
      const Stopwatch fit_clock;
      report.label_day = c.pending_label_day;
      report.data = c.builder.EmitSnapshot(*c.corpus, c.pending_label_day);
      {
        const ScopedThreadBudget fit_budget{ThreadBudget(fit_budgets[t])};
        report.result = c.solver.Solve(report.data, &c.state, &report.info);
      }
      report.solve_ms = fit_clock.ElapsedMillis();
      // A fit is accepted only when every factor it produced is finite.
      if (ResultIsFinite(report.result)) {
        report.fitted = true;
        RecordFitOutcome(&c, Status::OK());
      } else {
        // Poisoned snapshot: Solve left the state as it was before the fit.
        // Drop the snapshot's tweets too — re-queueing them would re-fail
        // every Advance forever. Only this campaign degrades.
        report.result = TriClusterResult();
        report.status = Status::FailedPrecondition(
            "campaign '" + c.name +
            "': fit produced non-finite factors (snapshot dropped, state "
            "not advanced)");
        RecordFitOutcome(&c, report.status);
      }
    }
  });
  std::sort(reports.begin(), reports.end(),
            [](const SnapshotReport& a, const SnapshotReport& b) {
              return a.campaign < b.campaign;
            });
  return reports;
}

}  // namespace serving
}  // namespace triclust
