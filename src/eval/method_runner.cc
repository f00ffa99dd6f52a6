#include "src/eval/method_runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/baselines/aggregation.h"
#include "src/baselines/label_propagation.h"
#include "src/baselines/lexicon_vote.h"
#include "src/baselines/userreg.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"

namespace triclust {

namespace {

/// Sentiment predictions viewed as a hard clustering (class index = cluster
/// id, kUnlabeled = unassigned), so classifier baselines get the same NMI
/// column as the clustering methods.
std::vector<int> AsClusters(const std::vector<Sentiment>& predictions) {
  std::vector<int> clusters;
  clusters.reserve(predictions.size());
  for (const Sentiment s : predictions) {
    clusters.push_back(s == Sentiment::kUnlabeled ? -1 : SentimentIndex(s));
  }
  return clusters;
}

size_t CountLabeled(const std::vector<Sentiment>& truth) {
  size_t labeled = 0;
  for (const Sentiment s : truth) {
    if (s != Sentiment::kUnlabeled) ++labeled;
  }
  return labeled;
}

/// Scores one day's predictions at one level into the day row.
void ScoreLevel(const std::vector<Sentiment>& predictions,
                const std::vector<Sentiment>& truth, size_t* scored,
                double* accuracy, double* nmi) {
  *scored = CountLabeled(truth);
  if (*scored == 0) return;
  *accuracy = ClassificationAccuracy(predictions, truth);
  *nmi = NormalizedMutualInformation(AsClusters(predictions), truth);
}

/// The tri-cluster method: the scenario's fleet replayed through a
/// CampaignEngine with churn, scored by TimelineEvaluator.
MethodTimeline RunTriclust(const Scenario& scenario, const Corpus& corpus,
                           const SentimentLexicon& prior,
                           const MethodRunnerOptions& options,
                           ScenarioRun* run) {
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DenseMatrix sf0 = prior.BuildSf0(builder.vocabulary(), 3);
  OnlineConfig config;
  config.base.max_iterations = options.max_iterations;
  config.base.track_loss = false;

  serving::EngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  serving::CampaignEngine engine(engine_options);
  serving::ReplayDriver driver(&engine);

  const std::vector<std::vector<Snapshot>> streams =
      serving::PartitionIntoStreams(corpus, scenario.NumStreams());
  for (size_t c = 0; c < scenario.num_campaigns; ++c) {
    Result<size_t> id = engine.AddCampaign(
        scenario.name + "-" + std::to_string(c), config, sf0, builder,
        &corpus);
    TRICLUST_CHECK(id.ok());
    driver.AddStream(id.value(), streams[c]);
  }

  // Churn: the schedule is day-ordered; the hook applies every event due
  // on or before the released day. Launched campaigns take the next
  // author-disjoint stream slice and are fed from their launch day on.
  size_t next_event = 0;
  size_t next_stream = scenario.num_campaigns;
  driver.set_day_hook([&](int day) {
    while (next_event < scenario.churn.size() &&
           scenario.churn[next_event].day <= day) {
      const ChurnEvent& event = scenario.churn[next_event++];
      if (event.action == ChurnEvent::Action::kRetire) {
        engine.RetireCampaign(event.campaign);
        continue;
      }
      Result<size_t> id =
          engine.AddCampaign(event.name, config, sf0, builder, &corpus);
      TRICLUST_CHECK(id.ok());
      TRICLUST_CHECK_LT(next_stream, streams.size());
      driver.AddStream(id.value(), streams[next_stream++]);
    }
  });

  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);
  run->replay_horizon_days = driver.num_days();
  run->replay = driver.Replay();
  evaluator.Annotate(&run->replay);
  run->final_health = engine.HealthReport();
  run->triclust_aggregate = evaluator.RunAggregate();

  MethodTimeline timeline;
  timeline.method = "triclust";
  for (const serving::ReplayDayStats& day : run->replay.days) {
    SnapshotScore score;
    score.day = day.day;
    score.tweets_scored = day.tweets_scored;
    score.users_scored = day.users_scored;
    score.tweet_accuracy = day.tweet_accuracy;
    score.tweet_nmi = day.tweet_nmi;
    score.user_accuracy = day.user_accuracy;
    score.user_nmi = day.user_nmi;
    timeline.days.push_back(score);
  }
  timeline.totals = run->triclust_aggregate;
  return timeline;
}

/// One baseline over the pooled per-day snapshots. `predict` maps one
/// day's DatasetMatrices (plus its day index, for per-day seed derivation)
/// to tweet-level predictions; user-level predictions are the retweet-
/// incidence majority vote unless the method provides its own.
template <typename PredictFn>
MethodTimeline RunPooledBaseline(const std::string& method,
                                 const Corpus& corpus,
                                 const MatrixBuilder& builder,
                                 const PredictFn& predict) {
  MethodTimeline timeline;
  timeline.method = method;
  for (const Snapshot& snap : SplitByDay(corpus)) {
    SnapshotScore score;
    score.day = snap.last_day;
    if (!snap.tweet_ids.empty()) {
      const DatasetMatrices data =
          builder.Build(corpus, snap.tweet_ids, snap.last_day);
      std::vector<Sentiment> tweet_pred;
      std::vector<Sentiment> user_pred;
      predict(data, snap.last_day, &tweet_pred, &user_pred);
      if (user_pred.empty()) {
        user_pred = AggregateTweetsToUsers(data, tweet_pred);
      }
      ScoreLevel(tweet_pred, data.tweet_labels, &score.tweets_scored,
                 &score.tweet_accuracy, &score.tweet_nmi);
      ScoreLevel(user_pred, data.user_labels, &score.users_scored,
                 &score.user_accuracy, &score.user_nmi);
    }
    timeline.days.push_back(score);
  }
  timeline.totals = AggregateScores(timeline.days);
  return timeline;
}

}  // namespace

const MethodTimeline* ScenarioRun::FindMethod(
    const std::string& method) const {
  for (const MethodTimeline& timeline : methods) {
    if (timeline.method == method) return &timeline;
  }
  return nullptr;
}

Result<ScenarioRun> RunScenario(const Scenario& scenario,
                                const MethodRunnerOptions& options) {
  for (const std::string& method : options.methods) {
    if (method != "triclust" && method != "lexvote" && method != "lp10" &&
        method != "userreg10") {
      return Status::InvalidArgument(
          "unknown method '" + method +
          "' (known: triclust, lexvote, lp10, userreg10)");
    }
  }

  const SyntheticDataset dataset = GenerateSynthetic(scenario.config);
  const SentimentLexicon prior =
      CorruptLexicon(dataset.true_lexicon, scenario.lexicon_coverage,
                     scenario.lexicon_error_rate, scenario.lexicon_seed);

  ScenarioRun run;
  run.scenario = scenario.name;

  // Baselines share one builder fit on the whole corpus — the same feature
  // space the engine campaigns use.
  MatrixBuilder baseline_builder;
  bool baseline_fitted = false;
  const auto fitted_builder = [&]() -> const MatrixBuilder& {
    if (!baseline_fitted) {
      baseline_builder.Fit(dataset.corpus);
      baseline_fitted = true;
    }
    return baseline_builder;
  };

  for (const std::string& method : options.methods) {
    if (method == "triclust") {
      run.methods.push_back(
          RunTriclust(scenario, dataset.corpus, prior, options, &run));
    } else if (method == "lexvote") {
      const MatrixBuilder& builder = fitted_builder();
      run.methods.push_back(RunPooledBaseline(
          method, dataset.corpus, builder,
          [&](const DatasetMatrices& data, int /*day*/,
              std::vector<Sentiment>* tweet_pred,
              std::vector<Sentiment>* /*user_pred*/) {
            *tweet_pred = LexiconVote(data.xp, builder.vocabulary(), prior);
          }));
    } else if (method == "lp10") {
      run.methods.push_back(RunPooledBaseline(
          method, dataset.corpus, fitted_builder(),
          [&](const DatasetMatrices& data, int day,
              std::vector<Sentiment>* tweet_pred,
              std::vector<Sentiment>* /*user_pred*/) {
            const auto seeds = SampleSeedLabels(
                data.tweet_labels, options.seed_fraction,
                1000 + static_cast<uint64_t>(day));
            *tweet_pred = PropagateBipartite(data.xp, seeds);
          }));
    } else {  // userreg10
      run.methods.push_back(RunPooledBaseline(
          method, dataset.corpus, fitted_builder(),
          [&](const DatasetMatrices& data, int day,
              std::vector<Sentiment>* tweet_pred,
              std::vector<Sentiment>* user_pred) {
            const auto seeds = SampleSeedLabels(
                data.tweet_labels, options.seed_fraction,
                2000 + static_cast<uint64_t>(day));
            UserRegResult result = RunUserReg(data, seeds);
            *tweet_pred = std::move(result.tweet_predictions);
            *user_pred = std::move(result.user_predictions);
          }));
    }
  }
  return run;
}

ExpectationReport CheckExpectations(const Scenario& scenario,
                                    const ScenarioRun& run) {
  const ScenarioExpectation& expect = scenario.expect;
  ExpectationReport report;
  const auto fail = [&](const std::string& what) {
    report.failures.push_back(what);
  };

  const TimelineAggregate& aggregate = run.triclust_aggregate;
  if (expect.min_tweet_accuracy > 0.0 &&
      !(aggregate.tweet_accuracy >= expect.min_tweet_accuracy)) {
    std::ostringstream oss;
    oss << "tri-cluster tweet accuracy " << aggregate.tweet_accuracy
        << " below floor " << expect.min_tweet_accuracy;
    fail(oss.str());
  }
  if (expect.min_user_accuracy > 0.0 &&
      !(aggregate.user_accuracy >= expect.min_user_accuracy)) {
    std::ostringstream oss;
    oss << "tri-cluster user accuracy " << aggregate.user_accuracy
        << " below floor " << expect.min_user_accuracy;
    fail(oss.str());
  }

  const serving::EngineHealthReport& health = run.final_health;
  if (health.quarantined > expect.max_quarantined) {
    fail("final fleet has " + std::to_string(health.quarantined) +
         " quarantined campaigns (limit " +
         std::to_string(expect.max_quarantined) + ")");
  }
  if (health.healthy < expect.min_healthy) {
    fail("final fleet has " + std::to_string(health.healthy) +
         " healthy campaigns (floor " + std::to_string(expect.min_healthy) +
         ")");
  }
  if (health.retired != expect.expected_retired) {
    fail("final fleet has " + std::to_string(health.retired) +
         " retired campaigns (expected " +
         std::to_string(expect.expected_retired) + ")");
  }

  if (expect.expected_days > 0 &&
      run.replay_horizon_days != expect.expected_days) {
    fail("replay walked " + std::to_string(run.replay_horizon_days) +
         " days (expected " + std::to_string(expect.expected_days) + ")");
  }
  if (run.replay.total_tweets < expect.min_tweets) {
    fail("replay carried " + std::to_string(run.replay.total_tweets) +
         " tweets (floor " + std::to_string(expect.min_tweets) + ")");
  }
  return report;
}

namespace {

void WriteMetric(std::ostream& os, double value) {
  os << ',';
  if (std::isfinite(value)) os << value;
}

void WriteRow(std::ostream& os, const std::string& scenario,
              const std::string& method, int day, size_t tweets_scored,
              double tweet_accuracy, double tweet_nmi, size_t users_scored,
              double user_accuracy, double user_nmi) {
  os << scenario << ',' << method << ',' << day << ',' << tweets_scored;
  WriteMetric(os, tweet_accuracy);
  WriteMetric(os, tweet_nmi);
  os << ',' << users_scored;
  WriteMetric(os, user_accuracy);
  WriteMetric(os, user_nmi);
  os << '\n';
}

}  // namespace

void WriteMethodComparisonCsv(const ScenarioRun& run, std::ostream& os) {
  os << "scenario,method,day,tweets_scored,tweet_accuracy,tweet_nmi,"
        "users_scored,user_accuracy,user_nmi\n";
  for (const MethodTimeline& timeline : run.methods) {
    for (const SnapshotScore& day : timeline.days) {
      WriteRow(os, run.scenario, timeline.method, day.day, day.tweets_scored,
               day.tweet_accuracy, day.tweet_nmi, day.users_scored,
               day.user_accuracy, day.user_nmi);
    }
    // Day -1: the run micro-aggregate (NMI is per-day only).
    const TimelineAggregate& totals = timeline.totals;
    WriteRow(os, run.scenario, timeline.method, -1, totals.tweets_scored,
             totals.tweet_accuracy, serving::kUnscoredMetric,
             totals.users_scored, totals.user_accuracy,
             serving::kUnscoredMetric);
  }
}

Status WriteMethodComparisonCsvFile(const ScenarioRun& run,
                                    const std::string& path) {
  return AtomicWriteFile(path, [&run](std::ostream* os) {
    WriteMethodComparisonCsv(run, *os);
    if (!*os) return Status::IoError("method comparison CSV write failed");
    return Status::OK();
  });
}

}  // namespace triclust
