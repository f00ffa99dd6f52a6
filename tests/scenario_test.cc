/// Tests of the adversarial scenario suite (src/data/scenario.h) and the
/// multi-method runner (src/eval/method_runner.h): catalog integrity and
/// scaling, every scenario's seeded expectation record at reduced scale,
/// fleet health under the spam flood, bitwise replay-vs-direct equality
/// for a churned campaign fleet, and the method-comparison CSV shape.

#include "src/data/scenario.h"

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/snapshot_solver.h"
#include "src/data/matrix_builder.h"
#include "src/data/synthetic.h"
#include "src/eval/method_runner.h"
#include "src/serving/replay.h"
#include "src/text/lexicon.h"
#include "src/util/string_util.h"

namespace triclust {
namespace {

// The expectation floors are calibrated to hold at any scale >= 0.5; the
// suite runs at the reduced scale CI uses so the two gates agree.
constexpr double kTestScale = 0.5;

MethodRunnerOptions TriclustOnly() {
  MethodRunnerOptions options;
  options.methods = {"triclust"};
  return options;
}

TEST(ScenarioCatalogTest, ListsEveryScenarioAndRejectsUnknowns) {
  const std::vector<std::string> names = ScenarioNames();
  ASSERT_GE(names.size(), 5u);
  for (const std::string& name : names) {
    Result<Scenario> scenario = GetScenario(name);
    ASSERT_TRUE(scenario.ok()) << name;
    EXPECT_EQ(scenario.value().name, name);
    EXPECT_FALSE(scenario.value().description.empty()) << name;
    // Every record carries a checkable accuracy floor and day horizon.
    EXPECT_GT(scenario.value().expect.min_tweet_accuracy, 0.0) << name;
    EXPECT_GT(scenario.value().expect.min_user_accuracy, 0.0) << name;
    EXPECT_GT(scenario.value().expect.expected_days, 0) << name;
    EXPECT_GT(scenario.value().expect.min_tweets, 0u) << name;
  }
  EXPECT_EQ(AllScenarios().size(), names.size());

  const Result<Scenario> unknown = GetScenario("no_such_scenario");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(ScenarioCatalogTest, ScaleShrinksPopulationButKeepsDayStructure) {
  const Result<Scenario> full = GetScenario("spam_botnet", 1.0);
  const Result<Scenario> half = GetScenario("spam_botnet", 0.5);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(half.ok());
  EXPECT_LT(half.value().config.num_users, full.value().config.num_users);
  EXPECT_LT(half.value().config.num_spam_users,
            full.value().config.num_spam_users);
  EXPECT_LT(half.value().expect.min_tweets, full.value().expect.min_tweets);
  // Day structure is scale-invariant: same horizon, same burst days.
  EXPECT_EQ(half.value().config.num_days, full.value().config.num_days);
  EXPECT_EQ(half.value().config.burst_days, full.value().config.burst_days);
  // Floors are the same record at every valid scale.
  EXPECT_EQ(half.value().expect.min_tweet_accuracy,
            full.value().expect.min_tweet_accuracy);

  for (const double bad : {0.0, -1.0, 1.5}) {
    const Result<Scenario> rejected = GetScenario("spam_botnet", bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ScenarioSuiteTest, EveryScenarioMeetsItsExpectationRecord) {
  // The seeded regression gate: each scenario replayed through the
  // serving stack must satisfy its own machine-readable expectations
  // (accuracy floors, quarantine limits, churn outcome, day horizon).
  // Runs are bit-deterministic, so a miss is a robustness regression,
  // not noise.
  for (const Scenario& scenario : AllScenarios(kTestScale)) {
    const Result<ScenarioRun> run = RunScenario(scenario, TriclustOnly());
    ASSERT_TRUE(run.ok()) << scenario.name << ": "
                          << run.status().ToString();
    const ExpectationReport report =
        CheckExpectations(scenario, run.value());
    EXPECT_TRUE(report.ok()) << scenario.name << " missed: "
                             << Join(report.failures, "; ");
  }
}

TEST(ScenarioSuiteTest, SpamFloodDegradesAccuracyButNeverQuarantines) {
  // Spam is noise, not poison: a flood of high-polarity unlabeled bot
  // traffic can depress accuracy, but it cannot produce non-finite
  // factors, so the health ladder must not move — no campaign degraded,
  // quarantined, or retired by the attack.
  Result<Scenario> scenario_or = GetScenario("spam_botnet", kTestScale);
  ASSERT_TRUE(scenario_or.ok());
  const Scenario scenario = std::move(scenario_or).value();
  ASSERT_GT(scenario.config.num_spam_users, 0u);

  const Result<ScenarioRun> run_or = RunScenario(scenario, TriclustOnly());
  ASSERT_TRUE(run_or.ok()) << run_or.status().ToString();
  const ScenarioRun& run = run_or.value();

  EXPECT_EQ(run.final_health.quarantined, 0u);
  EXPECT_EQ(run.final_health.degraded, 0u);
  EXPECT_EQ(run.final_health.retired, 0u);
  EXPECT_EQ(run.final_health.healthy, scenario.num_campaigns);
  // The floor still holds under the flood.
  EXPECT_GE(run.triclust_aggregate.tweet_accuracy,
            scenario.expect.min_tweet_accuracy);
  EXPECT_GE(run.triclust_aggregate.user_accuracy,
            scenario.expect.min_user_accuracy);
}

TEST(ScenarioSuiteTest, UnknownMethodIsInvalidArgument) {
  Result<Scenario> scenario = GetScenario("empty_days", kTestScale);
  ASSERT_TRUE(scenario.ok());
  MethodRunnerOptions options;
  options.methods = {"triclust", "svm_rumor"};
  const Result<ScenarioRun> run = RunScenario(scenario.value(), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScenarioChurnTest, ChurnedFleetMatchesSoloReplaysBitwise) {
  // The churn invariant: a campaign that lived through fleet churn —
  // co-hosted with campaigns that were retired and launched around it —
  // must produce factors bit-identical to replaying its own slice alone
  // over its own active window. Churn may not leak across campaigns.
  Result<Scenario> scenario_or = GetScenario("campaign_churn", kTestScale);
  ASSERT_TRUE(scenario_or.ok());
  const Scenario scenario = std::move(scenario_or).value();
  ASSERT_FALSE(scenario.churn.empty());

  const SyntheticDataset dataset = GenerateSynthetic(scenario.config);
  const Corpus& corpus = dataset.corpus;
  const SentimentLexicon prior =
      CorruptLexicon(dataset.true_lexicon, scenario.lexicon_coverage,
                     scenario.lexicon_error_rate, scenario.lexicon_seed);
  MatrixBuilder builder;
  builder.Fit(corpus);
  const DenseMatrix sf0 = prior.BuildSf0(builder.vocabulary(), 3);
  OnlineConfig config;
  config.base.max_iterations = 15;
  config.base.track_loss = false;

  const size_t num_streams = scenario.NumStreams();
  const auto streams = serving::PartitionIntoStreams(corpus, num_streams);

  serving::CampaignEngine engine;
  serving::ReplayDriver driver(&engine);
  for (size_t c = 0; c < scenario.num_campaigns; ++c) {
    Result<size_t> id = engine.AddCampaign("churn-" + std::to_string(c),
                                           config, sf0, builder, &corpus);
    ASSERT_TRUE(id.ok());
    driver.AddStream(id.value(), streams[c]);
  }
  // Mirror the method runner's churn hook: retire / launch before the
  // day's traffic is released; launches take the next stream slice.
  std::vector<int> launch_day(num_streams, 0);
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
      ASSERT_TRUE(id.ok());
      launch_day[id.value()] = day;
      ASSERT_LT(next_stream, streams.size());
      driver.AddStream(id.value(), streams[next_stream++]);
    }
  });
  std::vector<std::vector<TriClusterResult>> replayed(num_streams);
  driver.AddObserver(
      [&](int /*day*/, const serving::CampaignEngine::SnapshotReport& r) {
        if (r.fitted) replayed[r.campaign].push_back(r.result);
      });
  driver.Replay();
  ASSERT_EQ(engine.num_campaigns(), num_streams);

  // Active window per campaign: [launch day, retirement day) — the hook
  // fires before ingest, so a campaign retired on day d last saw day d-1.
  std::vector<int> end_day(num_streams, corpus.num_days());
  for (const ChurnEvent& event : scenario.churn) {
    if (event.action == ChurnEvent::Action::kRetire) {
      end_day[event.campaign] = event.day;
    }
  }
  for (size_t c = 0; c < num_streams; ++c) {
    const SnapshotSolver solver(config, sf0);
    StreamState state;
    size_t cursor = 0;
    for (int day = launch_day[c]; day < end_day[c]; ++day) {
      const Snapshot& snap = streams[c][static_cast<size_t>(day)];
      const DatasetMatrices data =
          builder.Build(corpus, snap.tweet_ids, snap.last_day);
      const TriClusterResult expected = solver.Solve(data, &state);
      ASSERT_LT(cursor, replayed[c].size())
          << "campaign " << c << " day " << day;
      EXPECT_EQ(replayed[c][cursor].su, expected.su)
          << "campaign " << c << " day " << day;
      EXPECT_EQ(replayed[c][cursor].sp, expected.sp)
          << "campaign " << c << " day " << day;
      EXPECT_EQ(replayed[c][cursor].sf, expected.sf)
          << "campaign " << c << " day " << day;
      ++cursor;
    }
    EXPECT_EQ(cursor, replayed[c].size()) << "campaign " << c;
  }
}

TEST(MethodComparisonTest, CsvCarriesEveryMethodDayAndAggregateRow) {
  Result<Scenario> scenario_or = GetScenario("empty_days", kTestScale);
  ASSERT_TRUE(scenario_or.ok());
  const Scenario scenario = std::move(scenario_or).value();

  MethodRunnerOptions options;
  options.methods = {"triclust", "lexvote"};
  const Result<ScenarioRun> run_or = RunScenario(scenario, options);
  ASSERT_TRUE(run_or.ok()) << run_or.status().ToString();
  const ScenarioRun& run = run_or.value();

  ASSERT_EQ(run.methods.size(), 2u);
  const MethodTimeline* triclust = run.FindMethod("triclust");
  const MethodTimeline* lexvote = run.FindMethod("lexvote");
  ASSERT_NE(triclust, nullptr);
  ASSERT_NE(lexvote, nullptr);
  EXPECT_EQ(run.FindMethod("lp10"), nullptr);
  // Both methods walk the same day horizon, so the timelines plot on a
  // shared axis.
  ASSERT_EQ(triclust->days.size(),
            static_cast<size_t>(run.replay_horizon_days));
  ASSERT_EQ(lexvote->days.size(), triclust->days.size());
  // Dead days score nothing for every method (NaN metrics, 0 items).
  for (const MethodTimeline* m : {triclust, lexvote}) {
    EXPECT_EQ(m->days[0].tweets_scored, 0u) << m->method;
    EXPECT_TRUE(std::isnan(m->days[0].tweet_accuracy)) << m->method;
    EXPECT_GT(m->totals.tweets_scored, 0u) << m->method;
    EXPECT_TRUE(std::isfinite(m->totals.tweet_accuracy)) << m->method;
  }

  std::ostringstream csv;
  WriteMethodComparisonCsv(run, csv);
  const std::vector<std::string> lines = Split(csv.str(), '\n');
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0],
            "scenario,method,day,tweets_scored,tweet_accuracy,tweet_nmi,"
            "users_scored,user_accuracy,user_nmi");
  // One row per (method, day) plus one day -1 aggregate row per method,
  // plus the trailing newline's empty split.
  const size_t expected_rows = 2 * (triclust->days.size() + 1);
  ASSERT_EQ(lines.size(), 1 + expected_rows + 1);
  // A dead day serializes its NaN metrics as empty fields.
  EXPECT_EQ(lines[1], "empty_days,triclust,0,0,,,0,,");
  // The aggregate rows are day -1 and carry finite accuracies.
  EXPECT_NE(lines[1 + triclust->days.size()].find(",triclust,-1,"),
            std::string::npos);
  EXPECT_NE(lines[expected_rows].find(",lexvote,-1,"), std::string::npos);
}

}  // namespace
}  // namespace triclust
