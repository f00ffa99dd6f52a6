/// Tests of the replay driver (src/serving/replay.h): bitwise equivalence
/// of a replayed stream against direct per-day solves and of a
/// provider-bound stream against a materialized one, corpus partitioning
/// into topic streams, deadline-deferral accounting, and the TSV-loader →
/// replay pipeline end-to-end.

#include "src/serving/replay.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/snapshot_solver.h"
#include "src/data/corpus_io.h"
#include "src/data/snapshots.h"
#include "tests/test_util.h"

namespace triclust {
namespace {

using testing_util::MakeSmallProblem;
using testing_util::SmallProblem;

OnlineConfig FastConfig() {
  OnlineConfig config;
  config.base.max_iterations = 15;
  config.base.track_loss = false;
  return config;
}

void ExpectSameFactors(const TriClusterResult& got,
                       const TriClusterResult& expected,
                       const std::string& context) {
  EXPECT_EQ(got.sp, expected.sp) << context;
  EXPECT_EQ(got.su, expected.su) << context;
  EXPECT_EQ(got.sf, expected.sf) << context;
}

TEST(PartitionTest, CoversEveryTweetExactlyOnceAndAlignsDays) {
  const SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  const auto streams = serving::PartitionIntoStreams(corpus, 3);
  ASSERT_EQ(streams.size(), 3u);

  std::vector<int> seen(corpus.num_tweets(), 0);
  for (size_t s = 0; s < streams.size(); ++s) {
    // Day-aligned: every stream has one entry per corpus day.
    ASSERT_EQ(streams[s].size(), static_cast<size_t>(corpus.num_days()));
    for (size_t day = 0; day < streams[s].size(); ++day) {
      EXPECT_EQ(streams[s][day].first_day, static_cast<int>(day));
      for (size_t id : streams[s][day].tweet_ids) {
        ++seen[id];
        // Author-disjoint partition, day-faithful placement.
        EXPECT_EQ(corpus.tweet(id).user % streams.size(), s);
        EXPECT_EQ(corpus.tweet(id).day, static_cast<int>(day));
      }
    }
  }
  for (size_t id = 0; id < seen.size(); ++id) {
    EXPECT_EQ(seen[id], 1) << "tweet " << id;
  }
}

TEST(ReplayTest, MatchesDirectPerDaySolveBitwise) {
  // The acceptance gate of the replay path: driving partitioned streams
  // through Ingest/Advance must reproduce, bit for bit, a direct
  // MatrixBuilder::Build + SnapshotSolver::Solve loop over the same days.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  const auto streams = serving::PartitionIntoStreams(corpus, 2);

  serving::CampaignEngine engine;
  for (size_t s = 0; s < streams.size(); ++s) {
    engine.AddCampaign("topic-" + std::to_string(s), FastConfig(),
                       problem.sf0, problem.builder, &corpus).ValueOrDie();
  }
  serving::ReplayDriver driver(&engine);
  for (size_t s = 0; s < streams.size(); ++s) {
    driver.AddStream(s, streams[s]);
  }

  std::vector<std::vector<TriClusterResult>> replayed(streams.size());
  std::vector<std::vector<int>> replayed_days(streams.size());
  driver.AddObserver(
      [&](int day, const serving::CampaignEngine::SnapshotReport& r) {
        ASSERT_TRUE(r.fitted);
        replayed[r.campaign].push_back(r.result);
        replayed_days[r.campaign].push_back(day);
      });

  const serving::ReplayStats stats = driver.Replay();
  EXPECT_EQ(stats.total_tweets, corpus.num_tweets());
  EXPECT_EQ(stats.total_deferred, 0u);

  for (size_t s = 0; s < streams.size(); ++s) {
    ASSERT_EQ(replayed[s].size(), streams[s].size());
    const SnapshotSolver solver(FastConfig(), problem.sf0);
    StreamState state;
    for (size_t day = 0; day < streams[s].size(); ++day) {
      const DatasetMatrices data = problem.builder.Build(
          corpus, streams[s][day].tweet_ids, streams[s][day].last_day);
      const TriClusterResult expected = solver.Solve(data, &state);
      EXPECT_EQ(replayed_days[s][day], static_cast<int>(day));
      ExpectSameFactors(replayed[s][day], expected,
                        "stream " + std::to_string(s) + " day " +
                            std::to_string(day));
    }
  }
}

TEST(ReplayTest, ProviderStreamMatchesMaterializedStreamPullingEachDayOnce) {
  // The streaming replay binds each campaign to a provider that yields a
  // day-chunk once. Bound to the same day splits, a provider stream must
  // fit what a materialized stream fits, bit for bit, and the driver must
  // pull every day exactly once, in ascending day order.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  const std::vector<Snapshot> days = SplitByDay(corpus);
  ASSERT_GT(days.size(), 1u);

  struct Run {
    serving::ReplayStats stats;
    std::vector<TriClusterResult> fits;
  };
  auto replay = [&](std::vector<int>* pulls) {
    serving::CampaignEngine engine;
    engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                       &corpus).ValueOrDie();
    serving::ReplayDriver driver(&engine);
    if (pulls != nullptr) {
      driver.AddStream(0, static_cast<int>(days.size()),
                       [&days, pulls](int day) {
                         pulls->push_back(day);
                         return days.at(static_cast<size_t>(day));
                       });
    } else {
      driver.AddStream(0, days);
    }
    Run run;
    driver.AddObserver(
        [&run](int, const serving::CampaignEngine::SnapshotReport& r) {
          if (r.fitted) run.fits.push_back(r.result);
        });
    run.stats = driver.Replay();
    return run;
  };

  std::vector<int> pulls;
  const Run pulled = replay(&pulls);
  const Run materialized = replay(nullptr);

  std::vector<int> each_day_once(days.size());
  for (size_t day = 0; day < days.size(); ++day) {
    each_day_once[day] = static_cast<int>(day);
  }
  EXPECT_EQ(pulls, each_day_once);
  EXPECT_EQ(pulled.stats.total_tweets, corpus.num_tweets());
  EXPECT_EQ(pulled.stats.total_tweets, materialized.stats.total_tweets);
  EXPECT_EQ(pulled.stats.total_fits, materialized.stats.total_fits);
  ASSERT_EQ(pulled.fits.size(), materialized.fits.size());
  ASSERT_FALSE(materialized.fits.empty());
  for (size_t i = 0; i < pulled.fits.size(); ++i) {
    const std::string context = "fit " + std::to_string(i);
    ExpectSameFactors(pulled.fits[i], materialized.fits[i], context);
    EXPECT_EQ(pulled.fits[i].hp, materialized.fits[i].hp) << context;
    EXPECT_EQ(pulled.fits[i].hu, materialized.fits[i].hu) << context;
  }
}

TEST(ReplayTest, TsvLoadedCorpusReplaysIdenticallyToInMemoryCorpus) {
  // End-to-end over the on-disk boundary: corpus → WriteTsv → ReadTsv →
  // replay must match replaying the original in-memory corpus.
  SmallProblem problem = MakeSmallProblem(7);
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(problem.dataset.corpus, &out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Corpus& reloaded = loaded.value();

  auto run = [&](const Corpus& corpus) {
    MatrixBuilder builder;
    builder.Fit(corpus);
    serving::CampaignEngine engine;
    engine.AddCampaign("c0", FastConfig(), problem.sf0, builder, &corpus).ValueOrDie();
    serving::ReplayDriver driver(&engine);
    driver.AddStream(0, corpus);
    std::vector<TriClusterResult> results;
    driver.AddObserver(
        [&](int, const serving::CampaignEngine::SnapshotReport& r) {
          results.push_back(r.result);
        });
    driver.Replay();
    return results;
  };

  const auto original = run(problem.dataset.corpus);
  const auto from_disk = run(reloaded);
  ASSERT_EQ(from_disk.size(), original.size());
  ASSERT_FALSE(original.empty());
  for (size_t i = 0; i < original.size(); ++i) {
    ExpectSameFactors(from_disk[i], original[i],
                      "snapshot " + std::to_string(i));
  }
}

TEST(ReplayTest, DeadlineDefersAndDrainCatchesUp) {
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  serving::ReplayOptions options;
  options.deadline_ms = 1e-9;  // effectively expired: every fit defers
  options.include_idle = false;
  const serving::ReplayStats stats = driver.Replay(options);

  // Every day deferred; the drain pass fits one big batched snapshot.
  EXPECT_EQ(stats.total_deferred,
            static_cast<size_t>(corpus.num_days()));
  EXPECT_EQ(stats.total_fits, 1u);
  ASSERT_EQ(stats.days.size(),
            static_cast<size_t>(corpus.num_days()) + 1);
  EXPECT_EQ(stats.days.back().day, corpus.num_days());
  EXPECT_EQ(engine.num_pending(0), 0u);
  EXPECT_EQ(engine.state(0).timestep, 1);
  EXPECT_EQ(stats.campaigns[0].tweets, corpus.num_tweets());
}

TEST(ReplayTest, SpeedupIgnoredWhenPacingDisabled) {
  // Regression: Replay() used to CHECK speedup > 0 unconditionally, even
  // though replay.h documents speedup as ignored when day_interval_ms is
  // 0 — an unpaced run with a zero speedup crashed instead of replaying.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  serving::ReplayOptions options;
  options.day_interval_ms = 0.0;  // pacing off → speedup must be ignored
  options.speedup = 0.0;
  const serving::ReplayStats stats = driver.Replay(options);
  EXPECT_EQ(stats.total_tweets, corpus.num_tweets());
  EXPECT_EQ(stats.days.size(), static_cast<size_t>(corpus.num_days()));
  for (const auto& d : stats.days) EXPECT_DOUBLE_EQ(d.wait_ms, 0.0);
}

TEST(ReplayDeathTest, PacedReplayStillRejectsNonPositiveSpeedup) {
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  serving::ReplayOptions options;
  options.day_interval_ms = 10.0;  // pacing on → speedup is validated
  options.speedup = 0.0;
  EXPECT_DEATH(driver.Replay(options), "check failed");
}

TEST(ReplayTest, DeferralEventAccountingAcrossDrain) {
  // Pins the deferral semantics documented on ReplayDayStats: `deferred`
  // counts per-day deferral events, so one queued fit deferred every day
  // yields one event per day; the drain pass runs deadline-free, so the
  // drain entry records only the batched fit and never a deferral; and
  // the run totals are exactly the column sums of the day entries.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  serving::ReplayOptions options;
  options.deadline_ms = 1e-9;  // effectively expired: every fit defers
  options.include_idle = false;
  const serving::ReplayStats stats = driver.Replay(options);

  const size_t days = static_cast<size_t>(corpus.num_days());
  ASSERT_EQ(stats.days.size(), days + 1);
  size_t fits_sum = 0;
  size_t deferred_sum = 0;
  for (size_t d = 0; d < days; ++d) {
    EXPECT_EQ(stats.days[d].fits, 0u) << "day " << d;
    EXPECT_EQ(stats.days[d].deferred, 1u) << "day " << d;
    fits_sum += stats.days[d].fits;
    deferred_sum += stats.days[d].deferred;
  }
  // Drain entry: one deadline-free batched fit, never a deferral event.
  const serving::ReplayDayStats& drain = stats.days.back();
  EXPECT_EQ(drain.day, corpus.num_days());
  EXPECT_EQ(drain.fits, 1u);
  EXPECT_EQ(drain.deferred, 0u);
  fits_sum += drain.fits;
  deferred_sum += drain.deferred;

  EXPECT_EQ(stats.total_fits, fits_sum);
  EXPECT_EQ(stats.total_deferred, deferred_sum);
  // Campaign totals mirror the events: the one drained snapshot is not
  // double-counted against the day-level deferrals.
  EXPECT_EQ(stats.campaigns[0].snapshots, 1u);
  EXPECT_EQ(stats.campaigns[0].deferred, days);
  EXPECT_EQ(stats.campaigns[0].tweets, corpus.num_tweets());
}

TEST(ReplayTest, IdleCampaignMissingDeadlineIsNotADeferralEvent) {
  // Regression: a campaign with an empty queue (advanced only because
  // include_idle keeps its timestep aligned) that missed the deadline
  // used to count as a deferred fit on every day — inflating
  // ReplayDayStats::deferred, CampaignReplayStats::deferred, and
  // total_deferred with fits that never existed.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("fed", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  engine.AddCampaign("idle", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);  // campaign 1 never receives tweets

  serving::ReplayOptions options;
  options.deadline_ms = 1e-9;
  options.include_idle = true;
  const serving::ReplayStats stats = driver.Replay(options);

  const size_t days = static_cast<size_t>(corpus.num_days());
  // Only the fed campaign's pending fits are deferral events.
  EXPECT_EQ(stats.campaigns[0].deferred, days);
  EXPECT_EQ(stats.campaigns[1].deferred, 0u);
  EXPECT_EQ(stats.total_deferred, days);
  for (size_t d = 0; d < days; ++d) {
    EXPECT_LE(stats.days[d].deferred, 1u) << "day " << d;
  }
  // The drain still catches the fed campaign up.
  EXPECT_EQ(engine.num_pending(0), 0u);
  EXPECT_EQ(stats.campaigns[0].snapshots, 1u);
}

TEST(ReplayTest, ZeroEventDaysUnderDeadlineAreNotDeferralEvents) {
  // The empty-day extension of the idle-campaign case above: here the
  // campaign HAS a bound stream, but every one of its days is a
  // zero-event snapshot — the shape degenerate scenarios (empty_days,
  // src/data/scenario.h) inject. A zero-event day leaves the queue empty,
  // so missing the deadline on it defers no fit and must not count.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("fed", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  engine.AddCampaign("dead-days", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);
  std::vector<Snapshot> dead(static_cast<size_t>(corpus.num_days()));
  for (size_t d = 0; d < dead.size(); ++d) {
    dead[d].first_day = static_cast<int>(d);
    dead[d].last_day = static_cast<int>(d);
  }
  driver.AddStream(1, std::move(dead));

  serving::ReplayOptions options;
  options.deadline_ms = 1e-9;
  options.include_idle = true;
  const serving::ReplayStats stats = driver.Replay(options);

  const size_t days = static_cast<size_t>(corpus.num_days());
  EXPECT_EQ(stats.campaigns[0].deferred, days);
  EXPECT_EQ(stats.campaigns[1].deferred, 0u);
  EXPECT_EQ(stats.total_deferred, days);
  for (size_t d = 0; d < days; ++d) {
    EXPECT_LE(stats.days[d].deferred, 1u) << "day " << d;
  }
  // The drain catches the fed campaign up; the dead-days campaign never
  // had anything to fit.
  EXPECT_EQ(engine.num_pending(0), 0u);
  EXPECT_EQ(stats.campaigns[0].snapshots, 1u);
  EXPECT_EQ(stats.campaigns[1].snapshots, 0u);
}

TEST(ReplayTest, TrailingDeadDaysAfterAFitAreNotDeferralEvents) {
  // No deadline at all: a campaign fed on day 0 and silent afterwards
  // keeps advancing (include_idle aligns its timestep) but has no pending
  // fit on the dead days, so every deferral counter must stay zero and no
  // drain entry may appear.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("front-loaded", FastConfig(), problem.sf0,
                     problem.builder, &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  auto stream = serving::PartitionIntoStreams(corpus, 1)[0];
  for (size_t d = 1; d < stream.size(); ++d) stream[d].tweet_ids.clear();
  driver.AddStream(0, std::move(stream));

  serving::ReplayOptions options;
  options.include_idle = true;
  const serving::ReplayStats stats = driver.Replay(options);

  const size_t days = static_cast<size_t>(corpus.num_days());
  ASSERT_EQ(stats.days.size(), days);  // no drain entry
  for (size_t d = 0; d < days; ++d) {
    EXPECT_EQ(stats.days[d].deferred, 0u) << "day " << d;
    EXPECT_EQ(stats.days[d].fits, d == 0 ? 1u : 0u) << "day " << d;
  }
  EXPECT_EQ(stats.total_deferred, 0u);
  EXPECT_EQ(stats.campaigns[0].deferred, 0u);
  EXPECT_EQ(stats.campaigns[0].snapshots, 1u);
  // Timestep alignment: the dead days still advanced the campaign clock.
  EXPECT_EQ(engine.state(0).timestep, static_cast<int>(days));
}

TEST(ReplayTest, ObserversSeeEveryReportInRegistrationOrder) {
  // AddObserver is additive: any number of observers (the evaluation
  // harness attaches this way) all see the same reports, in registration
  // order.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  size_t first_reports = 0;
  size_t second_reports = 0;
  driver.AddObserver(
      [&](int, const serving::CampaignEngine::SnapshotReport&) {
        EXPECT_EQ(first_reports, second_reports);
        ++first_reports;
      });
  driver.AddObserver(
      [&](int, const serving::CampaignEngine::SnapshotReport& r) {
        ++second_reports;
        EXPECT_EQ(first_reports, second_reports);
        EXPECT_TRUE(r.fitted);
      });

  const serving::ReplayStats stats = driver.Replay();
  EXPECT_GT(stats.total_fits, 0u);
  EXPECT_EQ(first_reports, stats.total_fits);
  EXPECT_EQ(second_reports, stats.total_fits);
}

TEST(ReplayTest, PacedReplayRespectsReleaseSchedule) {
  // 2 days, 400 ms interval at speedup 2 → day 1 releases at 200 ms, so
  // the run cannot finish before that. The margin is far above any
  // plausible fit time for this problem, so some pacing wait must occur
  // even on a slow, contended CI machine.
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);

  serving::ReplayOptions options;
  options.day_interval_ms = 400.0;
  options.speedup = 2.0;
  options.max_days = 2;
  const serving::ReplayStats stats = driver.Replay(options);
  ASSERT_EQ(stats.days.size(), 2u);
  EXPECT_GE(stats.wall_ms, 200.0);
  double waited = 0.0;
  for (const auto& d : stats.days) waited += d.wait_ms;
  EXPECT_GT(waited, 0.0);
}

TEST(ReplayTest, MaxDaysTruncatesTheRun) {
  SmallProblem problem = MakeSmallProblem(5);
  const Corpus& corpus = problem.dataset.corpus;
  serving::CampaignEngine engine;
  engine.AddCampaign("c0", FastConfig(), problem.sf0, problem.builder,
                     &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);
  ASSERT_GT(driver.num_days(), 2);

  serving::ReplayOptions options;
  options.max_days = 2;
  const serving::ReplayStats stats = driver.Replay(options);
  EXPECT_EQ(stats.days.size(), 2u);
  EXPECT_EQ(engine.state(0).timestep, 2);
}

}  // namespace
}  // namespace triclust
