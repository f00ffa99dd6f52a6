#ifndef TRICLUST_BENCH_BENCH_UTIL_H_
#define TRICLUST_BENCH_BENCH_UTIL_H_

#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/offline.h"
#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/timeline_eval.h"
#include "src/serving/campaign_engine.h"
#include "src/serving/replay.h"
#include "src/text/lexicon.h"
#include "src/util/stopwatch.h"

namespace triclust {
namespace bench_util {

/// \file
/// Shared dataset preparation for the bench/ executables and the paper
/// reproduction (bench/reproduction.h).
///
/// Two conventions keep the JSON reports (bench/bench_flags.h) usable by
/// the statistical harness (tools/bench_runner.py):
///
/// - **Preparation is not measurement.** `Prepare` (generation,
///   vectorization, lexicon corruption) runs *outside* any timed section;
///   a reported `real_time` covers only the solve/sweep under study, so
///   repetition statistics measure the kernel, not the generator.
/// - **Determinism.** Every dataset is seeded, so counters derived from
///   the data (accuracy, nnz, label counts) are identical across
///   repetitions and aggregate to zero variance in the harness — a
///   nonzero stddev on such a counter indicates a determinism bug, and
///   the report makes it visible.

/// One fully-prepared experimental dataset: corpus + matrices + the
/// imperfect prior lexicon used as Sf0 (60% coverage, 5% polarity noise —
/// mimicking the automatically-built word lists of Smith et al. [28]).
struct BenchDataset {
  std::string name;
  SyntheticDataset dataset;
  MatrixBuilder builder;
  DatasetMatrices data;
  SentimentLexicon lexicon;
};

inline BenchDataset Prepare(const std::string& name,
                            const SyntheticConfig& config) {
  BenchDataset b;
  b.name = name;
  b.dataset = GenerateSynthetic(config);
  b.builder.Fit(b.dataset.corpus);
  b.data = b.builder.BuildAll(b.dataset.corpus);
  b.lexicon = CorruptLexicon(b.dataset.true_lexicon, /*coverage=*/0.6,
                             /*error_rate=*/0.05, /*seed=*/99);
  return b;
}

/// The Prop-30-like campaign (balanced stances, paper Table 3 row 1).
inline BenchDataset MakeProp30() {
  return Prepare("Prop30-like", Prop30LikeConfig());
}

/// The Prop-37-like campaign (positively skewed, higher volume).
inline BenchDataset MakeProp37() {
  return Prepare("Prop37-like", Prop37LikeConfig());
}

/// One stream processed day by day (paper Figs. 9-12, the online rows of
/// Tables 4/5): each day's score and cost, and the run aggregate.
struct StreamScores {
  /// One score per day of SplitByDay, in day order; a day that scored
  /// nothing has NaN metrics.
  std::vector<SnapshotScore> days;
  /// Milliseconds each of those days cost: snapshot emit plus fit online,
  /// matrix build plus fit offline.
  std::vector<double> solve_ms;
  /// The scored-weighted aggregate over `days` (AggregateScores).
  TimelineAggregate aggregate;

  double TotalMs() const {
    return std::accumulate(solve_ms.begin(), solve_ms.end(), 0.0);
  }
};

/// Algorithm 2 over `corpus` one day at a time, as the serving stack runs
/// it: a one-campaign CampaignEngine with serial fits, fed by ReplayDriver
/// and scored by an attached TimelineEvaluator. `builder` must be Fit on
/// the corpus and `sf0` built over its vocabulary.
inline StreamScores ReplayOnline(const Corpus& corpus,
                                 const MatrixBuilder& builder,
                                 const DenseMatrix& sf0,
                                 const OnlineConfig& config) {
  serving::EngineOptions options;
  options.num_threads = 1;
  serving::CampaignEngine engine(options);
  engine.AddCampaign("stream", config, sf0, builder, &corpus).ValueOrDie();
  serving::ReplayDriver driver(&engine);
  driver.AddStream(0, corpus);
  TimelineEvaluator evaluator(&engine);
  evaluator.Attach(&driver);
  StreamScores run;
  driver.AddObserver(
      [&run](int, const serving::CampaignEngine::SnapshotReport& report) {
        if (report.fitted) run.solve_ms.push_back(report.solve_ms);
      });
  driver.Replay();
  run.days = evaluator.timelines()[0].scores;
  run.aggregate = evaluator.RunAggregate();
  return run;
}

/// The offline comparison rows of Figs. 11/12: Algorithm 1 fitted anew each
/// day, on that day's tweets (mini-batch) or on every tweet seen so far
/// (full batch). Full batch scores today's tweets and every user seen so
/// far. A day without tweets fits nothing.
inline StreamScores RunOfflinePerDay(const Corpus& corpus,
                                     const MatrixBuilder& builder,
                                     const DenseMatrix& sf0,
                                     const TriClusterConfig& config,
                                     bool full_batch) {
  const OfflineTriClusterer offline(config);
  const std::vector<Snapshot> snapshots = SplitByDay(corpus);
  StreamScores run;
  std::vector<size_t> seen;
  for (size_t day = 0; day < snapshots.size(); ++day) {
    const Snapshot& snap = snapshots[day];
    SnapshotScore score;
    score.day = static_cast<int>(day);
    const Stopwatch watch;
    if (snap.size() > 0) {
      if (full_batch) {
        seen.insert(seen.end(), snap.tweet_ids.begin(), snap.tweet_ids.end());
      }
      DatasetMatrices data = builder.Build(
          corpus, full_batch ? seen : snap.tweet_ids, snap.last_day);
      TriClusterResult result = offline.Run(data, sf0);
      if (full_batch) {  // today's tweets are the last rows of the prefix
        const size_t first = data.num_tweets() - snap.size();
        std::vector<size_t> today(snap.size());
        std::iota(today.begin(), today.end(), first);
        result.sp = result.sp.SelectRows(today);
        data.tweet_ids.erase(data.tweet_ids.begin(),
                             data.tweet_ids.begin() + first);
      }
      score = ScoreSnapshot(corpus, data, result, score.day, /*campaign=*/0,
                            snap.last_day);
    }
    run.solve_ms.push_back(watch.ElapsedMillis());
    run.days.push_back(score);
  }
  run.aggregate = AggregateScores(run.days);
  return run;
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n############################################################\n"
            << "# " << title << "\n"
            << "# (synthetic substitute for the paper's California-ballot\n"
            << "#  Twitter collection; see README.md, Substitutions)\n"
            << "############################################################\n";
}

}  // namespace bench_util
}  // namespace triclust

#endif  // TRICLUST_BENCH_BENCH_UTIL_H_
