/// Streaming monitor: the online workflow (paper §4) as a daily campaign
/// dashboard. Consumes the stream one day at a time, prints the estimated
/// sentiment split, the population of new/evolving/disappeared users, flags
/// volume bursts, and — the paper's headline capability — reports users
/// whose estimated sentiment *changed*, with their ground-truth trajectory
/// for verification.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/streaming_monitor

#include <iostream>
#include <map>

#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

void Run() {
  // A campaign with a mid-stream burst (e.g. a debate night).
  SyntheticConfig config = Prop37LikeConfig();
  config.num_days = 21;
  const SyntheticDataset dataset = GenerateSynthetic(config);
  const Corpus& corpus = dataset.corpus;

  MatrixBuilder builder;
  builder.Fit(corpus);
  const SentimentLexicon lexicon =
      CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 7);

  OnlineConfig online_config;
  online_config.base.max_iterations = 60;
  online_config.base.track_loss = false;
  const DenseMatrix sf0 = lexicon.BuildSf0(
      builder.vocabulary(), online_config.base.num_clusters);
  const SnapshotSolver online(online_config, sf0);
  StreamState state;

  // Last reported hard sentiment per user, to detect switches.
  std::map<size_t, int> last_reported;
  double volume_ema = 0.0;

  TableWriter table("Daily campaign dashboard (online tri-clustering)");
  table.SetHeader({"day", "tweets", "pos%", "neg%", "neu%", "new",
                   "evolving", "gone", "switchers", "acc%", "note"});

  size_t verified_switches = 0;
  size_t reported_switches = 0;
  for (const Snapshot& snap : SplitByDay(corpus)) {
    const DatasetMatrices data =
        builder.Build(corpus, snap.tweet_ids, snap.last_day);
    SnapshotSolver::SolveInfo info;
    const TriClusterResult r = online.Solve(data, &state, &info);
    if (data.num_tweets() == 0) continue;

    // Map clusters to classes with the day's labeled subset (a deployment
    // would use the lexicon polarity of each cluster's top features).
    const auto tweet_clusters = r.TweetClusters();
    const auto mapping = MajorityVoteMapping(
        tweet_clusters, data.tweet_labels, online_config.base.num_clusters);

    double share[kNumSentimentClasses] = {0, 0, 0};
    for (int c : tweet_clusters) {
      ++share[SentimentIndex(mapping[static_cast<size_t>(c)])];
    }
    for (double& s : share) s = 100.0 * s / data.num_tweets();

    // Sentiment switchers among evolving users.
    size_t switchers = 0;
    const auto user_clusters = r.UserClusters();
    for (size_t j = 0; j < data.num_users(); ++j) {
      const size_t user = data.user_ids[j];
      const int now =
          SentimentIndex(mapping[static_cast<size_t>(user_clusters[j])]);
      const auto it = last_reported.find(user);
      if (it != last_reported.end() && it->second != now) {
        ++switchers;
        ++reported_switches;
        // Verify against the generator's hidden trajectory.
        if (SentimentIndex(corpus.UserSentimentAt(user, snap.last_day)) ==
            now) {
          ++verified_switches;
        }
      }
      last_reported[user] = now;
    }

    const double acc =
        100.0 * ClusteringAccuracy(tweet_clusters, data.tweet_labels);
    std::string note;
    if (volume_ema > 0.0 && data.num_tweets() > 2.5 * volume_ema) {
      note = "VOLUME BURST";
    }
    volume_ema = volume_ema == 0.0
                     ? data.num_tweets()
                     : 0.7 * volume_ema + 0.3 * data.num_tweets();

    table.AddRow({std::to_string(snap.last_day),
                  std::to_string(data.num_tweets()),
                  TableWriter::Num(share[0], 1),
                  TableWriter::Num(share[1], 1),
                  TableWriter::Num(share[2], 1),
                  std::to_string(info.partition.new_rows.size()),
                  std::to_string(info.partition.evolving_rows.size()),
                  std::to_string(info.partition.num_disappeared),
                  std::to_string(switchers), TableWriter::Num(acc, 1),
                  note});
  }
  table.Print(std::cout);
  std::cout << "\nreported sentiment switches: " << reported_switches
            << " (of which " << verified_switches
            << " match the generator's hidden user trajectory)\n"
            << "Aggregate-volume dashboards miss these individual-level "
               "dynamics entirely (paper §1).\n";
}

}  // namespace
}  // namespace triclust

int main() {
  triclust::Run();
  return 0;
}
