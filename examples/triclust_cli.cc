/// Command-line front end: run (offline or online) tri-clustering over a
/// corpus TSV and write per-tweet and per-user sentiment assignments.
///
/// Usage:
///   triclust_cli [--online] [--k N] [--alpha A] [--beta B] [--iters I]
///                [--seed-fraction F] [--demo] [--input corpus.tsv]
///                [--output prefix]
///
/// With --demo (default when no --input is given) a synthetic campaign is
/// generated, solved, and scored against its ground truth. With --input,
/// the TSV produced by Corpus::SaveTsv is loaded; assignments are written
/// to <prefix>_tweets.tsv and <prefix>_users.tsv (exit 1 when either cannot
/// be written). A flag value the solvers or the seed sampler would reject,
/// and --seed-fraction > 0 with --online (guided seeding is offline only),
/// print `bad arguments` with the failed requirement and exit 1.

#include <climits>
#include <iostream>
#include <string>
#include <unordered_map>

#include "src/core/config.h"
#include "src/core/offline.h"
#include "src/core/snapshot_solver.h"
#include "src/core/stream_state.h"
#include "src/data/matrix_builder.h"
#include "src/data/snapshots.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/eval/protocol.h"
#include "src/util/file_util.h"
#include "src/util/status.h"
#include "src/util/string_util.h"

namespace triclust {
namespace {

struct CliOptions {
  bool online = false;
  bool demo = false;
  int k = 3;
  double alpha = 0.05;
  double beta = 0.8;
  int iters = 100;
  double seed_fraction = 0.0;  // > 0 enables guided mode (offline only)
  std::string input;
  std::string output = "triclust_out";
};

int Fail(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: triclust_cli [--online] [--k N] [--alpha A] "
               "[--beta B] [--iters I] [--seed-fraction F] [--demo] "
               "[--input corpus.tsv] [--output prefix]\n";
  return 1;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--online") {
      options->online = true;
    } else if (arg == "--demo") {
      options->demo = true;
    } else if (arg == "--k") {
      const char* v = next();
      size_t k = 0;
      if (v == nullptr || !ParseSizeT(v, &k) || k < 2 || k > 3) return false;
      options->k = static_cast<int>(k);
    } else if (arg == "--alpha") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &options->alpha)) return false;
    } else if (arg == "--beta") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &options->beta)) return false;
    } else if (arg == "--iters") {
      const char* v = next();
      long long iters = 0;
      if (v == nullptr || !ParseInt64(v, &iters) || iters < 1 ||
          iters > INT_MAX) {
        return false;
      }
      options->iters = static_cast<int>(iters);
    } else if (arg == "--seed-fraction") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &options->seed_fraction)) {
        return false;
      }
    } else if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      options->input = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      options->output = v;
    } else {
      return false;
    }
  }
  if (options->input.empty()) options->demo = true;
  return true;
}

/// The solver config the flags select.
TriClusterConfig ConfigOf(const CliOptions& options) {
  TriClusterConfig config;
  config.num_clusters = options.k;
  config.alpha = options.alpha;
  config.beta = options.beta;
  config.max_iterations = options.iters;
  config.track_loss = false;
  return config;
}

/// OK when the solvers and the seed sampler accept the parsed flags, else
/// InvalidArgument naming the first requirement that fails.
Status ValidateOptions(const CliOptions& options) {
  TRICLUST_RETURN_IF_ERROR(ValidateConfig(ConfigOf(options)));
  if (!(options.seed_fraction >= 0.0 && options.seed_fraction <= 1.0)) {
    return Status::InvalidArgument("--seed-fraction requires 0 <= F <= 1");
  }
  if (options.online && options.seed_fraction > 0.0) {
    return Status::InvalidArgument(
        "--seed-fraction > 0 requires offline mode (no --online)");
  }
  return Status::OK();
}

int RunCli(const CliOptions& options) {
  // --- load or generate -------------------------------------------------------
  Corpus corpus;
  SentimentLexicon lexicon;
  if (options.demo) {
    std::cerr << "demo mode: generating a synthetic campaign\n";
    SyntheticDataset dataset = GenerateSynthetic(Prop30LikeConfig());
    lexicon = CorruptLexicon(dataset.true_lexicon, 0.6, 0.05, 99);
    corpus = std::move(dataset.corpus);
  } else {
    auto loaded = Corpus::LoadTsv(options.input);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    corpus = std::move(loaded).value();
    lexicon = SentimentLexicon::BuiltinEnglish();
  }
  std::cerr << "corpus: " << corpus.num_tweets() << " tweets, "
            << corpus.num_users() << " users, " << corpus.num_days()
            << " days\n";

  MatrixBuilder builder;
  builder.Fit(corpus);
  const TriClusterConfig config = ConfigOf(options);
  const DenseMatrix sf0 = lexicon.BuildSf0(builder.vocabulary(), options.k);

  // --- solve -------------------------------------------------------------------
  const DatasetMatrices data = builder.BuildAll(corpus);
  std::vector<int> tweet_clusters;
  std::vector<int> user_clusters;
  if (options.online) {
    OnlineConfig online_config;
    online_config.base = config;
    const SnapshotSolver online(online_config, sf0);
    StreamState state;
    tweet_clusters.assign(corpus.num_tweets(), -1);
    std::unordered_map<size_t, int> last_user_cluster;
    for (const Snapshot& snap : SplitByDay(corpus)) {
      const DatasetMatrices day =
          builder.Build(corpus, snap.tweet_ids, snap.last_day);
      const TriClusterResult r = online.Solve(day, &state);
      if (day.num_tweets() == 0) continue;
      const auto tc = r.TweetClusters();
      for (size_t i = 0; i < day.num_tweets(); ++i) {
        tweet_clusters[day.tweet_ids[i]] = tc[i];
      }
      const auto uc = r.UserClusters();
      for (size_t j = 0; j < day.num_users(); ++j) {
        last_user_cluster[day.user_ids[j]] = uc[j];
      }
    }
    user_clusters.assign(corpus.num_users(), -1);
    for (const auto& [user, cluster] : last_user_cluster) {
      user_clusters[user] = cluster;
    }
  } else {
    Supervision supervision;
    const Supervision* supervision_ptr = nullptr;
    if (options.seed_fraction > 0.0) {
      std::vector<Sentiment> truth(corpus.num_tweets());
      for (size_t i = 0; i < corpus.num_tweets(); ++i) {
        truth[i] = corpus.tweet(i).label;
      }
      supervision.tweet_seeds = SampleSeedLabels(truth,
                                                 options.seed_fraction, 1);
      supervision.weight = 1.0;
      supervision_ptr = &supervision;
      std::cerr << "guided mode: seeding "
                << static_cast<int>(options.seed_fraction * 100)
                << "% of tweet labels\n";
    }
    const TriClusterResult r =
        OfflineTriClusterer(config).Run(data, sf0, supervision_ptr);
    tweet_clusters = r.TweetClusters();
    // Scatter user rows back to corpus user ids (users with no tweets have
    // no row and stay unassigned).
    user_clusters.assign(corpus.num_users(), -1);
    const auto rows = r.UserClusters();
    for (size_t j = 0; j < data.user_ids.size(); ++j) {
      user_clusters[data.user_ids[j]] = rows[j];
    }
  }

  // --- score (when ground truth exists) and write -------------------------------
  std::vector<Sentiment> tweet_truth(corpus.num_tweets());
  for (size_t i = 0; i < corpus.num_tweets(); ++i) {
    tweet_truth[i] = corpus.tweet(i).label;
  }
  std::vector<Sentiment> user_truth(corpus.num_users());
  for (size_t u = 0; u < corpus.num_users(); ++u) {
    user_truth[u] = corpus.user(u).label;
  }
  const auto labeled = corpus.CountTweetLabels();
  if (labeled.positive + labeled.negative + labeled.neutral > 0) {
    std::cout << "tweet-level: accuracy "
              << 100.0 * ClusteringAccuracy(tweet_clusters, tweet_truth)
              << "%  NMI "
              << 100.0 *
                     NormalizedMutualInformation(tweet_clusters, tweet_truth)
              << "%  ARI "
              << AdjustedRandIndex(tweet_clusters, tweet_truth) << "\n";
    std::cout << "user-level:  accuracy "
              << 100.0 * ClusteringAccuracy(user_clusters, user_truth)
              << "%  NMI "
              << 100.0 *
                     NormalizedMutualInformation(user_clusters, user_truth)
              << "%\n";
  }

  const auto mapping =
      MajorityVoteMapping(tweet_clusters, tweet_truth, options.k);
  Status written =
      AtomicWriteFile(options.output + "_tweets.tsv", [&](std::ostream* out) {
        *out << "#tweet_id\tcluster\tsentiment\n";
        for (size_t i = 0; i < tweet_clusters.size(); ++i) {
          const Sentiment s = tweet_clusters[i] >= 0
                                  ? mapping[static_cast<size_t>(
                                        tweet_clusters[i])]
                                  : Sentiment::kUnlabeled;
          *out << i << "\t" << tweet_clusters[i] << "\t" << SentimentName(s)
               << "\n";
        }
        return Status::OK();
      });
  if (written.ok()) {
    written =
        AtomicWriteFile(options.output + "_users.tsv", [&](std::ostream* out) {
          *out << "#user_id\thandle\tcluster\n";
          for (size_t u = 0; u < user_clusters.size(); ++u) {
            *out << u << "\t" << corpus.user(u).handle << "\t"
                 << user_clusters[u] << "\n";
          }
          return Status::OK();
        });
  }
  if (!written.ok()) {
    std::cerr << "error: " << written.ToString() << "\n";
    return 1;
  }
  std::cerr << "wrote " << options.output << "_tweets.tsv and "
            << options.output << "_users.tsv\n";
  return 0;
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  triclust::CliOptions options;
  if (!triclust::ParseArgs(argc, argv, &options)) {
    return triclust::Fail("bad arguments");
  }
  const triclust::Status valid = triclust::ValidateOptions(options);
  if (!valid.ok()) return triclust::Fail("bad arguments: " + valid.message());
  return triclust::RunCli(options);
}
