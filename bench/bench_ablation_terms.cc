/// Ablation of each objective term (user–tweet coupling Xr, lexicon prior
/// α·Sf0, graph regularization β·Lu), the initialization strategy, and —
/// for the online framework — the temporal regularization and the online
/// refinements listed in README.md, "Substitutions". Not a paper table; it
/// isolates *why* the full objective wins.

#include <iostream>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/core/offline.h"
#include "src/eval/metrics.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

struct Scores {
  double tweet_acc = 0.0;
  double user_acc = 0.0;
  double tweet_nmi = 0.0;
  double user_nmi = 0.0;
};

Scores Score(const TriClusterResult& r, const DatasetMatrices& data) {
  Scores s;
  s.tweet_acc = 100.0 * ClusteringAccuracy(r.TweetClusters(),
                                           data.tweet_labels);
  s.user_acc =
      100.0 * ClusteringAccuracy(r.UserClusters(), data.user_labels);
  s.tweet_nmi = 100.0 * NormalizedMutualInformation(r.TweetClusters(),
                                                    data.tweet_labels);
  s.user_nmi = 100.0 * NormalizedMutualInformation(r.UserClusters(),
                                                   data.user_labels);
  return s;
}

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader(
      "Ablation: contribution of each objective term / design choice");
  const bench_util::BenchDataset b = bench_util::MakeProp30();
  TriClusterConfig base;
  base.max_iterations = flags.ScaledIters(80);
  base.track_loss = false;
  const DenseMatrix sf0 =
      b.lexicon.BuildSf0(b.builder.vocabulary(), base.num_clusters);

  TableWriter table("Offline ablation (Prop-30-like)");
  table.SetHeader({"variant", "tweet acc", "user acc", "tweet NMI",
                   "user NMI"});
  auto add = [&](const std::string& name, const std::string& slug,
                 const TriClusterConfig& config, const DatasetMatrices& data) {
    const Stopwatch watch;
    const Scores s = Score(OfflineTriClusterer(config).Run(data, sf0), b.data);
    const double fit_ms = watch.ElapsedMillis();
    table.AddRow({name, TableWriter::Num(s.tweet_acc, 2),
                  TableWriter::Num(s.user_acc, 2),
                  TableWriter::Num(s.tweet_nmi, 2),
                  TableWriter::Num(s.user_nmi, 2)});
    reporter.Add("ablation/offline/" + slug, fit_ms,
                 {{"tweet_accuracy_pct", s.tweet_acc},
                  {"user_accuracy_pct", s.user_acc},
                  {"tweet_nmi_pct", s.tweet_nmi},
                  {"user_nmi_pct", s.user_nmi}});
  };

  add("full objective", "full", base, b.data);

  {  // Gao-et-al-style decoupling: drop the Xr coupling term entirely.
    DatasetMatrices decoupled = b.data;
    SparseMatrix::Builder empty(b.data.num_users(), b.data.num_tweets());
    decoupled.xr = empty.Build();
    add("no Xr coupling (split bipartite [10])", "no_xr", base, decoupled);
  }
  {
    TriClusterConfig config = base;
    config.alpha = 0.0;
    add("no lexicon term (alpha=0)", "no_lexicon", config, b.data);
  }
  {
    TriClusterConfig config = base;
    config.beta = 0.0;
    add("no graph term (beta=0)", "no_graph", config, b.data);
  }
  {
    TriClusterConfig config = base;
    config.init = InitStrategy::kRandom;
    add("random init (vs lexicon-seeded)", "random_init", config, b.data);
  }
  table.Print(std::cout);

  // Online ablation over the stream.
  TableWriter online_table(
      "Online ablation (per-day stream, accuracy over every scored item)");
  online_table.SetHeader({"variant", "tweet acc", "user acc"});
  auto add_online = [&](const std::string& name, const std::string& slug,
                        const OnlineConfig& c) {
    const Stopwatch watch;
    const TimelineAggregate online =
        bench_util::ReplayOnline(b.dataset.corpus, b.builder, sf0, c)
            .aggregate;
    const double stream_ms = watch.ElapsedMillis();
    const double tweet_acc = 100.0 * online.tweet_accuracy;
    const double user_acc = 100.0 * online.user_accuracy;
    online_table.AddRow({name, TableWriter::Num(tweet_acc, 2),
                         TableWriter::Num(user_acc, 2)});
    reporter.Add("ablation/online/" + slug, stream_ms,
                 {{"tweet_accuracy_pct", tweet_acc},
                  {"user_accuracy_pct", user_acc}});
  };
  OnlineConfig online_base;
  online_base.base.max_iterations = flags.ScaledIters(50);
  online_base.base.track_loss = false;
  add_online("full online", "full", online_base);
  {
    OnlineConfig c = online_base;
    c.gamma = 0.0;
    add_online("no user temporal reg (gamma=0)", "no_gamma", c);
  }
  {
    OnlineConfig c = online_base;
    c.seed_users_from_history = false;
    add_online("no user warm start", "no_warm_start", c);
  }
  {
    OnlineConfig c = online_base;
    c.lexicon_blend = 0.0;
    add_online("no lexicon blend (paper-exact Sfw)", "no_lexicon_blend", c);
  }
  {
    OnlineConfig c = online_base;
    c.tau = 0.2;
    add_online("fast decay (tau=0.2)", "fast_decay", c);
  }
  online_table.Print(std::cout);
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_ablation_terms",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
      });
}
