/// Reproduces paper Figure 9: online clustering accuracy (user-level and
/// tweet-level) when varying the temporal feature-regularization weight α
/// and the time-decay factor τ on the Prop-30-like stream. The paper's
/// best setting is α = τ = 0.9.

#include <iostream>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader(
      "Figure 9: online accuracy when varying alpha and tau");
  const bench_util::BenchDataset b = bench_util::MakeProp30();
  const DenseMatrix sf0 = b.lexicon.BuildSf0(b.builder.vocabulary(), 3);
  const std::vector<double> grid = {0.1, 0.3, 0.5, 0.7, 0.9};

  TableWriter user_table("User-level accuracy (%) over (alpha, tau)");
  TableWriter tweet_table("Tweet-level accuracy (%) over (alpha, tau)");
  std::vector<std::string> header = {"alpha\\tau"};
  for (double tau : grid) header.push_back(TableWriter::Num(tau, 1));
  user_table.SetHeader(header);
  tweet_table.SetHeader(header);

  double best_user = 0.0;
  double best_alpha = 0.0;
  double best_tau = 0.0;
  size_t runs = 0;
  const Stopwatch watch;
  for (double alpha : grid) {
    std::vector<std::string> user_row = {TableWriter::Num(alpha, 1)};
    std::vector<std::string> tweet_row = {TableWriter::Num(alpha, 1)};
    for (double tau : grid) {
      OnlineConfig config;
      config.base.max_iterations = flags.ScaledIters(50);
      config.base.track_loss = false;
      config.alpha = alpha;
      config.tau = tau;
      const TimelineAggregate online =
          bench_util::ReplayOnline(b.dataset.corpus, b.builder, sf0, config)
              .aggregate;
      ++runs;
      const double user_acc = 100.0 * online.user_accuracy;
      const double tweet_acc = 100.0 * online.tweet_accuracy;
      user_row.push_back(TableWriter::Num(user_acc, 1));
      tweet_row.push_back(TableWriter::Num(tweet_acc, 1));
      if (user_acc > best_user) {
        best_user = user_acc;
        best_alpha = alpha;
        best_tau = tau;
      }
    }
    user_table.AddRow(user_row);
    tweet_table.AddRow(tweet_row);
  }
  const double grid_ms = watch.ElapsedMillis();
  user_table.Print(std::cout);
  tweet_table.Print(std::cout);
  std::cout << "\nbest user-level accuracy "
            << TableWriter::Num(best_user, 2) << "% at alpha=" << best_alpha
            << ", tau=" << best_tau
            << "\nPaper shape to check: best user-level accuracy toward "
               "high (alpha, tau); tweet-level far less sensitive.\n";
  reporter.Add("fig9/alpha_tau_grid/online", grid_ms,
               {{"timeline_runs", static_cast<double>(runs)},
                {"best_user_accuracy_pct", best_user},
                {"best_alpha", best_alpha},
                {"best_tau", best_tau}});
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_fig9_online_alpha_tau",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
      });
}
