/// Reproduces paper Figure 10: online clustering accuracy when varying the
/// temporal user-regularization weight γ (all other parameters fixed).
/// The paper's findings: the best user-level accuracy is around γ = 0.2,
/// and γ has no effect on tweet-level accuracy (it only constrains Su).

#include <iostream>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader("Figure 10: online accuracy when varying gamma");
  const bench_util::BenchDataset b = bench_util::MakeProp30();
  const DenseMatrix sf0 = b.lexicon.BuildSf0(b.builder.vocabulary(), 3);

  TableWriter table("Accuracy (%) vs gamma (cf. paper Fig. 10)");
  table.SetHeader({"gamma", "user-level", "tweet-level"});
  double best_user = 0.0;
  double best_gamma = 0.0;
  size_t runs = 0;
  const Stopwatch watch;
  for (double gamma : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    OnlineConfig config;
    config.base.max_iterations = flags.ScaledIters(50);
    config.base.track_loss = false;
    config.gamma = gamma;
    const TimelineAggregate online =
        bench_util::ReplayOnline(b.dataset.corpus, b.builder, sf0, config)
            .aggregate;
    ++runs;
    const double user_acc = 100.0 * online.user_accuracy;
    const double tweet_acc = 100.0 * online.tweet_accuracy;
    table.AddRow({TableWriter::Num(gamma, 1),
                  TableWriter::Num(user_acc, 2),
                  TableWriter::Num(tweet_acc, 2)});
    if (user_acc > best_user) {
      best_user = user_acc;
      best_gamma = gamma;
    }
  }
  const double sweep_ms = watch.ElapsedMillis();
  table.Print(std::cout);
  std::cout << "\nbest user-level accuracy " << TableWriter::Num(best_user, 2)
            << "% at gamma=" << best_gamma
            << "\nPaper shape to check: a moderate gamma (paper: 0.2) "
               "maximizes user-level accuracy; tweet-level accuracy is "
               "essentially flat in gamma.\n";
  reporter.Add("fig10/gamma_sweep/online", sweep_ms,
               {{"timeline_runs", static_cast<double>(runs)},
                {"best_user_accuracy_pct", best_user},
                {"best_gamma", best_gamma}});
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_fig10_online_gamma",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
      });
}
