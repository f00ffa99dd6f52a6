/// Scalability check of the complexity claim in the paper's §3.2: the
/// per-iteration cost of Algorithm 1 is O(r·k·(nl + ml + nm + m²)), and in
/// practice is dominated by the O(nnz·k) sparse products — so runtime should
/// grow ~linearly in corpus size at fixed density. This bench doubles the
/// campaign volume repeatedly and reports solve time per tweet.

#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "bench/bench_util.h"
#include "src/core/offline.h"
#include "src/util/parallel.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

/// Strong-scaling sweep: the same offline solve at 1/2/4/hardware threads.
/// With the row-partitioned kernels the speedup should track the physical
/// core count until the O(k²)-per-row arithmetic is memory-bound.
void RunThreadSweep(bench_flags::Reporter& reporter,
                    const bench_flags::Flags& flags) {
  bench_util::PrintHeader(
      "Scalability: offline solve time vs thread budget (parallel kernels)");
  const bench_util::BenchDataset b =
      bench_util::Prepare("thread-sweep", Prop30LikeConfig());
  const DenseMatrix sf0 = b.lexicon.BuildSf0(b.builder.vocabulary(), 3);

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts = {1, 2, 4};
  if (hw > 4) thread_counts.push_back(static_cast<int>(hw));

  TableWriter table("Offline solve, 30 iterations, k=3, varying threads");
  table.SetHeader({"threads", "time (s)", "speedup vs 1"});
  double serial_seconds = 0.0;
  for (const int threads : thread_counts) {
    TriClusterConfig solver_config;
    solver_config.max_iterations = flags.ScaledIters(30);
    solver_config.tolerance = 0.0;
    solver_config.track_loss = false;

    // The fit runs at the width of the budget installed around it.
    const ScopedThreadBudget budget{ThreadBudget(threads)};
    Stopwatch watch;
    const TriClusterResult r =
        OfflineTriClusterer(solver_config).Run(b.data, sf0);
    const double seconds = watch.ElapsedSeconds();
    (void)r;
    if (threads == 1) serial_seconds = seconds;
    table.AddRow({std::to_string(threads), TableWriter::Num(seconds, 3),
                  TableWriter::Num(serial_seconds / seconds, 2)});
    reporter.Add("scalability/thread_sweep/threads:" + std::to_string(threads),
                 seconds * 1e3,
                 {{"speedup_vs_serial", serial_seconds / seconds}});
  }
  table.Print(std::cout);
  std::cout << "\nHardware concurrency on this machine: " << hw << "\n\n";
}

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader(
      "Scalability: offline solve time vs corpus size (paper §3.2)");
  TableWriter table("Offline solve, 30 iterations, k=3");
  table.SetHeader({"tweets", "users", "features", "nnz(Xp)", "time (s)",
                   "us/tweet/iter"});

  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    SyntheticConfig config = Prop30LikeConfig();
    config.base_tweets_per_day *= scale;
    config.num_users =
        static_cast<size_t>(static_cast<double>(config.num_users) * scale);
    const bench_util::BenchDataset b =
        bench_util::Prepare("scaled", config);

    TriClusterConfig solver_config;
    solver_config.max_iterations = flags.ScaledIters(30);
    solver_config.tolerance = 0.0;
    solver_config.track_loss = false;
    const DenseMatrix sf0 = b.lexicon.BuildSf0(b.builder.vocabulary(), 3);

    Stopwatch watch;
    const TriClusterResult r =
        OfflineTriClusterer(solver_config).Run(b.data, sf0);
    const double seconds = watch.ElapsedSeconds();
    const double us_per_tweet_iter =
        seconds * 1e6 /
        (static_cast<double>(b.data.num_tweets()) * r.iterations);
    table.AddRow({std::to_string(b.data.num_tweets()),
                  std::to_string(b.data.num_users()),
                  std::to_string(b.data.num_features()),
                  std::to_string(b.data.xp.nnz()),
                  TableWriter::Num(seconds, 3),
                  TableWriter::Num(us_per_tweet_iter, 2)});
    reporter.Add("scalability/volume_sweep/scale:" + TableWriter::Num(scale, 1),
                 seconds * 1e3,
                 {{"tweets", static_cast<double>(b.data.num_tweets())},
                  {"users", static_cast<double>(b.data.num_users())},
                  {"xp_nnz", static_cast<double>(b.data.xp.nnz())},
                  {"us_per_tweet_iter", us_per_tweet_iter}});
  }
  table.Print(std::cout);
  std::cout << "\nShape to check: the per-tweet-per-iteration cost stays "
               "roughly flat as volume scales (near-linear total cost), "
               "confirming the O(nnz·k) kernel analysis.\n";
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_scalability",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
        triclust::RunThreadSweep(reporter, flags);
      });
}
