/// Reproduces paper Table 4: tweet-level sentiment analysis comparison —
/// supervised (SVM, NB), semi-supervised (LP-5, LP-10, UserReg-10) and
/// unsupervised (ESSA, tri-clustering, online tri-clustering) on both
/// campaign topics. Accuracy for all methods; NMI for the clusterings.

#include <cmath>
#include <functional>
#include <iostream>

#include "bench/methods.h"
#include "src/util/stopwatch.h"
#include "src/util/table_writer.h"

namespace triclust {
namespace {

using bench_methods::MethodScores;

void Run(bench_flags::Reporter& reporter, const bench_flags::Flags& flags) {
  bench_util::PrintHeader("Table 4: tweet-level sentiment comparison");

  const bench_util::BenchDataset prop30 = bench_util::MakeProp30();
  const bench_util::BenchDataset prop37 = bench_util::MakeProp37();

  TableWriter table(
      "Tweet-level Accuracy / NMI, percent (cf. paper Table 4)");
  table.SetHeader({"method", "type", "acc-30", "acc-37", "nmi-30",
                   "nmi-37"});

  // Runs one method on both topics, timing the pair; NMI counters are
  // emitted only for clustering methods (classifiers score NaN there,
  // which must never reach the JSON report).
  auto add = [&](const std::string& method, const std::string& slug,
                 const std::string& type,
                 const std::function<MethodScores(
                     const bench_util::BenchDataset&)>& fn) {
    const Stopwatch watch;
    const MethodScores s30 = fn(prop30);
    const MethodScores s37 = fn(prop37);
    const double both_ms = watch.ElapsedMillis();
    table.AddRow({method, type, TableWriter::Num(s30.accuracy),
                  TableWriter::Num(s37.accuracy),
                  TableWriter::Num(s30.nmi), TableWriter::Num(s37.nmi)});
    std::vector<std::pair<std::string, double>> counters = {
        {"accuracy_prop30_pct", s30.accuracy},
        {"accuracy_prop37_pct", s37.accuracy}};
    if (std::isfinite(s30.nmi)) counters.push_back({"nmi_prop30_pct", s30.nmi});
    if (std::isfinite(s37.nmi)) counters.push_back({"nmi_prop37_pct", s37.nmi});
    reporter.Add("table4/tweet_level/" + slug, both_ms, counters);
  };

  add("SVM [28]", "svm", "supervised", bench_methods::TweetSvm);
  add("NB [11]", "nb", "supervised", bench_methods::TweetNaiveBayes);
  add("LP-5 [12,29]", "lp5", "semi",
      [](const bench_util::BenchDataset& b) {
        return bench_methods::TweetLabelPropagation(b, 0.05);
      });
  add("LP-10 [12,29]", "lp10", "semi",
      [](const bench_util::BenchDataset& b) {
        return bench_methods::TweetLabelPropagation(b, 0.10);
      });
  add("UserReg-10 [7]", "userreg10", "semi", bench_methods::TweetUserReg);
  add("ESSA [15]", "essa", "unsup",
      [&](const bench_util::BenchDataset& b) {
        return bench_methods::TweetEssa(b, flags);
      });
  add("Tri-clustering", "triclust", "unsup",
      [&](const bench_util::BenchDataset& b) {
        const TriClusterResult r = bench_methods::RunOfflineTri(b, flags);
        return bench_methods::ScoreClustering(r.TweetClusters(),
                                              b.data.tweet_labels);
      });
  add("Online tri-clustering", "online_triclust", "unsup",
      [&](const bench_util::BenchDataset& b) {
        const TimelineAggregate online =
            bench_methods::ReplayOnlineTri(b, flags);
        return MethodScores{100.0 * online.tweet_accuracy,
                            100.0 * online.tweet_nmi};
      });

  table.Print(std::cout);
  std::cout << "\nPaper shape to check: tri-clustering beats ESSA on both "
               "topics and approaches the supervised methods; the online "
               "variant beats offline (feature evolution).\n";
}

}  // namespace
}  // namespace triclust

int main(int argc, char** argv) {
  return triclust::bench_flags::BenchMain(
      argc, argv, "bench_table4_tweet_level",
      [](triclust::bench_flags::Reporter& reporter,
         const triclust::bench_flags::Flags& flags) {
        triclust::Run(reporter, flags);
      });
}
