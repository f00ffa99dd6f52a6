#include "src/eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/util/logging.h"

namespace triclust {

namespace {

/// Collects the (cluster, class) pairs that are evaluable.
struct LabeledPairs {
  std::vector<int> clusters;
  std::vector<int> classes;
};

LabeledPairs Filter(const std::vector<int>& clusters,
                    const std::vector<Sentiment>& truth) {
  TRICLUST_CHECK_EQ(clusters.size(), truth.size());
  LabeledPairs out;
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (truth[i] == Sentiment::kUnlabeled || clusters[i] < 0) continue;
    out.clusters.push_back(clusters[i]);
    out.classes.push_back(SentimentIndex(truth[i]));
  }
  return out;
}

}  // namespace

double ClusteringAccuracy(const std::vector<int>& clusters,
                          const std::vector<Sentiment>& truth) {
  const LabeledPairs pairs = Filter(clusters, truth);
  if (pairs.clusters.empty()) return 0.0;

  // contingency[cluster][class] counts.
  std::map<int, std::map<int, size_t>> contingency;
  for (size_t i = 0; i < pairs.clusters.size(); ++i) {
    ++contingency[pairs.clusters[i]][pairs.classes[i]];
  }
  size_t correct = 0;
  for (const auto& [cluster, by_class] : contingency) {
    size_t best = 0;
    for (const auto& [cls, count] : by_class) best = std::max(best, count);
    correct += best;
  }
  return static_cast<double>(correct) /
         static_cast<double>(pairs.clusters.size());
}

double NormalizedMutualInformation(const std::vector<int>& clusters,
                                   const std::vector<Sentiment>& truth) {
  const LabeledPairs pairs = Filter(clusters, truth);
  const double n = static_cast<double>(pairs.clusters.size());
  if (pairs.clusters.empty()) return 0.0;

  std::map<int, size_t> cluster_sizes;
  std::map<int, size_t> class_sizes;
  std::map<std::pair<int, int>, size_t> joint;
  for (size_t i = 0; i < pairs.clusters.size(); ++i) {
    ++cluster_sizes[pairs.clusters[i]];
    ++class_sizes[pairs.classes[i]];
    ++joint[{pairs.clusters[i], pairs.classes[i]}];
  }

  auto entropy = [&](const std::map<int, size_t>& sizes) {
    double h = 0.0;
    for (const auto& [id, count] : sizes) {
      const double p = static_cast<double>(count) / n;
      if (p > 0.0) h -= p * std::log(p);
    }
    return h;
  };
  const double hc = entropy(cluster_sizes);
  const double hg = entropy(class_sizes);

  double mi = 0.0;
  for (const auto& [pair, count] : joint) {
    const double pij = static_cast<double>(count) / n;
    const double pi =
        static_cast<double>(cluster_sizes[pair.first]) / n;
    const double pj = static_cast<double>(class_sizes[pair.second]) / n;
    if (pij > 0.0) mi += pij * std::log(pij / (pi * pj));
  }

  if (hc <= 0.0 && hg <= 0.0) return 1.0;
  if (hc <= 0.0 || hg <= 0.0) return 0.0;
  return std::clamp(2.0 * mi / (hc + hg), 0.0, 1.0);
}

double ClassificationAccuracy(const std::vector<Sentiment>& predicted,
                              const std::vector<Sentiment>& truth) {
  TRICLUST_CHECK_EQ(predicted.size(), truth.size());
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == Sentiment::kUnlabeled ||
        predicted[i] == Sentiment::kUnlabeled) {
      continue;
    }
    ++total;
    if (predicted[i] == truth[i]) ++correct;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct) /
                          static_cast<double>(total);
}

std::vector<Sentiment> MajorityVoteMapping(
    const std::vector<int>& clusters, const std::vector<Sentiment>& truth,
    int num_clusters) {
  TRICLUST_CHECK_GT(num_clusters, 0);
  std::vector<std::vector<size_t>> contingency(
      static_cast<size_t>(num_clusters),
      std::vector<size_t>(kNumSentimentClasses, 0));
  const LabeledPairs pairs = Filter(clusters, truth);
  for (size_t i = 0; i < pairs.clusters.size(); ++i) {
    TRICLUST_CHECK_LT(pairs.clusters[i], num_clusters);
    ++contingency[static_cast<size_t>(pairs.clusters[i])]
                 [static_cast<size_t>(pairs.classes[i])];
  }
  std::vector<Sentiment> mapping(static_cast<size_t>(num_clusters),
                                 Sentiment::kPositive);
  for (int c = 0; c < num_clusters; ++c) {
    const auto& row = contingency[static_cast<size_t>(c)];
    int best = 0;
    for (int g = 1; g < kNumSentimentClasses; ++g) {
      if (row[static_cast<size_t>(g)] > row[static_cast<size_t>(best)]) {
        best = g;
      }
    }
    mapping[static_cast<size_t>(c)] = SentimentFromIndex(best);
  }
  return mapping;
}

std::vector<Sentiment> ApplyMapping(const std::vector<int>& clusters,
                                    const std::vector<Sentiment>& mapping) {
  std::vector<Sentiment> out(clusters.size(), Sentiment::kUnlabeled);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i] >= 0 &&
        static_cast<size_t>(clusters[i]) < mapping.size()) {
      out[i] = mapping[static_cast<size_t>(clusters[i])];
    }
  }
  return out;
}

double PermutationAccuracy(const std::vector<int>& clusters,
                           const std::vector<Sentiment>& truth) {
  const LabeledPairs pairs = Filter(clusters, truth);
  if (pairs.clusters.empty()) return 0.0;

  // Dense-remap cluster ids.
  std::map<int, int> remap;
  for (int c : pairs.clusters) remap.emplace(c, 0);
  int next = 0;
  for (auto& [id, dense] : remap) dense = next++;
  const size_t num_clusters = remap.size();

  std::vector<std::vector<size_t>> contingency(
      num_clusters, std::vector<size_t>(kNumSentimentClasses, 0));
  for (size_t i = 0; i < pairs.clusters.size(); ++i) {
    ++contingency[static_cast<size_t>(remap[pairs.clusters[i]])]
                 [static_cast<size_t>(pairs.classes[i])];
  }

  // Best one-to-one assignment: each class claims at most one cluster (and
  // each cluster at most one class); clusters left without a class score 0
  // for their items. Because the class side is tiny and fixed
  // (kNumSentimentClasses = 3), the optimal matching falls out of a subset
  // DP over class masks: dp[mask] = best score using the clusters seen so
  // far with the assigned classes drawn from `mask`. Each cluster is
  // folded in once (descending mask order keeps it injective), so the
  // whole solve is O(num_clusters · 2^C · C) — linear in the cluster
  // count. The previous cluster-side enumeration was exponential in it
  // (and capped at 8 clusters with a CHECK), which made per-day timeline
  // scoring crash or hang on real corpora with larger k.
  constexpr int kNumMasks = 1 << kNumSentimentClasses;
  std::vector<size_t> dp(kNumMasks, 0);
  for (size_t c = 0; c < num_clusters; ++c) {
    for (int mask = kNumMasks - 1; mask > 0; --mask) {
      for (int g = 0; g < kNumSentimentClasses; ++g) {
        if ((mask & (1 << g)) == 0) continue;
        dp[static_cast<size_t>(mask)] = std::max(
            dp[static_cast<size_t>(mask)],
            dp[static_cast<size_t>(mask ^ (1 << g))] +
                contingency[c][static_cast<size_t>(g)]);
      }
    }
  }
  return static_cast<double>(dp[kNumMasks - 1]) /
         static_cast<double>(pairs.clusters.size());
}

double AdjustedRandIndex(const std::vector<int>& clusters,
                         const std::vector<Sentiment>& truth) {
  const LabeledPairs pairs = Filter(clusters, truth);
  const size_t n = pairs.clusters.size();
  if (n < 2) return 0.0;

  std::map<int, size_t> cluster_sizes;
  std::map<int, size_t> class_sizes;
  std::map<std::pair<int, int>, size_t> joint;
  for (size_t i = 0; i < n; ++i) {
    ++cluster_sizes[pairs.clusters[i]];
    ++class_sizes[pairs.classes[i]];
    ++joint[{pairs.clusters[i], pairs.classes[i]}];
  }
  auto choose2 = [](size_t x) {
    return 0.5 * static_cast<double>(x) * static_cast<double>(x - 1);
  };
  double sum_joint = 0.0;
  for (const auto& [key, count] : joint) sum_joint += choose2(count);
  double sum_clusters = 0.0;
  for (const auto& [id, count] : cluster_sizes) {
    sum_clusters += choose2(count);
  }
  double sum_classes = 0.0;
  for (const auto& [id, count] : class_sizes) sum_classes += choose2(count);
  const double total_pairs = choose2(n);
  const double expected = sum_clusters * sum_classes / total_pairs;
  const double maximum = 0.5 * (sum_clusters + sum_classes);
  if (maximum == expected) return 0.0;
  return (sum_joint - expected) / (maximum - expected);
}

double ConfusionMatrix::MacroF1() const {
  const size_t k = counts.size();
  double f1_sum = 0.0;
  size_t classes_with_support = 0;
  for (size_t c = 0; c < k; ++c) {
    size_t tp = counts[c][c];
    size_t fn = 0;
    size_t fp = 0;
    for (size_t j = 0; j < k; ++j) {
      if (j != c) {
        fn += counts[c][j];
        fp += counts[j][c];
      }
    }
    const size_t support = tp + fn;
    if (support == 0) continue;
    ++classes_with_support;
    const double precision =
        (tp + fp) == 0 ? 0.0
                       : static_cast<double>(tp) /
                             static_cast<double>(tp + fp);
    const double recall =
        static_cast<double>(tp) / static_cast<double>(support);
    if (precision + recall > 0.0) {
      f1_sum += 2.0 * precision * recall / (precision + recall);
    }
  }
  return classes_with_support == 0
             ? 0.0
             : f1_sum / static_cast<double>(classes_with_support);
}

ConfusionMatrix BuildConfusion(const std::vector<Sentiment>& predicted,
                               const std::vector<Sentiment>& truth,
                               int num_classes) {
  TRICLUST_CHECK_EQ(predicted.size(), truth.size());
  TRICLUST_CHECK_GT(num_classes, 0);
  ConfusionMatrix cm;
  cm.counts.assign(static_cast<size_t>(num_classes),
                   std::vector<size_t>(static_cast<size_t>(num_classes), 0));
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == Sentiment::kUnlabeled ||
        predicted[i] == Sentiment::kUnlabeled) {
      continue;
    }
    const int g = SentimentIndex(truth[i]);
    const int p = SentimentIndex(predicted[i]);
    if (g >= num_classes || p >= num_classes) continue;
    ++cm.counts[static_cast<size_t>(g)][static_cast<size_t>(p)];
    ++cm.total;
  }
  return cm;
}

}  // namespace triclust
