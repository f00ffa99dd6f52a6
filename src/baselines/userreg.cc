#include "src/baselines/userreg.h"

#include "src/baselines/naive_bayes.h"
#include "src/matrix/ops.h"
#include "src/util/logging.h"

namespace triclust {

UserRegResult RunUserReg(const DatasetMatrices& data,
                         const std::vector<Sentiment>& seed_tweet_labels,
                         const UserRegOptions& options) {
  TRICLUST_CHECK_EQ(data.num_tweets(), seed_tweet_labels.size());
  const size_t k = static_cast<size_t>(options.num_classes);

  // 1. Supervised tweet scorer on the seeds.
  MultinomialNaiveBayes nb(options.num_classes);
  nb.Train(data.xp, seed_tweet_labels);
  const DenseMatrix tweet_proba = nb.PredictProba(data.xp);

  // 2. User aggregate of their tweets' posteriors (via Xr incidence).
  DenseMatrix user_scores = SpMM(data.xr, tweet_proba);
  user_scores.NormalizeRowsL1();

  // 3. Social regularization: mix each user with the neighbour average.
  for (int round = 0; round < options.smoothing_iterations; ++round) {
    DenseMatrix neighbour = SpMM(data.gu.adjacency(), user_scores);
    neighbour.NormalizeRowsL1();
    DenseMatrix mixed(user_scores.rows(), k);
    for (size_t i = 0; i < user_scores.rows(); ++i) {
      const bool isolated = data.gu.Degree(i) <= 0.0;
      const double w = isolated ? 0.0 : options.social_weight;
      for (size_t c = 0; c < k; ++c) {
        mixed(i, c) =
            (1.0 - w) * user_scores(i, c) + w * neighbour(i, c);
      }
    }
    user_scores = std::move(mixed);
  }

  // 4. Feed the user stance back into tweet scores.
  UserRegResult result;
  result.tweet_predictions.assign(data.num_tweets(), Sentiment::kUnlabeled);
  std::vector<size_t> author_row(data.num_tweets());
  {
    // Xr rows are users, columns tweets; walk it once to find each tweet's
    // author row (the posting entry always exists).
    const auto& row_ptr = data.xr.row_ptr();
    const auto& col_idx = data.xr.col_idx();
    std::vector<bool> assigned(data.num_tweets(), false);
    for (size_t u = 0; u < data.xr.rows(); ++u) {
      for (size_t p = row_ptr[u]; p < row_ptr[u + 1]; ++p) {
        if (!assigned[col_idx[p]]) {
          author_row[col_idx[p]] = u;
          assigned[col_idx[p]] = true;
        }
      }
    }
  }

  for (size_t i = 0; i < data.num_tweets(); ++i) {
    const double* user_row = user_scores.Row(author_row[i]);
    size_t best = 0;
    double best_score = -1.0;
    for (size_t c = 0; c < k; ++c) {
      const double score = tweet_proba(i, c) +
                           options.user_prior_weight * user_row[c];
      if (score > best_score) {
        best_score = score;
        best = c;
      }
    }
    result.tweet_predictions[i] =
        SentimentFromIndex(static_cast<int>(best));
  }

  result.user_predictions.assign(data.num_users(), Sentiment::kUnlabeled);
  for (size_t u = 0; u < data.num_users(); ++u) {
    result.user_predictions[u] =
        SentimentFromIndex(static_cast<int>(user_scores.ArgMaxRow(u)));
  }
  return result;
}

}  // namespace triclust
