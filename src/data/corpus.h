#ifndef TRICLUST_SRC_DATA_CORPUS_H_
#define TRICLUST_SRC_DATA_CORPUS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/text/sentiment.h"

namespace triclust {

/// One tweet p = <x, u, t> (paper §2): text, author, timestamp (a day
/// index), plus ground-truth annotations used only for evaluation.
struct Tweet {
  /// Dense id == index in Corpus::tweets().
  size_t id = 0;
  /// Author's user id.
  size_t user = 0;
  /// Day index (0-based within the collection window).
  int day = 0;
  /// Raw text (tokenized lazily by MatrixBuilder).
  std::string text;
  /// Ground-truth sentiment; kUnlabeled when not annotated.
  Sentiment label = Sentiment::kUnlabeled;
  /// Id of the original tweet when this is a retweet; -1 otherwise.
  ptrdiff_t retweet_of = -1;

  bool IsRetweet() const { return retweet_of >= 0; }
};

/// One user with its static ground-truth stance (the labels of paper
/// Table 3; kUnlabeled for the unannotated majority).
struct UserInfo {
  /// Dense id == index in Corpus::users().
  size_t id = 0;
  /// Display handle ("user42").
  std::string handle;
  /// Static (whole-window) ground-truth sentiment.
  Sentiment label = Sentiment::kUnlabeled;
};

/// A temporal tweet collection about one topic: the input of Problem 1.
///
/// Owns users, tweets (in insertion order: a tweet's id is its index), and
/// — when produced by the synthetic generator — the per-day ground-truth
/// sentiment of each user used to score dynamic user-level accuracy.
class Corpus {
 public:
  Corpus() = default;

  /// Adds a user; returns its id.
  size_t AddUser(std::string handle,
                 Sentiment label = Sentiment::kUnlabeled);

  /// Adds a tweet; returns its id. `retweet_of` must be an existing tweet.
  size_t AddTweet(size_t user, int day, std::string text,
                  Sentiment label = Sentiment::kUnlabeled,
                  ptrdiff_t retweet_of = -1);

  /// Releases a tweet's text (the dominant memory term of a large corpus),
  /// keeping its constant-size metadata — author, day, label, retweet link —
  /// which is all that matrix assembly and evaluation read. The bounded-
  /// memory replay path (ReadTsvStream) calls this once a day's tweets are
  /// vectorized into the engine; the tweet must not be re-tokenized
  /// afterwards (MatrixBuilder::Append of a released tweet that has no
  /// cached row, as under a streaming fit, sees empty text).
  void ReleaseTweetText(size_t id);

  /// Records the ground-truth sentiment of `user` on `day` (generator only).
  void SetUserSentimentAt(size_t user, int day, Sentiment sentiment);

  /// Ground-truth sentiment of `user` on `day`; falls back to the static
  /// label when no temporal annotation exists.
  Sentiment UserSentimentAt(size_t user, int day) const;

  /// True when any per-day user annotations were recorded.
  bool HasTemporalUserLabels() const { return !user_sentiment_by_day_.empty(); }

  /// Explicit per-day annotation of `user` on `day`, kUnlabeled when none
  /// was recorded — unlike UserSentimentAt, never falls back to the static
  /// label. This is the serialization view of the temporal annotations.
  Sentiment ExplicitUserSentimentAt(size_t user, int day) const;

  /// 1 + the last annotated day of `user` (0 when unannotated).
  int num_annotated_days(size_t user) const;

  size_t num_tweets() const { return tweets_.size(); }
  size_t num_users() const { return users_.size(); }

  /// Number of distinct days: 1 + max day index (0 when empty).
  int num_days() const;

  const std::vector<Tweet>& tweets() const { return tweets_; }
  const std::vector<UserInfo>& users() const { return users_; }
  const Tweet& tweet(size_t id) const;
  const UserInfo& user(size_t id) const;
  UserInfo& mutable_user(size_t id);

  /// Ids of tweets with day in [first_day, last_day], in id order.
  std::vector<size_t> TweetIdsInDayRange(int first_day, int last_day) const;

  /// Count of tweets labeled with each sentiment (pos, neg, neu, unlabeled).
  struct LabelCounts {
    size_t positive = 0;
    size_t negative = 0;
    size_t neutral = 0;
    size_t unlabeled = 0;
  };
  LabelCounts CountTweetLabels() const;
  LabelCounts CountUserLabels() const;

 private:
  std::vector<Tweet> tweets_;
  std::vector<UserInfo> users_;
  // user_sentiment_by_day_[user][day]; ragged, kUnlabeled-padded.
  std::vector<std::vector<Sentiment>> user_sentiment_by_day_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_CORPUS_H_
