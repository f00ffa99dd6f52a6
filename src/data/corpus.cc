#include "src/data/corpus.h"

#include <algorithm>

#include "src/util/logging.h"

namespace triclust {

size_t Corpus::AddUser(std::string handle, Sentiment label) {
  const size_t id = users_.size();
  users_.push_back({id, std::move(handle), label});
  return id;
}

size_t Corpus::AddTweet(size_t user, int day, std::string text,
                        Sentiment label, ptrdiff_t retweet_of) {
  TRICLUST_CHECK_LT(user, users_.size());
  TRICLUST_CHECK_GE(day, 0);
  if (retweet_of >= 0) {
    TRICLUST_CHECK_LT(static_cast<size_t>(retweet_of), tweets_.size());
  }
  const size_t id = tweets_.size();
  tweets_.push_back({id, user, day, std::move(text), label, retweet_of});
  return id;
}

void Corpus::ReleaseTweetText(size_t id) {
  TRICLUST_CHECK_LT(id, tweets_.size());
  // shrink_to_fit via swap: clear() alone keeps the heap allocation.
  std::string().swap(tweets_[id].text);
}

void Corpus::SetUserSentimentAt(size_t user, int day, Sentiment sentiment) {
  TRICLUST_CHECK_LT(user, users_.size());
  TRICLUST_CHECK_GE(day, 0);
  if (user_sentiment_by_day_.size() < users_.size()) {
    user_sentiment_by_day_.resize(users_.size());
  }
  auto& days = user_sentiment_by_day_[user];
  if (days.size() <= static_cast<size_t>(day)) {
    days.resize(static_cast<size_t>(day) + 1, Sentiment::kUnlabeled);
  }
  days[static_cast<size_t>(day)] = sentiment;
}

Sentiment Corpus::UserSentimentAt(size_t user, int day) const {
  TRICLUST_CHECK_LT(user, users_.size());
  if (user < user_sentiment_by_day_.size()) {
    const auto& days = user_sentiment_by_day_[user];
    if (day >= 0 && static_cast<size_t>(day) < days.size() &&
        days[static_cast<size_t>(day)] != Sentiment::kUnlabeled) {
      return days[static_cast<size_t>(day)];
    }
  }
  return users_[user].label;
}

Sentiment Corpus::ExplicitUserSentimentAt(size_t user, int day) const {
  TRICLUST_CHECK_LT(user, users_.size());
  if (user < user_sentiment_by_day_.size() && day >= 0) {
    const auto& days = user_sentiment_by_day_[user];
    if (static_cast<size_t>(day) < days.size()) {
      return days[static_cast<size_t>(day)];
    }
  }
  return Sentiment::kUnlabeled;
}

int Corpus::num_annotated_days(size_t user) const {
  TRICLUST_CHECK_LT(user, users_.size());
  if (user >= user_sentiment_by_day_.size()) return 0;
  return static_cast<int>(user_sentiment_by_day_[user].size());
}

int Corpus::num_days() const {
  int max_day = -1;
  for (const Tweet& t : tweets_) max_day = std::max(max_day, t.day);
  return max_day + 1;
}

const Tweet& Corpus::tweet(size_t id) const {
  TRICLUST_CHECK_LT(id, tweets_.size());
  return tweets_[id];
}

const UserInfo& Corpus::user(size_t id) const {
  TRICLUST_CHECK_LT(id, users_.size());
  return users_[id];
}

UserInfo& Corpus::mutable_user(size_t id) {
  TRICLUST_CHECK_LT(id, users_.size());
  return users_[id];
}

std::vector<size_t> Corpus::TweetIdsInDayRange(int first_day,
                                               int last_day) const {
  std::vector<size_t> ids;
  for (const Tweet& t : tweets_) {
    if (t.day >= first_day && t.day <= last_day) ids.push_back(t.id);
  }
  return ids;
}

namespace {

void Tally(Sentiment s, Corpus::LabelCounts* counts) {
  switch (s) {
    case Sentiment::kPositive:
      ++counts->positive;
      break;
    case Sentiment::kNegative:
      ++counts->negative;
      break;
    case Sentiment::kNeutral:
      ++counts->neutral;
      break;
    case Sentiment::kUnlabeled:
      ++counts->unlabeled;
      break;
  }
}

}  // namespace

Corpus::LabelCounts Corpus::CountTweetLabels() const {
  LabelCounts counts;
  for (const Tweet& t : tweets_) Tally(t.label, &counts);
  return counts;
}

Corpus::LabelCounts Corpus::CountUserLabels() const {
  LabelCounts counts;
  for (const UserInfo& u : users_) Tally(u.label, &counts);
  return counts;
}

}  // namespace triclust
