#ifndef TRICLUST_SRC_DATA_SYNTHETIC_H_
#define TRICLUST_SRC_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "src/data/corpus.h"
#include "src/text/lexicon.h"

namespace triclust {

/// Configuration of the synthetic Twitter-campaign generator.
///
/// The generator substitutes for the paper's proprietary November-2012
/// California-ballot collection (Propositions 30/37); see README.md,
/// "Substitutions". Every mechanism the tri-clustering framework exploits
/// is a knob here, so experiments can both reproduce the paper's
/// comparisons and ablate the data assumptions.
struct SyntheticConfig {
  uint64_t seed = 42;

  // --- population ---
  size_t num_users = 600;
  /// Stance prior over {pos, neg, neu}; needs not be normalized.
  double stance_pos = 0.45;
  double stance_neg = 0.35;
  double stance_neu = 0.20;
  /// Per-day probability that a user flips stance (Observation 2: small).
  double user_flip_prob = 0.015;
  /// Zipf exponent of per-user activity (long-tail: few super-active users).
  double user_activity_zipf = 1.1;

  // --- vocabulary ---
  size_t num_polar_words_per_class = 120;
  size_t num_topic_words = 300;
  size_t num_function_words = 150;
  /// Zipf exponent of within-pool word frequencies.
  double word_zipf = 1.05;
  /// Vocabulary drift (paper Observation 1 / Figure 4): the Zipf rank order
  /// of the polar and topic pools rotates by this fraction of the pool per
  /// day, so which words are *popular* changes over the campaign while each
  /// word's sentiment stays fixed. 0 disables drift.
  double vocab_drift_per_day = 0.04;

  // --- tweet volume ---
  int num_days = 30;
  double base_tweets_per_day = 250.0;
  /// Days with a volume burst (e.g. debate nights, election day).
  std::vector<int> burst_days = {20};
  double burst_multiplier = 4.0;
  /// Days with zero tweet volume (outages, degenerate replay days). Stance
  /// trajectories still evolve through the silence. Overrides bursts.
  std::vector<int> dead_days;

  // --- adversarial knobs (scenario suite; all inert by default) -----------
  /// First day of a topic hijack: from this day on, the polar word pools
  /// swap roles in generated text (positive-stance authors draw from the
  /// negative pool and vice versa), so tweet text contradicts any lexicon
  /// built before the hijack while user stances and labels are unchanged.
  /// Negative disables.
  int hijack_day = -1;
  /// Spam/botnet authors appended after the genuine population. They are
  /// kUnlabeled (excluded from accuracy) but flood the matrix with
  /// high-polar-rate text of a random class each tweet. Spam draws from a
  /// separate RNG stream, so enabling it never perturbs the genuine
  /// corpus for a given seed; spam tweets are never retweeted by genuine
  /// users.
  size_t num_spam_users = 0;
  /// Poisson mean of per-spam-user daily tweet volume.
  double spam_tweets_per_user_per_day = 0.0;
  /// Fraction of spam tweet tokens drawn from a polar pool.
  double spam_polar_word_rate = 0.9;

  // --- tweet content ---
  int min_tokens_per_tweet = 6;
  int max_tokens_per_tweet = 14;
  /// Fraction of tokens drawn from the author-stance polar pool.
  double polar_word_rate = 0.35;
  /// Probability a "polar" token actually comes from the opposite pool
  /// (the paper's "Monsanto is pure evil" effect: tweet-level text lies).
  double off_class_noise = 0.12;
  /// Probability a pos/neg user emits a neutral tweet.
  double off_stance_tweet_prob = 0.10;
  /// Rate at which neutral tweets still emit polar words (random class).
  double neutral_polar_rate = 0.06;
  /// Probability a tweet gets an emoticon matching its class.
  double emoticon_prob = 0.15;

  // --- retweets ---
  /// Fraction of each day's volume that are retweets of recent tweets.
  double retweet_fraction = 0.25;
  /// Probability a retweet links same-stance users (graph homophily; the
  /// signal behind the β graph-regularization term).
  double retweet_homophily = 0.85;
  /// How many previous days retweets can reach back to.
  int retweet_window_days = 2;
};

/// Prop-30-like preset: balanced stances, moderate volume (the paper's
/// "Temporary Taxes to Fund Education" topic — 8777 pos / 5014 neg tweets).
SyntheticConfig Prop30LikeConfig(uint64_t seed = 42);

/// Prop-37-like preset: heavily positive-skewed, higher volume (the paper's
/// "Genetically Engineered Foods" topic — 34789 pos / 2587 neg tweets).
SyntheticConfig Prop37LikeConfig(uint64_t seed = 43);

/// A generated campaign: the corpus plus the generator's exact word-polarity
/// ground truth (used to derive realistic, imperfect priors).
struct SyntheticDataset {
  Corpus corpus;
  /// Complete, error-free polarity of every polar word.
  SentimentLexicon true_lexicon;
};

/// Generates a corpus from `config`. Deterministic in config.seed.
SyntheticDataset GenerateSynthetic(const SyntheticConfig& config);

/// Derives an imperfect prior lexicon from the ground truth: keeps each
/// entry with probability `coverage` and flips its polarity with probability
/// `error_rate` — mimicking the automatically-built word lists of [28].
SentimentLexicon CorruptLexicon(const SentimentLexicon& truth,
                                double coverage, double error_rate,
                                uint64_t seed);

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_SYNTHETIC_H_
