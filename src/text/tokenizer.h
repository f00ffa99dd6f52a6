#ifndef TRICLUST_SRC_TEXT_TOKENIZER_H_
#define TRICLUST_SRC_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace triclust {

/// Options controlling Twitter-aware tokenization.
struct TokenizerOptions {
  /// Lowercase all tokens (hashtags included).
  bool lowercase = true;
  /// Keep "#hashtag" tokens (with the leading '#'); hashtags carry strong
  /// stance signal ("#yeson37", "#noprop37") in the paper's dataset.
  bool keep_hashtags = true;
  /// Keep "@mention" tokens; off by default (mentions identify users, not
  /// sentiment-bearing vocabulary).
  bool keep_mentions = false;
  /// Drop http(s)://... and www.... tokens.
  bool strip_urls = true;
  /// Map emoticons to the pseudo-tokens "_emot_pos_" / "_emot_neg_"
  /// (the emotional signals exploited by the ESSA baseline).
  bool map_emoticons = true;
  /// Drop the "RT" retweet marker.
  bool strip_retweet_marker = true;
  /// Minimum token length (after processing) for plain word tokens.
  size_t min_token_length = 2;
  /// Drop tokens that are entirely digits.
  bool strip_numbers = true;
};

/// Pseudo-tokens produced for emoticons.
inline constexpr std::string_view kPositiveEmoticonToken = "_emot_pos_";
inline constexpr std::string_view kNegativeEmoticonToken = "_emot_neg_";

/// Splits raw tweet text into normalized feature tokens.
///
/// Handles the constructs that make tweets different from clean prose:
/// hashtags, @mentions, URLs, emoticons, the "RT" marker, and repeated
/// punctuation. Pure function of (text, options); deterministic.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  const TokenizerOptions& options() const { return options_; }

  /// Tokenizes one tweet.
  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Calls `emit(token)` for each token Tokenize(text) returns, in order,
  /// without making a string per token: `token` is valid only during the
  /// call. Tokenize is this scan collecting copies.
  template <typename Emit>
  void ForEachToken(std::string_view text, Emit&& emit) const {
    std::string buffer;
    size_t pos = 0;
    std::string_view token;
    while (NextToken(text, &pos, &buffer, &token)) emit(token);
  }

 private:
  /// Scans `text` from `*pos` to the end of its next token and stores the
  /// token in `*token`, which points into `*buffer` or at an emoticon
  /// pseudo-token. False when no token is left.
  bool NextToken(std::string_view text, size_t* pos, std::string* buffer,
                 std::string_view* token) const;

  TokenizerOptions options_;
};

/// True when `token` is an emoticon with positive valence (":)", ":-D" ...).
bool IsPositiveEmoticon(std::string_view token);

/// True when `token` is an emoticon with negative valence (":(", ":'(" ...).
bool IsNegativeEmoticon(std::string_view token);

}  // namespace triclust

#endif  // TRICLUST_SRC_TEXT_TOKENIZER_H_
