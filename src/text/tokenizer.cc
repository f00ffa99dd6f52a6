#include "src/text/tokenizer.h"

#include <array>

#include "src/util/string_util.h"

namespace triclust {

namespace {

constexpr std::array<std::string_view, 12> kPositiveEmoticons = {
    ":)", ":-)", ":d", ":-d", "=)", ";)", ";-)",
    ":]", "=d", "<3", "(:", "^_^"};

constexpr std::array<std::string_view, 10> kNegativeEmoticons = {
    ":(", ":-(", ":'(", "=(", ":[", "d:", ":/", ":-/", "):", ">:("};

// Character classes are ASCII, as the "C" locale defines them (the
// programs never set another): bytes outside ASCII are neither space nor
// word characters and have no case. Inline, they cost no libc call per byte.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsWordChar(char c) {
  return IsDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         c == '_';
}

char LowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True when `token`, lowercased, is one of `emoticons`. No emoticon is
/// longer than 3 bytes, so longer tokens fail without a compare.
template <size_t N>
bool IsEmoticon(std::string_view token,
                const std::array<std::string_view, N>& emoticons) {
  char lower[3];
  if (token.size() > sizeof(lower)) return false;
  for (size_t i = 0; i < token.size(); ++i) lower[i] = LowerAscii(token[i]);
  const std::string_view key(lower, token.size());
  for (std::string_view e : emoticons) {
    if (key == e) return true;
  }
  return false;
}

bool IsUrlToken(std::string_view token) {
  return StartsWith(token, "http://") || StartsWith(token, "https://") ||
         StartsWith(token, "www.");
}

bool IsAllDigits(std::string_view token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!IsDigit(c)) return false;
  }
  return true;
}

/// Strips leading/trailing punctuation from a plain word, keeping inner
/// apostrophes/hyphens ("don't", "agri-tech").
std::string_view StripOuterPunct(std::string_view token) {
  size_t begin = 0;
  size_t end = token.size();
  while (begin < end && !IsWordChar(token[begin])) ++begin;
  while (end > begin && !IsWordChar(token[end - 1])) --end;
  return token.substr(begin, end - begin);
}

}  // namespace

bool IsPositiveEmoticon(std::string_view token) {
  return IsEmoticon(token, kPositiveEmoticons);
}

bool IsNegativeEmoticon(std::string_view token) {
  return IsEmoticon(token, kNegativeEmoticons);
}

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> out;
  ForEachToken(text,
               [&out](std::string_view token) { out.emplace_back(token); });
  return out;
}

bool Tokenizer::NextToken(std::string_view text, size_t* pos,
                          std::string* buffer,
                          std::string_view* token) const {
  size_t i = *pos;
  while (true) {
    while (i < text.size() && IsSpace(text[i])) ++i;
    if (i == text.size()) {
      *pos = i;
      return false;
    }
    const size_t start = i;
    while (i < text.size() && !IsSpace(text[i])) ++i;
    const std::string_view raw = text.substr(start, i - start);

    // The token is processed in place in `buffer`, which keeps its
    // capacity from token to token.
    buffer->assign(raw);
    if (options_.lowercase) {
      for (char& c : *buffer) c = LowerAscii(c);
    }
    const std::string_view lowered = *buffer;

    if (options_.strip_retweet_marker && (lowered == "rt" || raw == "RT")) {
      continue;
    }
    if (options_.strip_urls && IsUrlToken(lowered)) continue;

    if (options_.map_emoticons) {
      if (IsPositiveEmoticon(lowered)) {
        *token = kPositiveEmoticonToken;
        break;
      }
      if (IsNegativeEmoticon(lowered)) {
        *token = kNegativeEmoticonToken;
        break;
      }
    }

    const char marker = lowered[0];
    if (marker == '#' || marker == '@') {
      if (!(marker == '#' ? options_.keep_hashtags : options_.keep_mentions)) {
        continue;
      }
      const std::string_view body = StripOuterPunct(lowered.substr(1));
      if (body.empty()) continue;
      // The marker is written just before the body, over any punctuation
      // stripped there ("#!!foo" gives "#foo"), so the token is one span.
      const size_t at = static_cast<size_t>(body.data() - buffer->data()) - 1;
      (*buffer)[at] = marker;
      *token = std::string_view(buffer->data() + at, body.size() + 1);
      break;
    }

    const std::string_view word = StripOuterPunct(lowered);
    if (word.size() < options_.min_token_length) continue;
    if (options_.strip_numbers && IsAllDigits(word)) continue;
    *token = word;
    break;
  }
  *pos = i;
  return true;
}

}  // namespace triclust
