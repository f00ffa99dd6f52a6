#include "src/text/tokenizer.h"

#include <gtest/gtest.h>

namespace triclust {
namespace {

std::vector<std::string> Tok(std::string_view text,
                             TokenizerOptions options = {}) {
  return Tokenizer(options).Tokenize(text);
}

TEST(TokenizerTest, LowercasesAndSplits) {
  EXPECT_EQ(Tok("Support GMO Labeling"),
            (std::vector<std::string>{"support", "gmo", "labeling"}));
  EXPECT_EQ(Tok("gmo\tlabel\rsafe\nfood"),
            (std::vector<std::string>{"gmo", "label", "safe", "food"}));
}

TEST(TokenizerTest, KeepsHashtagsWithMarker) {
  EXPECT_EQ(Tok("#Prop37 passes"),
            (std::vector<std::string>{"#prop37", "passes"}));
}

TEST(TokenizerTest, HashtagPunctuationStripped) {
  EXPECT_EQ(Tok("#yeson37!"), (std::vector<std::string>{"#yeson37"}));
  EXPECT_EQ(Tok("#!!foo"), (std::vector<std::string>{"#foo"}));
  EXPECT_TRUE(Tok("#??").empty());
}

TEST(TokenizerTest, DropsMentionsByDefault) {
  EXPECT_EQ(Tok("@bob agrees"), (std::vector<std::string>{"agrees"}));
}

TEST(TokenizerTest, KeepsMentionsWhenAsked) {
  TokenizerOptions options;
  options.keep_mentions = true;
  EXPECT_EQ(Tok("@Bob agrees", options),
            (std::vector<std::string>{"@bob", "agrees"}));
}

TEST(TokenizerTest, StripsUrls) {
  EXPECT_EQ(Tok("read http://t.co/xyz now"),
            (std::vector<std::string>{"read", "now"}));
  EXPECT_EQ(Tok("see www.example.com today"),
            (std::vector<std::string>{"see", "today"}));
}

TEST(TokenizerTest, KeepsUrlsWhenAsked) {
  TokenizerOptions options;
  options.strip_urls = false;
  const auto tokens = Tok("http://t.co/xyz", options);
  ASSERT_EQ(tokens.size(), 1u);
}

TEST(TokenizerTest, MapsEmoticons) {
  EXPECT_EQ(Tok("love this :)"),
            (std::vector<std::string>{"love", "this",
                                      std::string(kPositiveEmoticonToken)}));
  EXPECT_EQ(Tok("sales :( again"),
            (std::vector<std::string>{"sales",
                                      std::string(kNegativeEmoticonToken),
                                      "again"}));
  const std::vector<std::string> pos_neg = {
      "so", std::string(kPositiveEmoticonToken),
      std::string(kNegativeEmoticonToken), "ok"};
  EXPECT_EQ(Tok("so :D D: ok"), pos_neg);
  TokenizerOptions options;
  options.lowercase = false;
  EXPECT_EQ(Tok("so :D D: ok", options), pos_neg);
}

TEST(TokenizerTest, EmoticonMappingOptional) {
  TokenizerOptions options;
  options.map_emoticons = false;
  options.min_token_length = 1;
  // ":)" has no word characters, so it is stripped entirely.
  EXPECT_EQ(Tok("ok :)", options), (std::vector<std::string>{"ok"}));
}

TEST(TokenizerTest, StripsRetweetMarker) {
  EXPECT_EQ(Tok("RT great news"),
            (std::vector<std::string>{"great", "news"}));
  EXPECT_EQ(Tok("rt great"), (std::vector<std::string>{"great"}));
  // Only the bare marker is dropped; "RT:" is a word once stripped.
  EXPECT_EQ(Tok("RT: great"), (std::vector<std::string>{"rt", "great"}));
}

TEST(TokenizerTest, MinTokenLengthFilters) {
  EXPECT_EQ(Tok("a an axe"), (std::vector<std::string>{"an", "axe"}));
  TokenizerOptions options;
  options.min_token_length = 4;
  EXPECT_EQ(Tok("an axe chops", options),
            (std::vector<std::string>{"chops"}));
}

TEST(TokenizerTest, StripsPureNumbers) {
  EXPECT_EQ(Tok("spent 14000 dollars"),
            (std::vector<std::string>{"spent", "dollars"}));
  TokenizerOptions options;
  options.strip_numbers = false;
  EXPECT_EQ(Tok("spent 14000", options),
            (std::vector<std::string>{"spent", "14000"}));
}

TEST(TokenizerTest, KeepsInnerApostropheAndHyphen) {
  EXPECT_EQ(Tok("don't agri-tech!"),
            (std::vector<std::string>{"don't", "agri-tech"}));
}

TEST(TokenizerTest, StripsOuterPunctuation) {
  EXPECT_EQ(Tok("\"quoted,\" (words)."),
            (std::vector<std::string>{"quoted", "words"}));
  // Bytes outside ASCII are not word characters: at a token's ends they
  // are stripped like punctuation, inside it they stay.
  EXPECT_EQ(Tok("caf\xc3\xa9 na\xc3\xafve"),
            (std::vector<std::string>{"caf", "na\xc3\xafve"}));
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tok("").empty());
  EXPECT_TRUE(Tok("   \t ").empty());
}

TEST(EmoticonTest, PolarityDetectors) {
  EXPECT_TRUE(IsPositiveEmoticon(":)"));
  EXPECT_TRUE(IsPositiveEmoticon(":D"));
  EXPECT_TRUE(IsPositiveEmoticon("<3"));
  EXPECT_TRUE(IsNegativeEmoticon(":("));
  EXPECT_TRUE(IsNegativeEmoticon(":'("));
  EXPECT_FALSE(IsPositiveEmoticon("hello"));
  EXPECT_FALSE(IsNegativeEmoticon(":)"));
}

}  // namespace
}  // namespace triclust
