/// Tests of the corpus TSV loaders (src/data/corpus_io.h): lossless
/// round-trip including temporal labels and escaped text, the epoch-days
/// warnings, and line-numbered diagnostics for malformed input.

#include "src/data/corpus_io.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/snapshots.h"
#include "src/data/synthetic.h"

namespace triclust {
namespace {

Corpus RichCorpus() {
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  c.AddUser("carol");  // unlabeled, never tweets
  c.AddTweet(alice, 0, "yes on 37", Sentiment::kPositive);
  c.AddTweet(bob, 1, "no on 37", Sentiment::kNegative);
  c.AddTweet(alice, 2, "tab\there newline\nthere backslash\\done",
             Sentiment::kNeutral);
  c.AddTweet(bob, 2, "yes on 37", Sentiment::kPositive, /*retweet_of=*/0);
  c.SetUserSentimentAt(alice, 1, Sentiment::kNegative);
  c.SetUserSentimentAt(bob, 2, Sentiment::kPositive);
  return c;
}

void ExpectSameCorpus(const Corpus& got, const Corpus& expected) {
  ASSERT_EQ(got.num_users(), expected.num_users());
  ASSERT_EQ(got.num_tweets(), expected.num_tweets());
  for (size_t u = 0; u < expected.num_users(); ++u) {
    EXPECT_EQ(got.user(u).handle, expected.user(u).handle);
    EXPECT_EQ(got.user(u).label, expected.user(u).label);
  }
  for (size_t i = 0; i < expected.num_tweets(); ++i) {
    EXPECT_EQ(got.tweet(i).user, expected.tweet(i).user);
    EXPECT_EQ(got.tweet(i).day, expected.tweet(i).day);
    EXPECT_EQ(got.tweet(i).text, expected.tweet(i).text);
    EXPECT_EQ(got.tweet(i).label, expected.tweet(i).label);
    EXPECT_EQ(got.tweet(i).retweet_of, expected.tweet(i).retweet_of);
  }
  EXPECT_EQ(got.HasTemporalUserLabels(), expected.HasTemporalUserLabels());
  for (size_t u = 0; u < expected.num_users(); ++u) {
    for (int day = 0; day < 4; ++day) {
      EXPECT_EQ(got.ExplicitUserSentimentAt(u, day),
                expected.ExplicitUserSentimentAt(u, day))
          << "user " << u << " day " << day;
    }
  }
}

TEST(CorpusIoTest, StreamRoundTripIsLossless) {
  const Corpus original = RichCorpus();
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(original, &out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(loaded.value(), original);
}

TEST(CorpusIoTest, FileRoundTripIsLossless) {
  const Corpus original = RichCorpus();
  const std::string path = ::testing::TempDir() + "/corpus_io_roundtrip.tsv";
  ASSERT_TRUE(WriteTsv(original, path).ok());
  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(loaded.value(), original);
  std::remove(path.c_str());
}

TEST(CorpusIoTest, SyntheticCorpusRoundTrips) {
  // The generator produces temporal labels, retweets, and emoticon tokens —
  // the full feature surface of the format on a realistic corpus.
  SyntheticConfig config;
  config.num_users = 40;
  config.num_days = 5;
  config.base_tweets_per_day = 40.0;
  config.burst_days = {};
  const Corpus original = GenerateSynthetic(config).corpus;
  ASSERT_TRUE(original.HasTemporalUserLabels());

  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(original, &out).ok());
  std::istringstream in(out.str());
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCorpus(loaded.value(), original);
}

TEST(CorpusIoTest, EscapingRoundTripsEveryControlCharacter) {
  const std::string text = "a\tb\nc\rd\\e\\tf";
  EXPECT_EQ(UnescapeTsvField(EscapeTsvField(text)), text);
  // Escaped form is tab- and newline-free (one record per line holds).
  const std::string escaped = EscapeTsvField(text);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  // Unknown escapes pass through so external raw backslashes survive.
  EXPECT_EQ(UnescapeTsvField("raw \\x path"), "raw \\x path");
  // A first-line "#users" comment is an ordinary comment: the text below
  // it still decodes.
  std::istringstream in(
      "#users\t1\n"
      "U\t0\talice\tpos\n"
      "T\t0\t0\t0\tpos\t-1\tsaved to C:\\temp today\n");
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tweet(0).text, "saved to C:\temp today");
}

TEST(CorpusIoTest, AcceptsCrlfLineEndings) {
  // Externally-prepared TSVs often arrive with CRLF endings; the trailing
  // CR must not corrupt the last field (text on T rows, label on U rows).
  const std::string crlf =
      "U\t0\talice\tpos\r\n"
      "T\t0\t0\t0\tpos\t-1\thello world\r\n";
  std::istringstream in(crlf);
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().user(0).label, Sentiment::kPositive);
  EXPECT_EQ(loaded.value().tweet(0).text, "hello world");
  // A real CR in text still round-trips via its escape, CRLF or not.
  Corpus with_cr;
  with_cr.AddTweet(with_cr.AddUser("u"), 0, "line\rwith cr");
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(with_cr, &out).ok());
  std::istringstream back(out.str());
  auto reloaded = ReadTsv(&back);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().tweet(0).text, "line\rwith cr");
}

/// Number of times `needle` occurs in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(CorpusIoTest, WarnsButAcceptsLargeEmptyDayPrefix) {
  // Absolute-epoch-style day numbers pass range validation, so both
  // readers accept them (they are formally valid) and print each epoch-days
  // warning once, naming the file. The first file has epoch-style tweet
  // days; the second hides epoch-style D rows behind day-0 tweets.
  const std::string path = ::testing::TempDir() + "/corpus_io_epoch.tsv";
  const struct {
    std::string contents;
    std::string warning;
  } cases[] = {
      {"U\t0\talice\tpos\n"
       "T\t0\t0\t20600\tpos\t-1\thello from epoch land\n",
       path + ": first populated day is 20600"},
      {"U\t0\talice\tpos\n"
       "D\t0\t20600\tneg\n"
       "T\t0\t0\t0\tpos\t-1\thello\n",
       path + ": per-day labels reach day 20600"},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path);
      out << c.contents;
    }
    ::testing::internal::CaptureStderr();
    auto loaded = ReadTsv(path);
    const std::string whole_log = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(CountOf(whole_log, c.warning), 1u) << whole_log;

    ::testing::internal::CaptureStderr();
    auto streamed = ReadTsvStream(
        path, [](int, const Corpus&, const std::vector<size_t>&) {
          return Status::OK();
        });
    const std::string stream_log = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(CountOf(stream_log, c.warning), 1u) << stream_log;
    EXPECT_EQ(streamed.value().num_days(), loaded.value().num_days());
  }
  std::remove(path.c_str());

  std::istringstream in(cases[0].contents);
  auto loaded = ReadTsv(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().tweet(0).day, 20600);
  EXPECT_EQ(loaded.value().num_days(), 20601);

  std::istringstream d_in(cases[1].contents);
  auto d_loaded = ReadTsv(&d_in);
  ASSERT_TRUE(d_loaded.ok()) << d_loaded.status().ToString();
  EXPECT_EQ(d_loaded.value().ExplicitUserSentimentAt(0, 20600),
            Sentiment::kNegative);
}

// --- diagnostics -------------------------------------------------------------

Status ParseFailure(const std::string& contents) {
  std::istringstream in(contents);
  const auto result = ReadTsv(&in, "test.tsv");
  EXPECT_FALSE(result.ok()) << "expected a parse failure";
  return result.ok() ? Status::OK() : result.status();
}

TEST(CorpusIoTest, RejectsBadColumnCountWithLineNumber) {
  const Status status =
      ParseFailure("U\t0\talice\tpos\nT\t0\t0\t0\tpos\t-1\n");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("test.tsv:2:"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("7 fields"), std::string::npos)
      << status.message();
}

TEST(CorpusIoTest, RejectsDanglingRetweet) {
  // retweet_of must point at an *earlier* tweet: forward and self
  // references are dangling at the time the row is read.
  const Status forward = ParseFailure(
      "U\t0\talice\tpos\n"
      "T\t0\t0\t0\tpos\t5\tqt\n");
  EXPECT_EQ(forward.code(), StatusCode::kParseError);
  EXPECT_NE(forward.message().find("earlier tweet"), std::string::npos)
      << forward.message();

  const Status self = ParseFailure(
      "U\t0\talice\tpos\n"
      "T\t0\t0\t0\tpos\t0\tqt\n");
  EXPECT_EQ(self.code(), StatusCode::kParseError);
}

TEST(CorpusIoTest, RejectsOutOfRangeDay) {
  const Status negative = ParseFailure(
      "U\t0\talice\tpos\n"
      "T\t0\t0\t-3\tpos\t-1\thello\n");
  EXPECT_EQ(negative.code(), StatusCode::kParseError);
  EXPECT_NE(negative.message().find("out of range"), std::string::npos)
      << negative.message();

  const Status huge = ParseFailure(
      "U\t0\talice\tpos\n"
      "T\t0\t0\t99999999\tpos\t-1\thello\n");
  EXPECT_EQ(huge.code(), StatusCode::kParseError);

  const Status bad_label_day = ParseFailure(
      "U\t0\talice\tpos\n"
      "D\t0\t-1\tneg\n");
  EXPECT_EQ(bad_label_day.code(), StatusCode::kParseError);
}

TEST(CorpusIoTest, RejectsUndefinedUserReferences) {
  EXPECT_NE(ParseFailure("T\t0\t7\t0\tpos\t-1\thello\n")
                .message()
                .find("undefined user"),
            std::string::npos);
  EXPECT_NE(ParseFailure("D\t7\t0\tneg\n").message().find("undefined user"),
            std::string::npos);
}

TEST(CorpusIoTest, RejectsNonContiguousIds) {
  const Status user_gap = ParseFailure("U\t1\talice\tpos\n");
  EXPECT_NE(user_gap.message().find("non-contiguous"), std::string::npos);
  const Status tweet_gap = ParseFailure(
      "U\t0\talice\tpos\n"
      "T\t3\t0\t0\tpos\t-1\thello\n");
  EXPECT_NE(tweet_gap.message().find("non-contiguous"), std::string::npos);
}

TEST(CorpusIoTest, RejectsUnknownLabelsAndTags) {
  EXPECT_NE(ParseFailure("U\t0\talice\tgreat\n").message().find("label"),
            std::string::npos);
  // Integer label codes are not part of the vocabulary.
  for (const char* label : {"0", "-1"}) {
    EXPECT_NE(ParseFailure(std::string("U\t0\talice\tpos\nU\t1\tbob\t") +
                           label + "\n")
                  .message()
                  .find("test.tsv:2: unknown label"),
              std::string::npos)
        << label;
  }
  EXPECT_NE(ParseFailure("X\twhat\n").message().find("unknown row tag"),
            std::string::npos);
  // D rows must carry a real label: an unlabeled annotation is meaningless.
  EXPECT_NE(ParseFailure("U\t0\talice\tpos\nD\t0\t0\tunlabeled\n")
                .message()
                .find("pos/neg/neu"),
            std::string::npos);
}

TEST(CorpusIoTest, MissingFileIsIoError) {
  const auto result = ReadTsv("/nonexistent/path/corpus.tsv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CorpusIoTest, WriteTsvToPathIsAtomic) {
  // An existing file is replaced through temp+rename: after a successful
  // write no temporary remains and the contents parse.
  const std::string path = ::testing::TempDir() + "/corpus_io_atomic.tsv";
  { std::ofstream previous(path); previous << "not a corpus"; }
  ASSERT_TRUE(WriteTsv(RichCorpus(), path).ok());
  auto loaded = ReadTsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_tweets(), RichCorpus().num_tweets());
  std::remove(path.c_str());
}

// --- streaming reader ---------------------------------------------------------

// A corpus whose stream has empty gap days (days 1 and 2 are silent) plus
// temporal labels and a retweet — the shapes the streaming reader must
// reproduce exactly.
Corpus GappyCorpus() {
  Corpus c;
  const size_t alice = c.AddUser("alice", Sentiment::kPositive);
  const size_t bob = c.AddUser("bob", Sentiment::kNegative);
  c.AddTweet(alice, 0, "yes on 37", Sentiment::kPositive);
  c.AddTweet(bob, 0, "no on 37", Sentiment::kNegative);
  c.AddTweet(alice, 3, "tab\there still yes", Sentiment::kNeutral);
  c.AddTweet(bob, 4, "yes on 37", Sentiment::kPositive, /*retweet_of=*/0);
  c.SetUserSentimentAt(bob, 3, Sentiment::kPositive);
  return c;
}

TEST(TsvStreamReaderTest, YieldsSameCorpusAndDayChunksAsWholeFileRead) {
  const Corpus original = GappyCorpus();
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(original, &out).ok());

  auto reader_or = TsvStreamReader::Open(
      std::make_unique<std::istringstream>(out.str()), "gappy.tsv");
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto reader = std::move(reader_or).value();
  // The preamble already carries every user and annotation.
  EXPECT_EQ(reader->corpus().num_users(), original.num_users());
  EXPECT_TRUE(reader->corpus().HasTemporalUserLabels());

  std::vector<TsvDayBatch> batches;
  TsvDayBatch batch;
  while (true) {
    const Result<bool> more = reader->NextDay(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!more.value()) break;
    batches.push_back(batch);
  }

  // Day chunks are yielded consecutively from 0 — the silent days 1 and 2
  // appear as empty batches, so replay day indices stay aligned with
  // ReadTsv + SplitByDay.
  const std::vector<Snapshot> days = SplitByDay(original);
  ASSERT_EQ(batches.size(), days.size());
  for (size_t d = 0; d < days.size(); ++d) {
    EXPECT_EQ(batches[d].day, static_cast<int>(d));
    EXPECT_EQ(batches[d].tweet_ids, days[d].tweet_ids) << "day " << d;
  }
  // Without ReleaseText the grown corpus equals the whole-file read,
  // text bytes included.
  ExpectSameCorpus(reader->TakeCorpus(), original);
}

TEST(TsvStreamReaderTest, ReadTsvStreamBoundsResidentTextToOneDay) {
  const Corpus original = GappyCorpus();
  const std::string path = ::testing::TempDir() + "/corpus_io_stream.tsv";
  ASSERT_TRUE(WriteTsv(original, path).ok());

  int expected_day = 0;
  auto streamed = ReadTsvStream(
      path, [&](int day, const Corpus& c, const std::vector<size_t>& ids) {
        EXPECT_EQ(day, expected_day++);
        for (size_t id : ids) {
          // The current day's text is present for vectorization...
          EXPECT_EQ(c.tweet(id).text, original.tweet(id).text);
          // ...while every earlier day's text has been released.
          for (size_t prior = 0; prior < id; ++prior) {
            if (c.tweet(prior).day < day) {
              EXPECT_TRUE(c.tweet(prior).text.empty()) << prior;
            }
          }
        }
        return Status::OK();
      });
  std::remove(path.c_str());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(expected_day, original.num_days());

  // The final corpus keeps all metadata but no text.
  const Corpus& c = streamed.value();
  ASSERT_EQ(c.num_tweets(), original.num_tweets());
  for (size_t i = 0; i < c.num_tweets(); ++i) {
    EXPECT_TRUE(c.tweet(i).text.empty()) << i;
    EXPECT_EQ(c.tweet(i).user, original.tweet(i).user);
    EXPECT_EQ(c.tweet(i).day, original.tweet(i).day);
    EXPECT_EQ(c.tweet(i).label, original.tweet(i).label);
    EXPECT_EQ(c.tweet(i).retweet_of, original.tweet(i).retweet_of);
  }
}

TEST(TsvStreamReaderTest, MalformedChunkDiagnosticsMatchReadTsvByteForByte) {
  // A malformed row deep in a later day-chunk must be reported with its
  // absolute file line number — the same "<source>:<line>: <why>"
  // diagnostic ReadTsv emits for the identical file.
  std::ostringstream out;
  ASSERT_TRUE(WriteTsv(GappyCorpus(), &out).ok());
  std::istringstream split(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  // Corrupt the LAST tweet row (the day-4 chunk).
  size_t corrupt_line = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].empty() && lines[i][0] == 'T') corrupt_line = i;
  }
  ASSERT_GT(corrupt_line, 0u);
  lines[corrupt_line] = "T\tnot-enough-fields";
  std::string corrupted;
  for (const std::string& line : lines) corrupted += line + "\n";

  auto whole = [&] {
    std::istringstream in(corrupted);
    return ReadTsv(&in, "bad.tsv").status();
  }();
  ASSERT_FALSE(whole.ok());
  EXPECT_NE(whole.ToString().find(
                "bad.tsv:" + std::to_string(corrupt_line + 1) + ":"),
            std::string::npos)
      << whole.ToString();

  auto reader_or = TsvStreamReader::Open(
      std::make_unique<std::istringstream>(corrupted), "bad.tsv");
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto reader = std::move(reader_or).value();
  TsvDayBatch batch;
  Status streaming = Status::OK();
  while (streaming.ok()) {
    const Result<bool> more = reader->NextDay(&batch);
    if (!more.ok()) {
      streaming = more.status();
      break;
    }
    ASSERT_TRUE(more.value()) << "stream ended before the malformed row";
  }
  EXPECT_EQ(streaming.ToString(), whole.ToString());
}

TEST(TsvStreamReaderTest, RejectsNonCanonicalSectionOrder) {
  // ReadTsv accepts arbitrary row interleavings; the streaming reader
  // requires WriteTsv's canonical section order and says so.
  const std::string interleaved =
      "U\t0\talice\tpos\n"
      "T\t0\t0\t0\tpos\t-1\thello\n"
      "U\t1\tbob\tneg\n";
  {
    std::istringstream in(interleaved);
    EXPECT_TRUE(ReadTsv(&in, "mixed.tsv").ok());
  }
  auto reader_or = TsvStreamReader::Open(
      std::make_unique<std::istringstream>(interleaved), "mixed.tsv");
  ASSERT_TRUE(reader_or.ok());
  auto reader = std::move(reader_or).value();
  TsvDayBatch batch;
  Result<bool> more = reader->NextDay(&batch);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kParseError);
  EXPECT_NE(more.status().ToString().find("mixed.tsv:3:"),
            std::string::npos)
      << more.status().ToString();
  EXPECT_NE(more.status().ToString().find("canonical section order"),
            std::string::npos)
      << more.status().ToString();
}

TEST(TsvStreamReaderTest, RejectsBackwardTweetDays) {
  const std::string backwards =
      "U\t0\talice\tpos\n"
      "T\t0\t0\t2\tpos\t-1\tlater\n"
      "T\t1\t0\t1\tpos\t-1\tearlier\n";
  {
    std::istringstream in(backwards);
    EXPECT_TRUE(ReadTsv(&in, "back.tsv").ok());
  }
  auto reader_or = TsvStreamReader::Open(
      std::make_unique<std::istringstream>(backwards), "back.tsv");
  ASSERT_TRUE(reader_or.ok());
  auto reader = std::move(reader_or).value();
  TsvDayBatch batch;
  Status error = Status::OK();
  while (error.ok()) {
    const Result<bool> more = reader->NextDay(&batch);
    if (!more.ok()) {
      error = more.status();
      break;
    }
    ASSERT_TRUE(more.value()) << "stream ended without rejecting";
  }
  EXPECT_EQ(error.code(), StatusCode::kParseError);
  EXPECT_NE(error.ToString().find("back.tsv:3:"), std::string::npos)
      << error.ToString();
  EXPECT_NE(error.ToString().find("goes backwards"), std::string::npos)
      << error.ToString();
}

}  // namespace
}  // namespace triclust
