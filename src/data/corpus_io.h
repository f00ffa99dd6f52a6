#ifndef TRICLUST_SRC_DATA_CORPUS_IO_H_
#define TRICLUST_SRC_DATA_CORPUS_IO_H_

#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/data/corpus.h"
#include "src/util/status.h"

namespace triclust {

/// Reader/writer of the corpus TSV format — the on-disk form by which
/// external temporal tweet collections reach the engine (the paper's real
/// datasets are collections of exactly this shape: tweets with an author, a
/// day timestamp, optional sentiment annotations, and retweet links).
///
/// The format is specified normatively in docs/FORMATS.md. In short, a file
/// is a sequence of tab-separated rows, one record each:
///
///   U <id> <handle> <label>                       — one user
///   T <id> <user> <day> <label> <retweet_of> <text> — one tweet
///   D <user> <day> <label>                        — per-day user annotation
///
/// Labels are the sentiment vocabulary {pos, neg, neu, unlabeled}; any
/// other token is a ParseError. Tweet text is escaped (\t, \n, \r, \\) so
/// arbitrary text round-trips byte-for-byte.
/// Lines starting with '#' are comments. Ids must be dense and in order;
/// every cross-reference (tweet → user, retweet → earlier tweet, label day)
/// is validated, and every diagnostic carries the offending
/// "<source>:<line>:" prefix so a malformed external dataset pinpoints its
/// own bad row.
///
/// WriteTsv(corpus, path) → ReadTsv(path) reproduces the corpus exactly:
/// users, tweets (including text bytes), static labels, retweet links, and
/// the per-day temporal annotations.
///
/// Thread safety: the functions are stateless and re-entrant; concurrent
/// calls on distinct streams/paths are safe. The path-taking WriteTsv goes
/// through AtomicWriteFile, so a reader never observes a torn file.

/// Serializes `corpus` to `os`. Returns IoError when the stream fails.
Status WriteTsv(const Corpus& corpus, std::ostream* os);

/// Atomically replaces `path` with the serialized corpus
/// (write-temp-then-fsync-then-rename; see AtomicWriteFile).
Status WriteTsv(const Corpus& corpus, const std::string& path);

/// Parses a corpus from `is`. `source_name` prefixes diagnostics (a path,
/// or "<stream>"). Returns ParseError with "<source>:<line>: <why>" on the
/// first malformed row; the partially-built corpus is discarded.
Result<Corpus> ReadTsv(std::istream* is,
                       const std::string& source_name = "<stream>");

/// Parses the corpus stored at `path` (IoError when unreadable).
Result<Corpus> ReadTsv(const std::string& path);

/// One day-chunk yielded by the streaming reader: the ids of the tweets
/// appended to the growing corpus for `day` (empty for a gap day with no
/// tweets, so replay day indices stay aligned with ReadTsv + SplitByDay).
struct TsvDayBatch {
  int day = 0;
  std::vector<size_t> tweet_ids;
};

/// Chunked streaming reader for corpora that do not fit in RAM.
///
/// Open() parses the preamble — every U and D row — into a skeleton
/// corpus; NextDay() then appends one day's tweets at a time, and
/// ReleaseText() drops a finished day's tweet text (the dominant memory
/// term of a real collection) while keeping the constant-size metadata
/// that matrix assembly, the retweet graph, and evaluation read. Peak
/// memory is therefore O(users + per-day annotations + tweet metadata +
/// ONE day-chunk of text), instead of the whole file.
///
/// The reader requires the canonical section order WriteTsv emits (all U
/// rows, then all D rows, then T rows with non-decreasing day); ReadTsv
/// accepts arbitrary interleavings, the streaming reader rejects them
/// with a ParseError naming the offending line. Diagnostics carry the
/// same "<source>:<line>:" prefix as ReadTsv, with line numbers counted
/// from the start of the file — a malformed row in the 40th day-chunk
/// still pinpoints its absolute line.
///
/// The ids NextDay() yields, and the corpus the reader grows, are
/// identical to what ReadTsv + SplitByDay produce for the same file
/// (tests/corpus_io_test.cc pins this), which is what makes a streamed
/// replay bit-identical to the whole-file path.
class TsvStreamReader {
 public:
  /// Opens `path` (IoError when unreadable) and parses the preamble.
  static Result<std::unique_ptr<TsvStreamReader>> Open(
      const std::string& path);

  /// Stream variant; `source_name` prefixes diagnostics.
  static Result<std::unique_ptr<TsvStreamReader>> Open(
      std::unique_ptr<std::istream> is, const std::string& source_name);

  ~TsvStreamReader();
  TsvStreamReader(const TsvStreamReader&) = delete;
  TsvStreamReader& operator=(const TsvStreamReader&) = delete;

  /// The growing corpus: users and per-day annotations after Open(), plus
  /// every tweet yielded so far. Stable address; safe to register with a
  /// CampaignEngine while days keep arriving.
  const Corpus& corpus() const;

  /// Appends the next day's tweets to the corpus and describes them in
  /// `*batch`. Days are yielded consecutively from 0, including empty gap
  /// days. Returns false when the file is exhausted, or the first
  /// ParseError/IoError encountered.
  Result<bool> NextDay(TsvDayBatch* batch);

  /// Releases the text of every tweet in `batch` (see
  /// Corpus::ReleaseTweetText). Call after the batch has been vectorized.
  void ReleaseText(const TsvDayBatch& batch);

  /// Moves the finished corpus out of the reader (ReadTsvStream's return
  /// path). The reader must not be used afterwards.
  Corpus TakeCorpus();

 private:
  struct Impl;
  TsvStreamReader();
  std::unique_ptr<Impl> impl_;
};

/// Day callback of ReadTsvStream: the day index, the corpus grown so far
/// (the day's tweet text is still present), and the day's tweet ids.
/// Returning a non-OK status aborts the stream and propagates the error.
using TsvDayCallback = std::function<Status(
    int day, const Corpus& corpus, const std::vector<size_t>& tweet_ids)>;

/// Streams the corpus at `path` one day-chunk at a time with bounded
/// memory: invokes `on_day` for every day in order (including empty gap
/// days), releasing each day's tweet text once its callback returns.
/// Returns the final corpus — complete metadata and annotations, but with
/// every tweet's text released.
Result<Corpus> ReadTsvStream(const std::string& path,
                             const TsvDayCallback& on_day);

/// Parses a sentiment label token: "pos", "neg", "neu" or "unlabeled".
/// Returns false on anything else.
bool ParseSentimentLabel(const std::string& token, Sentiment* out);

/// Escapes tweet text for a TSV field: backslash, tab, newline, and
/// carriage return become \\, \t, \n, \r.
std::string EscapeTsvField(const std::string& text);

/// Inverse of EscapeTsvField. Unknown escape sequences are preserved
/// verbatim (so external files containing raw backslashes load unchanged).
std::string UnescapeTsvField(const std::string& text);

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_CORPUS_IO_H_
