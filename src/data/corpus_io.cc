#include "src/data/corpus_io.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/file_util.h"
#include "src/util/fs.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace triclust {

namespace {

/// Upper bound on day indices accepted from disk. Day fields beyond this are
/// far more likely corrupted than a century-long collection; rejecting them
/// keeps one bad row from inflating every downstream per-day structure.
constexpr int kMaxDay = 36500;

}  // namespace

bool ParseSentimentLabel(const std::string& token, Sentiment* out) {
  if (token == "pos") {
    *out = Sentiment::kPositive;
  } else if (token == "neg") {
    *out = Sentiment::kNegative;
  } else if (token == "neu") {
    *out = Sentiment::kNeutral;
  } else if (token == "unlabeled") {
    *out = Sentiment::kUnlabeled;
  } else {
    return false;
  }
  return true;
}

std::string EscapeTsvField(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        escaped += "\\\\";
        break;
      case '\t':
        escaped += "\\t";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      default:
        escaped += c;
    }
  }
  return escaped;
}

std::string UnescapeTsvField(const std::string& text) {
  std::string raw;
  raw.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      raw += text[i];
      continue;
    }
    switch (text[i + 1]) {
      case '\\':
        raw += '\\';
        ++i;
        break;
      case 't':
        raw += '\t';
        ++i;
        break;
      case 'n':
        raw += '\n';
        ++i;
        break;
      case 'r':
        raw += '\r';
        ++i;
        break;
      default:
        // Unknown escape: keep the backslash, so external text holding raw
        // backslashes (a Windows path, say) loads unchanged.
        raw += '\\';
    }
  }
  return raw;
}

Status WriteTsv(const Corpus& corpus, std::ostream* os) {
  std::ostream& out = *os;
  out << "# triclust corpus tsv 1\n";
  out << "# U\tid\thandle\tlabel\n";
  out << "# T\tid\tuser\tday\tlabel\tretweet_of\ttext\n";
  out << "# D\tuser\tday\tlabel\n";
  for (const UserInfo& u : corpus.users()) {
    out << "U\t" << u.id << "\t" << EscapeTsvField(u.handle) << "\t"
        << SentimentName(u.label) << "\n";
  }
  for (size_t u = 0; u < corpus.num_users(); ++u) {
    const int days = corpus.num_annotated_days(u);
    for (int day = 0; day < days; ++day) {
      const Sentiment s = corpus.ExplicitUserSentimentAt(u, day);
      if (s == Sentiment::kUnlabeled) continue;
      out << "D\t" << u << "\t" << day << "\t" << SentimentName(s) << "\n";
    }
  }
  for (const Tweet& t : corpus.tweets()) {
    out << "T\t" << t.id << "\t" << t.user << "\t" << t.day << "\t"
        << SentimentName(t.label) << "\t" << t.retweet_of << "\t"
        << EscapeTsvField(t.text) << "\n";
  }
  if (!out) return Status::IoError("corpus TSV write failed");
  return Status::OK();
}

Status WriteTsv(const Corpus& corpus, const std::string& path) {
  return AtomicWriteFile(path, [&corpus](std::ostream* os) {
    return WriteTsv(corpus, os);
  });
}

namespace {

/// Row-level TSV parsing shared by ReadTsv and TsvStreamReader, so both
/// paths validate identically and emit byte-identical
/// "<source>:<line>:" diagnostics. The context tracks the file-global
/// line number and the day extremes across day-chunk boundaries.
struct TsvParseContext {
  std::string source_name;
  size_t line_no = 0;
  // Day extremes over T and D rows, for WarnIfEpochDays().
  long long first_populated_day = kMaxDay + 1;
  long long max_tweet_day = -1;
  long long max_label_day = -1;

  Status Fail(const std::string& why) const {
    return Status::ParseError(source_name + ":" + std::to_string(line_no) +
                              ": " + why);
  }

  /// Counts and CRLF-normalizes one raw line. Returns false when the line
  /// carries no record (blank or comment).
  bool Preprocess(std::string* line) {
    ++line_no;
    // Tolerate CRLF line endings (externally-prepared files): the
    // trailing CR is a line-ending artifact, not field content — real
    // carriage returns inside text arrive as the \r escape.
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return !(line->empty() || (*line)[0] == '#');
  }

  Status HandleUser(const std::vector<std::string>& fields, Corpus* corpus) {
    if (fields.size() != 4) {
      return Fail("user row needs 4 fields, got " +
                  std::to_string(fields.size()));
    }
    size_t id = 0;
    if (!ParseSizeT(fields[1], &id)) {
      return Fail("malformed user id '" + fields[1] + "'");
    }
    if (id != corpus->num_users()) {
      return Fail("non-contiguous user id " + fields[1] + " (expected " +
                  std::to_string(corpus->num_users()) + ")");
    }
    Sentiment label = Sentiment::kUnlabeled;
    if (!ParseSentimentLabel(fields[3], &label)) {
      return Fail("unknown label '" + fields[3] + "'");
    }
    corpus->AddUser(UnescapeTsvField(fields[2]), label);
    return Status::OK();
  }

  Status HandleTweet(const std::vector<std::string>& fields, Corpus* corpus) {
    if (fields.size() != 7) {
      return Fail("tweet row needs 7 fields, got " +
                  std::to_string(fields.size()));
    }
    size_t id = 0;
    if (!ParseSizeT(fields[1], &id)) {
      return Fail("malformed tweet id '" + fields[1] + "'");
    }
    if (id != corpus->num_tweets()) {
      return Fail("non-contiguous tweet id " + fields[1] + " (expected " +
                  std::to_string(corpus->num_tweets()) + ")");
    }
    size_t user = 0;
    if (!ParseSizeT(fields[2], &user)) {
      return Fail("malformed user id '" + fields[2] + "'");
    }
    if (user >= corpus->num_users()) {
      return Fail("tweet references undefined user " + fields[2]);
    }
    long long day = 0;
    if (!ParseInt64(fields[3], &day) || day < 0 || day > kMaxDay) {
      return Fail("day '" + fields[3] + "' out of range [0, " +
                  std::to_string(kMaxDay) + "]");
    }
    Sentiment label = Sentiment::kUnlabeled;
    if (!ParseSentimentLabel(fields[4], &label)) {
      return Fail("unknown label '" + fields[4] + "'");
    }
    long long retweet_of = -1;
    if (!ParseInt64(fields[5], &retweet_of) || retweet_of < -1) {
      return Fail("malformed retweet_of '" + fields[5] + "'");
    }
    if (retweet_of >= static_cast<long long>(id)) {
      return Fail("retweet_of " + fields[5] +
                  " must reference an earlier tweet");
    }
    corpus->AddTweet(user, static_cast<int>(day), UnescapeTsvField(fields[6]),
                     label, static_cast<ptrdiff_t>(retweet_of));
    first_populated_day = std::min(first_populated_day, day);
    max_tweet_day = std::max(max_tweet_day, day);
    return Status::OK();
  }

  Status HandleDayLabel(const std::vector<std::string>& fields,
                        Corpus* corpus) {
    if (fields.size() != 4) {
      return Fail("day-label row needs 4 fields, got " +
                  std::to_string(fields.size()));
    }
    size_t user = 0;
    if (!ParseSizeT(fields[1], &user)) {
      return Fail("malformed user id '" + fields[1] + "'");
    }
    if (user >= corpus->num_users()) {
      return Fail("day label references undefined user " + fields[1]);
    }
    long long day = 0;
    if (!ParseInt64(fields[2], &day) || day < 0 || day > kMaxDay) {
      return Fail("day '" + fields[2] + "' out of range [0, " +
                  std::to_string(kMaxDay) + "]");
    }
    Sentiment label = Sentiment::kUnlabeled;
    if (!ParseSentimentLabel(fields[3], &label)) {
      return Fail("unknown label '" + fields[3] + "'");
    }
    if (label == Sentiment::kUnlabeled) {
      return Fail("day annotation must carry a pos/neg/neu label");
    }
    corpus->SetUserSentimentAt(user, static_cast<int>(day), label);
    first_populated_day = std::min(first_populated_day, day);
    max_label_day = std::max(max_label_day, day);
    return Status::OK();
  }

  /// Day indices are meant to be zero-based within the collection window
  /// (FORMATS.md §1.1). A large empty prefix — the classic symptom of
  /// absolute days-since-epoch timestamps, on tweets or on per-day labels —
  /// still parses, but every day-indexed consumer (snapshot splitting,
  /// replay, the per-user label vectors) pays for the empty days; flag it.
  void WarnIfEpochDays() const {
    if (first_populated_day <= kMaxDay && first_populated_day > 365) {
      TRICLUST_LOG(kWarning)
          << source_name << ": first populated day is " << first_populated_day
          << " — days should be zero-based within the collection window; "
          << "day-indexed consumers (replay, snapshot splitting, per-day "
          << "labels) will walk the empty prefix first";
    }
    // D rows far beyond the tweet window are the same mistake hidden
    // behind day-0 tweets: the annotations sit where no evaluation ever
    // looks.
    if (max_label_day > max_tweet_day + 365) {
      TRICLUST_LOG(kWarning)
          << source_name << ": per-day labels reach day " << max_label_day
          << " but the last tweet is on day " << max_tweet_day
          << " — the day bases look mismatched, so evaluations would never "
          << "consult the out-of-window annotations";
    }
  }
};

}  // namespace

Result<Corpus> ReadTsv(std::istream* is, const std::string& source_name) {
  Corpus corpus;
  std::string line;
  TsvParseContext ctx;
  ctx.source_name = source_name;
  while (std::getline(*is, line)) {
    if (!ctx.Preprocess(&line)) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields[0] == "U") {
      TRICLUST_RETURN_IF_ERROR(ctx.HandleUser(fields, &corpus));
    } else if (fields[0] == "T") {
      TRICLUST_RETURN_IF_ERROR(ctx.HandleTweet(fields, &corpus));
    } else if (fields[0] == "D") {
      TRICLUST_RETURN_IF_ERROR(ctx.HandleDayLabel(fields, &corpus));
    } else {
      return ctx.Fail("unknown row tag '" + fields[0] + "'");
    }
  }
  if (is->bad()) return Status::IoError(source_name + ": read failed");
  ctx.WarnIfEpochDays();
  return corpus;
}

Result<Corpus> ReadTsv(const std::string& path) {
  // Through the FileSystem seam (like every durable-I/O path): direct
  // std::ifstream opens outside src/util are a lint error (fs-seam rule).
  TRICLUST_ASSIGN_OR_RETURN(std::unique_ptr<std::istream> in,
                            GetDefaultFileSystem()->NewReadStream(path));
  return ReadTsv(in.get(), path);
}

struct TsvStreamReader::Impl {
  std::unique_ptr<std::istream> input;
  TsvParseContext ctx;
  Corpus corpus;

  // The one tweet read past the current day boundary. T rows are id-ordered,
  // so it is already appended to the corpus (dense ids stay intact); its id
  // is simply not yielded until NextDay() reaches its day.
  bool has_pending = false;
  size_t pending_id = 0;
  int pending_day = 0;

  /// The day the next NextDay() call will yield.
  int next_day = 0;
  /// Day of the last T row parsed, for the non-decreasing-day check.
  int last_tweet_day = -1;
  /// True once the input has been read to EOF.
  bool exhausted = false;
  /// True once the end of the stream has emitted ReadTsv's day warnings.
  bool warned = false;
};

TsvStreamReader::TsvStreamReader() : impl_(new Impl) {}
TsvStreamReader::~TsvStreamReader() = default;

Result<std::unique_ptr<TsvStreamReader>> TsvStreamReader::Open(
    const std::string& path) {
  TRICLUST_ASSIGN_OR_RETURN(std::unique_ptr<std::istream> file,
                            GetDefaultFileSystem()->NewReadStream(path));
  return Open(std::move(file), path);
}

Result<std::unique_ptr<TsvStreamReader>> TsvStreamReader::Open(
    std::unique_ptr<std::istream> is, const std::string& source_name) {
  std::unique_ptr<TsvStreamReader> reader(new TsvStreamReader());
  Impl& impl = *reader->impl_;
  impl.input = std::move(is);
  impl.ctx.source_name = source_name;
  // Preamble: every U row, then every D row, up to the first T row. The
  // skeleton corpus this builds (users + per-day annotations) is exactly
  // what campaign registration and evaluation need before any tweet
  // arrives.
  std::string line;
  bool seen_day_label = false;
  while (std::getline(*impl.input, line)) {
    if (!impl.ctx.Preprocess(&line)) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields[0] == "U") {
      if (seen_day_label) {
        return impl.ctx.Fail(
            "user row after day-label rows (the streaming reader requires "
            "the canonical section order WriteTsv emits: U, then D, then "
            "day-ordered T)");
      }
      TRICLUST_RETURN_IF_ERROR(impl.ctx.HandleUser(fields, &impl.corpus));
    } else if (fields[0] == "D") {
      seen_day_label = true;
      TRICLUST_RETURN_IF_ERROR(impl.ctx.HandleDayLabel(fields, &impl.corpus));
    } else if (fields[0] == "T") {
      TRICLUST_RETURN_IF_ERROR(impl.ctx.HandleTweet(fields, &impl.corpus));
      impl.has_pending = true;
      impl.pending_id = impl.corpus.num_tweets() - 1;
      impl.pending_day = impl.corpus.tweet(impl.pending_id).day;
      impl.last_tweet_day = impl.pending_day;
      break;
    } else {
      return impl.ctx.Fail("unknown row tag '" + fields[0] + "'");
    }
  }
  if (impl.input->bad()) {
    return Status::IoError(source_name + ": read failed");
  }
  if (!impl.has_pending) impl.exhausted = true;
  return reader;
}

const Corpus& TsvStreamReader::corpus() const { return impl_->corpus; }

Result<bool> TsvStreamReader::NextDay(TsvDayBatch* batch) {
  Impl& impl = *impl_;
  batch->tweet_ids.clear();
  if (impl.exhausted && !impl.has_pending) {
    if (!impl.warned) impl.ctx.WarnIfEpochDays();
    impl.warned = true;
    return false;
  }
  batch->day = impl.next_day;
  // Invariant at entry: a pending tweet exists (reading only stops at a
  // day boundary or EOF, and EOF without a pending tweet returned false
  // above).
  if (impl.pending_day > impl.next_day) {
    // Gap day with no tweets: yield it empty so streamed day indices stay
    // aligned with ReadTsv + SplitByDay, which emits empty snapshots too.
    ++impl.next_day;
    return true;
  }
  batch->tweet_ids.push_back(impl.pending_id);
  impl.has_pending = false;
  std::string line;
  while (std::getline(*impl.input, line)) {
    if (!impl.ctx.Preprocess(&line)) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields[0] == "T") {
      TRICLUST_RETURN_IF_ERROR(impl.ctx.HandleTweet(fields, &impl.corpus));
      const size_t id = impl.corpus.num_tweets() - 1;
      const int day = impl.corpus.tweet(id).day;
      if (day < impl.last_tweet_day) {
        return impl.ctx.Fail(
            "tweet day " + std::to_string(day) + " goes backwards after day " +
            std::to_string(impl.last_tweet_day) +
            " (the streaming reader requires day-ordered T rows)");
      }
      impl.last_tweet_day = day;
      if (day == impl.next_day) {
        batch->tweet_ids.push_back(id);
      } else {
        impl.has_pending = true;
        impl.pending_id = id;
        impl.pending_day = day;
        break;
      }
    } else if (fields[0] == "U" || fields[0] == "D") {
      return impl.ctx.Fail(
          std::string(fields[0] == "U" ? "user" : "day-label") +
          " row after tweet rows (the streaming reader requires the "
          "canonical section order WriteTsv emits: U, then D, then "
          "day-ordered T)");
    } else {
      return impl.ctx.Fail("unknown row tag '" + fields[0] + "'");
    }
  }
  if (impl.input->bad()) {
    return Status::IoError(impl.ctx.source_name + ": read failed");
  }
  if (!impl.has_pending) impl.exhausted = true;
  ++impl.next_day;
  return true;
}

void TsvStreamReader::ReleaseText(const TsvDayBatch& batch) {
  for (const size_t id : batch.tweet_ids) {
    impl_->corpus.ReleaseTweetText(id);
  }
}

Corpus TsvStreamReader::TakeCorpus() { return std::move(impl_->corpus); }

Result<Corpus> ReadTsvStream(const std::string& path,
                             const TsvDayCallback& on_day) {
  TRICLUST_ASSIGN_OR_RETURN(std::unique_ptr<TsvStreamReader> reader,
                            TsvStreamReader::Open(path));
  TsvDayBatch batch;
  while (true) {
    TRICLUST_ASSIGN_OR_RETURN(const bool more, reader->NextDay(&batch));
    if (!more) break;
    TRICLUST_RETURN_IF_ERROR(on_day(batch.day, reader->corpus(),
                                    batch.tweet_ids));
    reader->ReleaseText(batch);
  }
  return reader->TakeCorpus();
}

}  // namespace triclust
