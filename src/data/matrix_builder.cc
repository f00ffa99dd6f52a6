#include "src/data/matrix_builder.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/util/logging.h"

namespace triclust {

MatrixBuilder::MatrixBuilder(TokenizerOptions tokenizer_options,
                             VectorizerOptions vectorizer_options)
    : space_(MakeSpace(Tokenizer(tokenizer_options),
                       DocumentVectorizer(vectorizer_options))),
      stream_fit_(vectorizer_options) {}

std::shared_ptr<const MatrixBuilder::FeatureSpace> MatrixBuilder::MakeSpace(
    Tokenizer tokenizer, DocumentVectorizer vectorizer, SparseMatrix rows) {
  return std::make_shared<const FeatureSpace>(FeatureSpace{
      std::move(tokenizer), std::move(vectorizer), std::move(rows)});
}

void MatrixBuilder::Fit(const Corpus& corpus) {
  // Each tweet is tokenized once and each token interned once; both fit
  // passes and the rows then read token ids, never strings.
  const Tokenizer& tokenizer = space_->tokenizer;
  DocumentVectorizer vectorizer(space_->vectorizer.options());
  vectorizer.FitStreamBegin();
  std::vector<uint32_t> ids;
  std::vector<size_t> ends;
  ends.reserve(corpus.num_tweets());
  for (const Tweet& t : corpus.tweets()) {
    tokenizer.ForEachToken(t.text, [&](std::string_view token) {
      ids.push_back(vectorizer.InternToken(token));
    });
    ends.push_back(ids.size());
  }
  const std::vector<uint32_t> features = vectorizer.FitTokenIds(ids, ends);
  for (uint32_t& id : ids) id = features[id];
  SparseMatrix rows = vectorizer.TransformFeatureIds(ids, ends);
  space_ = MakeSpace(tokenizer, std::move(vectorizer), std::move(rows));
}

void MatrixBuilder::FitStreamBegin() {
  space_ = MakeSpace(space_->tokenizer,
                     DocumentVectorizer(space_->vectorizer.options()));
  stream_fit_.FitStreamBegin();
}

std::vector<uint32_t> MatrixBuilder::InternTweet(const std::string& text) {
  std::vector<uint32_t> ids;
  space_->tokenizer.ForEachToken(text, [&](std::string_view token) {
    ids.push_back(stream_fit_.InternToken(token));
  });
  return ids;
}

void MatrixBuilder::FitStreamCount(const std::string& text) {
  const std::vector<uint32_t> ids = InternTweet(text);
  stream_fit_.FitStreamCount(ids.data(), ids.size());
}

void MatrixBuilder::FitStreamAdmitBegin() { stream_fit_.FitStreamAdmitBegin(); }

void MatrixBuilder::FitStreamAdmit(const std::string& text) {
  const std::vector<uint32_t> ids = InternTweet(text);
  stream_fit_.FitStreamAdmit(ids.data(), ids.size());
}

void MatrixBuilder::FitStreamFinish() {
  stream_fit_.FitStreamFinish();
  space_ = MakeSpace(space_->tokenizer,
                     std::exchange(stream_fit_,
                                   DocumentVectorizer(stream_fit_.options())));
}

DatasetMatrices MatrixBuilder::Assemble(const Corpus& corpus,
                                        std::vector<size_t> tweet_ids,
                                        SparseMatrix xp,
                                        int user_label_day) const {
  DatasetMatrices out;
  out.tweet_ids = std::move(tweet_ids);
  out.xp = std::move(xp);

  // Row maps.
  std::unordered_map<size_t, size_t> tweet_row;
  tweet_row.reserve(out.tweet_ids.size());
  for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
    TRICLUST_CHECK_LT(out.tweet_ids[i], corpus.num_tweets());
    tweet_row[out.tweet_ids[i]] = i;
  }

  std::unordered_map<size_t, size_t> user_row;
  for (size_t tweet_id : out.tweet_ids) {
    const size_t author = corpus.tweet(tweet_id).user;
    if (user_row.emplace(author, out.user_ids.size()).second) {
      out.user_ids.push_back(author);
    }
  }

  // Xu: user–feature = sum of the user's tweet rows.
  {
    SparseMatrix::Builder builder(out.user_ids.size(), out.xp.cols());
    const auto& row_ptr = out.xp.row_ptr();
    const auto& col_idx = out.xp.col_idx();
    const auto& values = out.xp.values();
    for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
      const size_t urow = user_row.at(corpus.tweet(out.tweet_ids[i]).user);
      for (size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
        builder.Add(urow, col_idx[p], values[p]);
      }
    }
    out.xu = builder.Build();
  }

  // Xr: posting incidence, plus retweet incidence onto in-subset originals.
  // Gu: one unit of weight per retweet event whose two endpoints are both
  // active in the subset.
  {
    SparseMatrix::Builder builder(out.user_ids.size(), out.tweet_ids.size());
    std::vector<UserGraph::Edge> edges;
    for (size_t i = 0; i < out.tweet_ids.size(); ++i) {
      const Tweet& t = corpus.tweet(out.tweet_ids[i]);
      const size_t urow = user_row.at(t.user);
      builder.Add(urow, i, 1.0);
      if (t.IsRetweet()) {
        const Tweet& original =
            corpus.tweet(static_cast<size_t>(t.retweet_of));
        const auto orig_row = tweet_row.find(original.id);
        if (orig_row != tweet_row.end()) {
          builder.Add(urow, orig_row->second, 1.0);
        }
        const auto author_row = user_row.find(original.user);
        if (author_row != user_row.end() && author_row->second != urow) {
          edges.push_back({urow, author_row->second, 1.0});
        }
      }
    }
    out.xr = builder.Build();
    out.gu = UserGraph::FromEdges(out.user_ids.size(), edges);
  }

  // Ground truth.
  out.tweet_labels.reserve(out.tweet_ids.size());
  for (size_t tweet_id : out.tweet_ids) {
    out.tweet_labels.push_back(corpus.tweet(tweet_id).label);
  }
  out.user_labels.reserve(out.user_ids.size());
  for (size_t user_id : out.user_ids) {
    out.user_labels.push_back(
        user_label_day >= 0
            ? corpus.UserSentimentAt(user_id, user_label_day)
            : corpus.user(user_id).label);
  }
  return out;
}

DatasetMatrices MatrixBuilder::Build(const Corpus& corpus,
                                     const std::vector<size_t>& tweet_ids,
                                     int user_label_day) const {
  TRICLUST_CHECK(fitted());
  return Assemble(corpus, tweet_ids, space_->rows.SelectRows(tweet_ids),
                  user_label_day);
}

DatasetMatrices MatrixBuilder::BuildAll(const Corpus& corpus) const {
  std::vector<size_t> all(corpus.num_tweets());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return Build(corpus, all);
}

void MatrixBuilder::Append(const Corpus& corpus, size_t tweet_id) {
  Append(corpus, std::vector<size_t>{tweet_id});
}

void MatrixBuilder::Append(const Corpus& corpus,
                           const std::vector<size_t>& tweet_ids) {
  TRICLUST_CHECK(fitted());
  const FeatureSpace& space = *space_;
  // Tweets the fit never saw — added after Fit(), or any tweet after a
  // streaming fit — are vectorized here in one Transform (OOV tokens drop
  // out). Transform weights and normalizes each row on its own, so a row
  // made here is bitwise the one Fit() would have cached.
  std::vector<std::vector<std::string>> unseen;
  for (size_t tweet_id : tweet_ids) {
    TRICLUST_CHECK_LT(tweet_id, corpus.num_tweets());
    if (tweet_id >= space.rows.rows()) {
      unseen.push_back(space.tokenizer.Tokenize(corpus.tweet(tweet_id).text));
    }
  }
  const SparseMatrix fresh = space.vectorizer.Transform(unseen);
  size_t next_fresh = 0;
  for (size_t tweet_id : tweet_ids) {
    const bool cached = tweet_id < space.rows.rows();
    const SparseMatrix& rows = cached ? space.rows : fresh;
    const size_t row = cached ? tweet_id : next_fresh++;
    const auto begin = static_cast<ptrdiff_t>(rows.row_ptr()[row]);
    const auto end = static_cast<ptrdiff_t>(rows.row_ptr()[row + 1]);
    pending_cols_.insert(pending_cols_.end(), rows.col_idx().begin() + begin,
                         rows.col_idx().begin() + end);
    pending_values_.insert(pending_values_.end(),
                           rows.values().begin() + begin,
                           rows.values().begin() + end);
    pending_row_ptr_.push_back(pending_cols_.size());
    pending_ids_.push_back(tweet_id);
  }
}

DatasetMatrices MatrixBuilder::EmitSnapshot(const Corpus& corpus,
                                            int user_label_day) {
  TRICLUST_CHECK(fitted());
  // Copied, not moved: Xp gets exactly-sized arrays, and the pending
  // buffers keep their capacity for the next snapshot.
  SparseMatrix xp = SparseMatrix::FromCsr(pending_ids_.size(),
                                          vocabulary().size(), pending_row_ptr_,
                                          pending_cols_, pending_values_);
  pending_row_ptr_.resize(1);
  pending_cols_.clear();
  pending_values_.clear();
  return Assemble(corpus, std::exchange(pending_ids_, {}), std::move(xp),
                  user_label_day);
}

}  // namespace triclust
