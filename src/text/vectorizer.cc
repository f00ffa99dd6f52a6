#include "src/text/vectorizer.h"

#include <cmath>
#include <unordered_map>

#include "src/text/stopwords.h"
#include "src/util/logging.h"

namespace triclust {

DocumentVectorizer::DocumentVectorizer(VectorizerOptions options)
    : options_(options) {}

void DocumentVectorizer::Fit(
    const std::vector<std::vector<std::string>>& documents) {
  FitStreamBegin();
  for (const auto& doc : documents) FitStreamCount(doc);
  FitStreamAdmitBegin();
  for (const auto& doc : documents) FitStreamAdmit(doc);
  FitStreamFinish();
}

void DocumentVectorizer::FitStreamBegin() {
  stream_phase_ = StreamPhase::kCounting;
  stream_df_.clear();
  stream_counted_docs_ = 0;
  stream_admitted_docs_ = 0;
  fitted_ = false;
}

void DocumentVectorizer::FitStreamCount(
    const std::vector<std::string>& document) {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kCounting);
  // Document frequencies over the raw token space: per-document dedup
  // after stop-word removal.
  std::unordered_map<std::string, bool> seen;
  for (const std::string& token : document) {
    if (options_.remove_stopwords && IsStopWord(token)) continue;
    if (!seen.emplace(token, true).second) continue;
    ++stream_df_[token];
  }
  ++stream_counted_docs_;
}

void DocumentVectorizer::FitStreamAdmitBegin() {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kCounting);
  stream_phase_ = StreamPhase::kAdmitting;
  vocabulary_ = Vocabulary();
  document_frequency_.clear();
}

void DocumentVectorizer::FitStreamAdmit(
    const std::vector<std::string>& document) {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kAdmitting);
  // Admits features meeting the document-frequency floor, in
  // first-appearance order so ids are deterministic.
  for (const std::string& token : document) {
    if (options_.remove_stopwords && IsStopWord(token)) continue;
    const auto it = stream_df_.find(token);
    if (it == stream_df_.end() ||
        it->second < options_.min_document_frequency) {
      continue;
    }
    if (!vocabulary_.Contains(token)) {
      vocabulary_.GetOrAdd(token);
      document_frequency_.push_back(it->second);
    }
  }
  ++stream_admitted_docs_;
}

void DocumentVectorizer::FitStreamFinish() {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kAdmitting);
  // Unequal pass lengths mean the caller re-streamed a different corpus —
  // the vocabulary would silently diverge from the idf denominators.
  TRICLUST_CHECK_EQ(stream_counted_docs_, stream_admitted_docs_);
  num_fit_documents_ = stream_counted_docs_;
  fitted_ = true;
  stream_phase_ = StreamPhase::kNone;
  stream_df_ = {};
}

double DocumentVectorizer::IdfWeight(size_t feature_id) const {
  const double n = static_cast<double>(num_fit_documents_);
  const double df = static_cast<double>(document_frequency_[feature_id]);
  return std::log((1.0 + n) / (1.0 + df)) + 1.0;
}

size_t DocumentVectorizer::DocumentFrequency(size_t id) const {
  TRICLUST_CHECK_LT(id, document_frequency_.size());
  return document_frequency_[id];
}

SparseMatrix DocumentVectorizer::Transform(
    const std::vector<std::vector<std::string>>& documents) const {
  TRICLUST_CHECK(fitted_);
  SparseMatrix::Builder builder(documents.size(), vocabulary_.size());
  std::vector<double> row_sq;
  for (size_t d = 0; d < documents.size(); ++d) {
    std::unordered_map<size_t, double> counts;
    for (const std::string& token : documents[d]) {
      const ptrdiff_t id = vocabulary_.IdOf(token);
      if (id < 0) continue;  // OOV or filtered at Fit time.
      counts[static_cast<size_t>(id)] += 1.0;
    }
    double norm_sq = 0.0;
    for (auto& [id, count] : counts) {
      double w = count;
      if (options_.weighting == TermWeighting::kTfIdf) {
        w *= IdfWeight(id);
      }
      counts[id] = w;
      norm_sq += w * w;
    }
    const double inv_norm =
        (options_.l2_normalize && norm_sq > 0.0) ? 1.0 / std::sqrt(norm_sq)
                                                 : 1.0;
    for (const auto& [id, w] : counts) {
      builder.Add(d, id, w * inv_norm);
    }
  }
  return builder.Build();
}

SparseMatrix DocumentVectorizer::FitTransform(
    const std::vector<std::vector<std::string>>& documents) {
  Fit(documents);
  return Transform(documents);
}

}  // namespace triclust
