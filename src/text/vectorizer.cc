#include "src/text/vectorizer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <memory_resource>
#include <unordered_map>
#include <utility>

#include "src/text/stopwords.h"
#include "src/util/logging.h"

namespace triclust {

DocumentVectorizer::DocumentVectorizer(VectorizerOptions options)
    : options_(options) {}

void DocumentVectorizer::Fit(
    const std::vector<std::vector<std::string>>& documents) {
  FitStreamBegin();
  std::vector<uint32_t> ids;
  std::vector<size_t> ends;
  ends.reserve(documents.size());
  for (const auto& doc : documents) {
    for (const std::string& token : doc) ids.push_back(InternToken(token));
    ends.push_back(ids.size());
  }
  FitTokenIds(ids, ends);
}

std::vector<uint32_t> DocumentVectorizer::FitTokenIds(
    const std::vector<uint32_t>& token_ids, const std::vector<size_t>& ends) {
  size_t begin = 0;
  for (const size_t end : ends) {
    FitStreamCount(token_ids.data() + begin, end - begin);
    begin = end;
  }
  FitStreamAdmitBegin();
  begin = 0;
  for (const size_t end : ends) {
    FitStreamAdmit(token_ids.data() + begin, end - begin);
    begin = end;
  }
  std::vector<uint32_t> features;
  features.reserve(stream_stats_.size());
  for (const TokenStats& stats : stream_stats_) {
    features.push_back(stats.feature);
  }
  FitStreamFinish();
  return features;
}

void DocumentVectorizer::FitStreamBegin() {
  stream_phase_ = StreamPhase::kCounting;
  stream_tokens_ = Vocabulary();
  stream_stats_.clear();
  stream_counted_docs_ = 0;
  stream_admitted_docs_ = 0;
  fitted_ = false;
}

uint32_t DocumentVectorizer::InternToken(std::string_view token) {
  TRICLUST_CHECK(stream_phase_ != StreamPhase::kNone);
  const size_t id = stream_tokens_.GetOrAdd(token);
  if (id == stream_stats_.size()) {
    TokenStats stats;
    stats.stop_word = options_.remove_stopwords && IsStopWord(token);
    stream_stats_.push_back(stats);
  }
  return static_cast<uint32_t>(id);
}

void DocumentVectorizer::FitStreamCount(const uint32_t* token_ids,
                                        size_t count) {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kCounting);
  // Document frequencies over the raw token space: each token counts once
  // per document, after stop-word removal.
  const size_t stamp = ++stream_counted_docs_;
  for (size_t i = 0; i < count; ++i) {
    TokenStats& stats = stream_stats_[token_ids[i]];
    if (stats.stop_word || stats.last_document == stamp) continue;
    stats.last_document = stamp;
    ++stats.document_frequency;
  }
}

void DocumentVectorizer::FitStreamAdmitBegin() {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kCounting);
  stream_phase_ = StreamPhase::kAdmitting;
  vocabulary_ = Vocabulary();
  document_frequency_.clear();
}

void DocumentVectorizer::FitStreamAdmit(const uint32_t* token_ids,
                                        size_t count) {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kAdmitting);
  // Admits features meeting the document-frequency floor, in
  // first-appearance order so ids are deterministic. A token the df pass
  // never counted (a stop word, or one first seen in this pass) has df 0
  // and is never admitted.
  for (size_t i = 0; i < count; ++i) {
    TokenStats& stats = stream_stats_[token_ids[i]];
    if (stats.feature != kNotAFeature || stats.document_frequency == 0 ||
        stats.document_frequency < options_.min_document_frequency) {
      continue;
    }
    stats.feature = static_cast<uint32_t>(
        vocabulary_.GetOrAdd(stream_tokens_.TokenOf(token_ids[i])));
    document_frequency_.push_back(stats.document_frequency);
  }
  ++stream_admitted_docs_;
}

void DocumentVectorizer::FitStreamFinish() {
  TRICLUST_CHECK(stream_phase_ == StreamPhase::kAdmitting);
  // Unequal pass lengths mean the caller re-streamed a different corpus —
  // the vocabulary would silently diverge from the idf denominators.
  TRICLUST_CHECK_EQ(stream_counted_docs_, stream_admitted_docs_);
  num_fit_documents_ = stream_counted_docs_;
  const double n = static_cast<double>(num_fit_documents_);
  idf_.clear();
  for (const size_t df : document_frequency_) {
    idf_.push_back(std::log((1.0 + n) / (1.0 + static_cast<double>(df))) +
                   1.0);
  }
  fitted_ = true;
  stream_phase_ = StreamPhase::kNone;
  stream_tokens_ = Vocabulary();
  stream_stats_ = {};
}

size_t DocumentVectorizer::DocumentFrequency(size_t id) const {
  TRICLUST_CHECK_LT(id, document_frequency_.size());
  return document_frequency_[id];
}

SparseMatrix DocumentVectorizer::Transform(
    const std::vector<std::vector<std::string>>& documents) const {
  std::vector<uint32_t> feature_ids;
  std::vector<size_t> ends;
  ends.reserve(documents.size());
  for (const auto& doc : documents) {
    for (const std::string& token : doc) {
      const ptrdiff_t id = vocabulary_.IdOf(token);
      feature_ids.push_back(id < 0 ? kNotAFeature : static_cast<uint32_t>(id));
    }
    ends.push_back(feature_ids.size());
  }
  return TransformFeatureIds(feature_ids, ends);
}

SparseMatrix DocumentVectorizer::TransformFeatureIds(
    const std::vector<uint32_t>& feature_ids,
    const std::vector<size_t>& ends) const {
  TRICLUST_CHECK(fitted_);
  std::vector<size_t> row_ptr = {0};
  row_ptr.reserve(ends.size() + 1);
  // A document has at most one entry per token, so this is room for every
  // entry without a regrowth that would briefly hold the arrays twice.
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(feature_ids.size());
  values.reserve(feature_ids.size());
  std::vector<std::pair<uint32_t, double>> row;
  alignas(std::max_align_t) std::array<std::byte, 4096> buffer;
  size_t begin = 0;
  for (const size_t end : ends) {
    // The norm is summed in the iteration order of a fresh unordered_map
    // filled by counts[id] += 1 in token order. That order fixes the last
    // bits of each row, so it stays even though the map is otherwise only
    // a counter. The map's nodes come from `buffer` (the heap once a row
    // outgrows it): where a node lives does not change the order.
    std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size());
    std::pmr::unordered_map<size_t, double> counts(&arena);
    for (size_t p = begin; p < end; ++p) {
      if (feature_ids[p] == kNotAFeature) continue;  // OOV or filtered.
      counts[feature_ids[p]] += 1.0;
    }
    begin = end;
    double norm_sq = 0.0;
    for (auto& [id, count] : counts) {
      double w = count;
      if (options_.weighting == TermWeighting::kTfIdf) {
        w *= idf_[id];
      }
      count = w;
      norm_sq += w * w;
    }
    const double inv_norm =
        (options_.l2_normalize && norm_sq > 0.0) ? 1.0 / std::sqrt(norm_sq)
                                                 : 1.0;
    row.clear();
    for (const auto& [id, w] : counts) {
      row.emplace_back(static_cast<uint32_t>(id), w * inv_norm);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [id, value] : row) {
      if (value == 0.0) continue;  // Canonical CSR stores no zeros.
      col_idx.push_back(id);
      values.push_back(value);
    }
    row_ptr.push_back(col_idx.size());
  }
  return SparseMatrix::FromCsr(ends.size(), vocabulary_.size(),
                               std::move(row_ptr), std::move(col_idx),
                               std::move(values));
}

SparseMatrix DocumentVectorizer::FitTransform(
    const std::vector<std::vector<std::string>>& documents) {
  Fit(documents);
  return Transform(documents);
}

}  // namespace triclust
