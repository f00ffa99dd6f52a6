#include "src/text/vocabulary.h"

#include <functional>

#include "src/util/logging.h"

namespace triclust {

size_t Vocabulary::Slot(std::string_view token) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = std::hash<std::string_view>()(token) & mask;
  while (slots_[slot] != 0 && tokens_[slots_[slot] - 1] != token) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

size_t Vocabulary::GetOrAdd(std::string_view token) {
  if (2 * (tokens_.size() + 1) > slots_.size()) {
    TRICLUST_CHECK_LT(tokens_.size(), size_t{UINT32_MAX});
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
    for (size_t id = 0; id < tokens_.size(); ++id) {
      slots_[Slot(tokens_[id])] = static_cast<uint32_t>(id + 1);
    }
  }
  const size_t slot = Slot(token);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  tokens_.emplace_back(token);
  slots_[slot] = static_cast<uint32_t>(tokens_.size());
  return tokens_.size() - 1;
}

ptrdiff_t Vocabulary::IdOf(std::string_view token) const {
  if (slots_.empty()) return -1;
  return static_cast<ptrdiff_t>(slots_[Slot(token)]) - 1;
}

bool Vocabulary::Contains(std::string_view token) const {
  return IdOf(token) >= 0;
}

const std::string& Vocabulary::TokenOf(size_t id) const {
  TRICLUST_CHECK_LT(id, tokens_.size());
  return tokens_[id];
}

}  // namespace triclust
