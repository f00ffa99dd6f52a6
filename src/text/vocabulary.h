#ifndef TRICLUST_SRC_TEXT_VOCABULARY_H_
#define TRICLUST_SRC_TEXT_VOCABULARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace triclust {

/// Bidirectional feature ↔ dense-id map (the feature layer F of the
/// tripartite graph). Ids are assigned in insertion order and never reused,
/// so matrices built against a vocabulary remain valid as it grows — the
/// property the online framework relies on when the feature space evolves
/// across snapshots (paper Observation 1).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Id of `token`, inserting it if absent.
  size_t GetOrAdd(std::string_view token);

  /// Id of `token`, or -1 when absent.
  ptrdiff_t IdOf(std::string_view token) const;

  /// True when `token` is present.
  bool Contains(std::string_view token) const;

  /// Token for a valid id.
  const std::string& TokenOf(size_t id) const;

  /// Number of distinct tokens.
  size_t size() const { return tokens_.size(); }
  bool empty() const { return tokens_.empty(); }

  /// All tokens in id order.
  const std::vector<std::string>& tokens() const { return tokens_; }

 private:
  /// Index into `slots_` of the slot that holds `token`'s id, or of the
  /// empty slot where it would go. Requires a non-empty table.
  size_t Slot(std::string_view token) const;

  std::vector<std::string> tokens_;
  /// Open-addressed index over `tokens_` (linear probing): a slot holds an
  /// id + 1, or 0 when empty. Its size is a power of two, at least twice
  /// the number of tokens, so a lookup hashes the string_view it is given
  /// and makes no string.
  std::vector<uint32_t> slots_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_TEXT_VOCABULARY_H_
