#ifndef TRICLUST_SRC_UTIL_TABLE_WRITER_H_
#define TRICLUST_SRC_UTIL_TABLE_WRITER_H_

#include <ostream>
#include <string>
#include <vector>

namespace triclust {

/// Accumulates rows and renders an aligned plain-text table (for benchmark
/// harness stdout, mirroring the rows of the paper's tables).
class TableWriter {
 public:
  /// `title` is printed above the table (e.g. "Table 4: tweet-level ...").
  explicit TableWriter(std::string title);

  /// Sets the header row. Must be called before adding rows.
  void SetHeader(std::vector<std::string> header);

  /// Appends a data row; must match the header arity.
  void AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision, using "-" for
  /// NaN (the paper prints "–" for metrics a method does not produce).
  static std::string Num(double value, int precision = 2);

  /// Renders the aligned table to `os`.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_TABLE_WRITER_H_
