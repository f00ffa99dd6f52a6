#include "src/util/table_writer.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace triclust {

TableWriter::TableWriter(std::string title) : title_(std::move(title)) {}

void TableWriter::SetHeader(std::vector<std::string> header) {
  TRICLUST_CHECK(rows_.empty());
  header_ = std::move(header);
}

void TableWriter::AddRow(std::vector<std::string> row) {
  TRICLUST_CHECK(!header_.empty());
  TRICLUST_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TableWriter::Num(double value, int precision) {
  if (std::isnan(value)) return "-";
  return StrFormat("%.*f", precision, value);
}

void TableWriter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      os << std::string(widths[c] - row[c].size(), ' ');
      os << " | ";
    }
    os << "\n";
  };

  size_t total = 1;
  for (size_t w : widths) total += w + 3;

  os << "\n== " << title_ << " ==\n";
  print_row(header_);
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
  os.flush();
}

}  // namespace triclust
