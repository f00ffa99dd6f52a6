#include "src/matrix/io.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace triclust {

void WriteDenseMatrix(const DenseMatrix& matrix, std::ostream* os) {
  TRICLUST_CHECK(os != nullptr);
  *os << matrix.rows() << " " << matrix.cols() << "\n";
  std::string line;
  for (size_t i = 0; i < matrix.rows(); ++i) {
    const double* row = matrix.Row(i);
    line.clear();
    for (size_t j = 0; j < matrix.cols(); ++j) {
      if (j > 0) line += ' ';
      AppendDouble17(row[j], &line);
    }
    line += '\n';
    *os << line;
  }
}

Result<DenseMatrix> ReadDenseMatrix(std::istream* is) {
  TRICLUST_CHECK(is != nullptr);
  std::string header;
  if (!std::getline(*is, header)) {
    return Status::ParseError("missing matrix header");
  }
  const auto dims = SplitWhitespace(header);
  size_t rows = 0;
  size_t cols = 0;
  if (dims.size() != 2 || !ParseSizeT(dims[0], &rows) ||
      !ParseSizeT(dims[1], &cols)) {
    return Status::ParseError("malformed matrix header: " + header);
  }
  // The header is not trusted with an allocation: the values grow with the
  // rows actually parsed, so memory stays bounded by the bytes read.
  std::vector<double> values;
  std::string line;
  for (size_t i = 0; i < rows; ++i) {
    if (!std::getline(*is, line)) {
      return Status::ParseError("matrix truncated at row " +
                                std::to_string(i));
    }
    const auto fields = SplitWhitespace(line);
    if (fields.size() != cols) {
      return Status::ParseError("row " + std::to_string(i) + " has " +
                                std::to_string(fields.size()) +
                                " fields, want " + std::to_string(cols));
    }
    for (size_t j = 0; j < cols; ++j) {
      double value = 0.0;
      if (!ParseDouble(fields[j], &value)) {
        return Status::ParseError("bad value at (" + std::to_string(i) +
                                  "," + std::to_string(j) + ")");
      }
      values.push_back(value);
    }
  }
  DenseMatrix matrix(rows, cols);
  std::copy(values.begin(), values.end(), matrix.data());
  return matrix;
}

}  // namespace triclust
