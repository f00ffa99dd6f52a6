#ifndef TRICLUST_SRC_MATRIX_IO_H_
#define TRICLUST_SRC_MATRIX_IO_H_

#include <istream>
#include <ostream>

#include "src/matrix/dense_matrix.h"
#include "src/util/status.h"

namespace triclust {

/// Text (de)serialization of dense matrices, used by the online solver's
/// checkpointing and available for exporting factor matrices. Format: one
/// header line `rows cols`, then one row per line, full double precision
/// (%.17g round-trips exactly).
void WriteDenseMatrix(const DenseMatrix& matrix, std::ostream* os);

/// Reads a matrix written by WriteDenseMatrix. Returns ParseError on
/// malformed input; memory stays bounded by the bytes read, whatever sizes
/// the header claims.
Result<DenseMatrix> ReadDenseMatrix(std::istream* is);

}  // namespace triclust

#endif  // TRICLUST_SRC_MATRIX_IO_H_
