#include "src/core/stream_state.h"

#include <algorithm>
#include <limits>
#include <string>

#include "src/matrix/io.h"
#include "src/util/string_util.h"

namespace triclust {

Status StreamState::Write(std::ostream* os) const {
  std::ostream& out = *os;
  out << "triclust-online-state 1\n";
  out << timestep << " " << sf_history.size() << " " << user_history.size()
      << "\n";
  for (const DenseMatrix& sf : sf_history) {
    WriteDenseMatrix(sf, &out);
  }
  // User histories, sorted by id for deterministic files.
  std::vector<size_t> user_ids;
  user_ids.reserve(user_history.size());
  for (const auto& [user, history] : user_history) {
    user_ids.push_back(user);
  }
  std::sort(user_ids.begin(), user_ids.end());
  std::string line;
  for (size_t user : user_ids) {
    const auto& history = user_history.at(user);
    out << user << " " << history.size() << "\n";
    for (const auto& row : history) {
      line.clear();
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) line += ' ';
        AppendDouble17(row[c], &line);
      }
      line += '\n';
      out << line;
    }
  }
  if (!out) return Status::IoError("stream state write failed");
  return Status::OK();
}

Result<StreamState> StreamState::Read(std::istream* is, size_t num_features,
                                      size_t num_clusters) {
  std::istream& in = *is;
  std::string line;
  if (!std::getline(in, line) || line != "triclust-online-state 1") {
    return Status::ParseError("bad state header: " + line);
  }
  size_t timestep = 0;
  size_t num_sf = 0;
  size_t num_users = 0;
  if (!std::getline(in, line)) return Status::ParseError("missing counts");
  {
    const auto fields = SplitWhitespace(line);
    if (fields.size() != 3 || !ParseSizeT(fields[0], &timestep) ||
        !ParseSizeT(fields[1], &num_sf) ||
        !ParseSizeT(fields[2], &num_users)) {
      return Status::ParseError("malformed counts: " + line);
    }
    // Solve() increments the timestep, so INT_MAX itself would overflow.
    if (timestep >= static_cast<size_t>(std::numeric_limits<int>::max())) {
      return Status::ParseError("timestep out of range: " + line);
    }
  }
  StreamState state;
  for (size_t i = 0; i < num_sf; ++i) {
    TRICLUST_ASSIGN_OR_RETURN(DenseMatrix sf, ReadDenseMatrix(&in));
    if (sf.rows() != num_features || sf.cols() != num_clusters) {
      return Status::FailedPrecondition(
          "checkpoint feature space does not match this clusterer");
    }
    state.sf_history.push_back(std::move(sf));
  }
  const size_t k = num_clusters;
  for (size_t u = 0; u < num_users; ++u) {
    if (!std::getline(in, line)) {
      return Status::ParseError("state truncated in user section");
    }
    const auto header = SplitWhitespace(line);
    size_t user = 0;
    size_t rows = 0;
    if (header.size() != 2 || !ParseSizeT(header[0], &user) ||
        !ParseSizeT(header[1], &rows)) {
      return Status::ParseError("malformed user header: " + line);
    }
    std::deque<std::vector<double>> history;
    for (size_t r = 0; r < rows; ++r) {
      if (!std::getline(in, line)) {
        return Status::ParseError("state truncated in user rows");
      }
      const auto fields = SplitWhitespace(line);
      if (fields.size() != k) {
        return Status::ParseError("user row has wrong arity: " + line);
      }
      std::vector<double> row(k);
      for (size_t c = 0; c < k; ++c) {
        if (!ParseDouble(fields[c], &row[c])) {
          return Status::ParseError("bad user value: " + fields[c]);
        }
      }
      history.push_back(std::move(row));
    }
    state.user_history.emplace(user, std::move(history));
  }
  state.timestep = static_cast<int>(timestep);
  return state;
}

}  // namespace triclust
