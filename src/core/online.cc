#include "src/core/online.h"

#include <sstream>
#include <utility>

#include "src/util/file_util.h"
#include "src/util/fs.h"
#include "src/util/parallel.h"

namespace triclust {

OnlineTriClusterer::OnlineTriClusterer(OnlineConfig config, DenseMatrix sf0)
    : solver_(config, std::move(sf0)) {}

std::vector<double> OnlineTriClusterer::UserSentiment(
    size_t corpus_user_id) const {
  return state_.UserSentiment(corpus_user_id);
}

Status OnlineTriClusterer::SaveState(const std::string& path) const {
  return AtomicWriteFileChecksummed(
      GetDefaultFileSystem(), path,
      [this](std::ostream* os) { return state_.Write(os); });
}

Status OnlineTriClusterer::RestoreState(const std::string& path) {
  TRICLUST_ASSIGN_OR_RETURN(std::string contents,
                            GetDefaultFileSystem()->ReadFileToString(path));
  TRICLUST_ASSIGN_OR_RETURN(
      const std::string payload,
      VerifyChecksummedPayload(std::move(contents), path));
  std::istringstream in(payload);
  TRICLUST_ASSIGN_OR_RETURN(
      StreamState state,
      StreamState::Read(&in, solver_.sf0().rows(), solver_.sf0().cols()));
  state_ = std::move(state);
  return Status::OK();
}

TriClusterResult OnlineTriClusterer::ProcessSnapshot(
    const DatasetMatrices& data) {
  // The workspace carries the per-fit thread budget (Solve installs it,
  // thread-local — concurrent clusterers on other threads are unaffected)
  // and is reused across snapshots (Solve resets its transpose cache at
  // every fit boundary), so steady-state streaming allocates no scratch.
  workspace_.budget = ThreadBudget(solver_.config().base.num_threads);
  return solver_.Solve(data, &state_, &last_info_, &workspace_);
}

}  // namespace triclust
