#include "src/core/config.h"

#include <initializer_list>
#include <string>

namespace triclust {

namespace {

/// One range a parameter must be in. Every comparison with NaN is false,
/// so a NaN parameter breaks each rule it appears in.
struct Rule {
  bool holds;
  const char* requirement;
};

/// InvalidArgument naming the first rule that does not hold, else OK.
Status FirstViolation(std::initializer_list<Rule> rules) {
  for (const Rule& rule : rules) {
    if (!rule.holds) {
      return Status::InvalidArgument(std::string("config requires ") +
                                     rule.requirement);
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateConfig(const TriClusterConfig& config) {
  return FirstViolation({
      {config.num_clusters >= 2, "num_clusters >= 2"},
      {config.alpha >= 0.0, "alpha >= 0"},
      {config.beta >= 0.0, "beta >= 0"},
      {config.max_iterations >= 1, "max_iterations >= 1"},
      {config.tolerance >= 0.0, "tolerance >= 0"},
      // Keeps MultiplicativeUpdateInPlace's denominators positive.
      {config.epsilon > 0.0, "epsilon > 0"},
      {config.sparsity >= 0.0, "sparsity >= 0"},
  });
}

Status ValidateConfig(const OnlineConfig& config, const DenseMatrix& sf0) {
  TRICLUST_RETURN_IF_ERROR(ValidateConfig(config.base));
  return FirstViolation({
      {sf0.cols() == static_cast<size_t>(config.base.num_clusters),
       "sf0 to have num_clusters columns"},
      {config.tau > 0.0 && config.tau <= 1.0, "0 < tau <= 1"},
      {config.window >= 1, "window >= 1"},
      {config.alpha >= 0.0, "online alpha >= 0"},
      {config.gamma >= 0.0, "gamma >= 0"},
  });
}

}  // namespace triclust
