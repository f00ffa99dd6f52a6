#include "src/data/snapshots.h"

#include "src/util/logging.h"

namespace triclust {

std::vector<Snapshot> SplitByDay(const Corpus& corpus) {
  std::vector<Snapshot> snapshots(static_cast<size_t>(corpus.num_days()));
  for (size_t day = 0; day < snapshots.size(); ++day) {
    snapshots[day].first_day = static_cast<int>(day);
    snapshots[day].last_day = static_cast<int>(day);
  }
  for (const Tweet& t : corpus.tweets()) {
    const size_t day = static_cast<size_t>(t.day);
    TRICLUST_CHECK_LT(day, snapshots.size());
    snapshots[day].tweet_ids.push_back(t.id);
  }
  return snapshots;
}

}  // namespace triclust
