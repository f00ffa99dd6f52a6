#ifndef TRICLUST_SRC_DATA_SNAPSHOTS_H_
#define TRICLUST_SRC_DATA_SNAPSHOTS_H_

#include <vector>

#include "src/data/corpus.h"

namespace triclust {

/// One temporal snapshot of the stream: the tweets whose timestamps fall in
/// [first_day, last_day]. The online framework consumes these in order.
struct Snapshot {
  int first_day = 0;
  int last_day = 0;
  std::vector<size_t> tweet_ids;

  size_t size() const { return tweet_ids.size(); }
};

/// Splits the corpus into one snapshot per day (the paper's experimental
/// granularity: "we set the unit of timestamp as per day"). Empty days
/// produce empty snapshots so day indices stay aligned.
std::vector<Snapshot> SplitByDay(const Corpus& corpus);

}  // namespace triclust

#endif  // TRICLUST_SRC_DATA_SNAPSHOTS_H_
