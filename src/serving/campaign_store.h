#ifndef TRICLUST_SRC_SERVING_CAMPAIGN_STORE_H_
#define TRICLUST_SRC_SERVING_CAMPAIGN_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/serving/campaign_engine.h"
#include "src/util/fs.h"
#include "src/util/retry.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace triclust {
namespace serving {

/// Knobs for a CampaignStore's I/O behavior. The defaults are production
/// behavior; tests interpose a FaultInjectionFileSystem and a recording
/// sleeper.
struct StoreOptions {
  /// Filesystem all reads and writes go through. nullptr = the process
  /// default (PosixFileSystem). Borrowed; must outlive the store.
  FileSystem* fs = nullptr;
  /// Transient-I/O retry for each individual file write/read inside
  /// Save/Restore — a flaky-disk hiccup should not fail a whole fleet
  /// save. Only kIoError is retried (see RetryTransient); corruption and
  /// parse errors are deterministic and surface immediately.
  RetryPolicy retry;
  /// Backoff sleeper, injectable for tests. nullptr = really sleep.
  Sleeper sleeper;
};

/// Per-campaign outcome of a partial-recovery Restore.
struct CampaignRestoreStatus {
  std::string name;
  std::string filename;
  /// OK when the campaign's state was restored; otherwise why it was
  /// skipped (checksum mismatch, truncation, missing file, ...).
  Status status;
};

/// What a partial-recovery Restore did, campaign by campaign.
struct RestoreReport {
  /// Generation of the manifest that was restored from.
  uint64_t generation = 0;
  /// One entry per manifest campaign, in manifest order.
  std::vector<CampaignRestoreStatus> campaigns;

  size_t num_restored() const {
    size_t n = 0;
    for (const auto& c : campaigns) n += c.status.ok() ? 1 : 0;
    return n;
  }
  size_t num_failed() const { return campaigns.size() - num_restored(); }
};

/// Durable storage for a CampaignEngine's stream states.
///
/// Layout: one directory holding a `MANIFEST` plus one checkpoint file per
/// campaign (the `triclust-online-state 1` text format of StreamState; the
/// store is the only writer and reader of such files). Checkpoint filenames
/// carry a store *generation*, so a Save writes an entirely new file set
/// and never touches the files the committed manifest points to; the
/// manifest replacement (write-temp-then-fsync-then-rename) is the single
/// commit point. A crash at any moment therefore leaves the directory
/// describing a complete, mutually-consistent generation — the previous
/// one until the final rename, the new one after (plus, at worst, orphaned
/// files of an uncommitted generation, reclaimed by the next Save). This
/// contract is executed, not just stated: the crash-matrix test
/// (tests/crash_matrix_test.cc) simulates a power loss after every single
/// filesystem operation of a Save and asserts the recovered fleet is
/// bit-identical to one complete generation.
///
/// Integrity: every checkpoint and the manifest itself carry a CRC-32 +
/// length trailer (docs/FORMATS.md §4); Restore verifies before parsing,
/// so a flipped byte or a truncated file is reported as
/// `<path>: checksum mismatch ...` / `<path>: truncated payload ...`
/// instead of being parsed into a subtly wrong fleet. A file without a
/// trailer, or a manifest whose header is not `triclust-campaign-store 2`,
/// is refused the same way.
///
/// Campaigns are keyed by name. Configs, lexicon priors, corpora, and
/// *pending ingestion queues* are not persisted (only each StreamState
/// is): register the campaigns first, then Restore() into them, and either
/// Advance() before Save() or re-Ingest un-advanced tweets after a restore
/// — tweets queued but not yet fitted at Save time are not part of any
/// snapshot.
///
/// A store directory must have a single writer at a time (Save also
/// reclaims unreferenced checkpoint/temp files, which would race a
/// concurrent writer); concurrent Restore() readers are fine.
///
/// The store object holds no mutable state (directory path + options
/// only), so it needs no internal lock; the synchronized resource is the
/// *directory*, and the writer-exclusion above is the caller's job —
/// hence TRICLUST_EXTERNALLY_SYNCHRONIZED rather than a Mutex.
class TRICLUST_EXTERNALLY_SYNCHRONIZED CampaignStore {
 public:
  /// `directory` is created on the first Save(). The store object itself
  /// holds only the path and options — all state lives on disk, so
  /// CampaignStore values are cheap and freely copyable.
  explicit CampaignStore(std::string directory, StoreOptions options = {});

  /// Persists every campaign state of `engine`. Atomic per the class
  /// comment; a failure before the manifest rename leaves the previous
  /// generation fully intact. Transient I/O errors on individual files are
  /// retried per StoreOptions::retry. Thread safety: requires exclusive
  /// write ownership of the directory (see class comment) and a quiescent
  /// engine (no concurrent Advance() mutating the states being read).
  Status Save(const CampaignEngine& engine) const;

  /// Restores every stored campaign into the engine campaign of the same
  /// name, validating checksums and dimensions against that campaign's
  /// sf0. Engine campaigns absent from the store keep their current state;
  /// a stored campaign with no registered counterpart is an error (its
  /// history would otherwise be silently dropped). All-or-nothing: on any
  /// error the engine is left untouched. Thread safety: concurrent
  /// Restore() readers of one directory are safe; the engine must be
  /// confined to the calling thread.
  Status Restore(CampaignEngine* engine) const;

  /// Partial-recovery Restore: campaigns whose checkpoints are corrupt,
  /// truncated, or missing are skipped and *quarantined* in the engine
  /// (with the verification failure as their last error) instead of
  /// failing the whole restore; every healthy campaign's state is
  /// restored and the fleet keeps serving. `report` (optional) receives
  /// the per-campaign outcome. Fails outright only when the manifest
  /// itself is unreadable or a stored campaign is not registered — those
  /// are not per-campaign conditions. The engine is modified only on OK.
  Status RestorePartial(CampaignEngine* engine, RestoreReport* report) const;

  /// True when the directory holds a committed manifest. Thread safety:
  /// read-only probe, safe concurrently with readers (and with a writer,
  /// whose manifest rename is atomic).
  bool HasManifest() const;

  /// The directory this store reads and writes.
  const std::string& directory() const { return directory_; }

 private:
  std::string ManifestPath() const;
  FileSystem* fs() const;
  /// Reads + verifies a whole file with transient-error retry.
  Result<std::string> ReadFileWithRetry(const std::string& path) const;
  /// Shared implementation of Restore/RestorePartial.
  Status RestoreImpl(CampaignEngine* engine, bool allow_partial,
                     RestoreReport* report) const;

  std::string directory_;
  StoreOptions options_;
};

}  // namespace serving
}  // namespace triclust

#endif  // TRICLUST_SRC_SERVING_CAMPAIGN_STORE_H_
