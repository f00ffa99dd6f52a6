#ifndef TRICLUST_SRC_UTIL_FS_H_
#define TRICLUST_SRC_UTIL_FS_H_

#include <cstdint>
#include <istream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace triclust {

/// A sequentially written file handle vended by FileSystem::NewWritableFile.
///
/// The write protocol mirrors POSIX durability rules: Append() hands bytes
/// to the OS (page cache), Sync() makes everything appended so far durable
/// (fsync), Close() releases the descriptor. Data that was never Sync()ed
/// has no durability guarantee — a crash may lose or truncate it — which is
/// exactly what FaultInjectionFileSystem simulates.
///
/// Thread safety: confine each handle to one thread.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file.
  virtual Status Append(const std::string& data) = 0;

  /// Makes all appended data durable (fsync).
  virtual Status Sync() = 0;

  /// Flushes and releases the descriptor. Idempotent; called by the
  /// destructor if the owner did not (destructor swallows errors, so call
  /// Close() explicitly on paths that must report them).
  virtual Status Close() = 0;
};

/// The filesystem seam every durable write in triclust goes through
/// (AtomicWriteFile, CampaignStore, corpus/checkpoint writers). A small
/// virtual interface in the style of LevelDB's Env: production uses the
/// process-wide PosixFileSystem singleton (GetDefaultFileSystem()), tests
/// interpose FaultInjectionFileSystem to fail, tear, or "crash" any
/// individual operation deterministically.
///
/// Thread safety: implementations must tolerate concurrent calls from
/// multiple threads (PosixFileSystem is stateless; the fault injector
/// locks internally). Individual WritableFile handles are single-threaded.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for writing, truncating any existing contents.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Reads the entire file into a string.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;

  /// Opens `path` for incremental (streaming) reads. The stream is
  /// positioned at the start of the file; the caller owns it and should
  /// confine it to one thread. Read-only probe for fault-injection
  /// purposes (like ReadFileToString). This is the seam behind
  /// TsvStreamReader's bounded-memory reads — the project-invariant
  /// linter (tools/lint_invariants.py) forbids opening std::ifstream
  /// directly outside src/util.
  virtual Result<std::unique_ptr<std::istream>> NewReadStream(
      const std::string& path) = 0;

  /// Atomically renames `from` to `to` (replacing `to`). Durability of the
  /// directory entry requires a subsequent SyncDirectory().
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Removes the file at `path`.
  virtual Status Remove(const std::string& path) = 0;

  /// fsyncs the directory at `path`, making renames/creates inside it
  /// durable.
  virtual Status SyncDirectory(const std::string& path) = 0;

  /// Creates `path` and any missing parents (mkdir -p); OK when it already
  /// exists as a directory.
  virtual Status CreateDirectories(const std::string& path) = 0;

  /// True when `path` exists (any file type). Read-only probe.
  virtual bool Exists(const std::string& path) = 0;

  /// Names of the entries in directory `path` (excluding "." and ".."), in
  /// unspecified order. Read-only probe.
  virtual Result<std::vector<std::string>> ListDirectory(
      const std::string& path) = 0;
};

/// The real thing: thin wrappers over open/write/fsync/rename/unlink. Each
/// error reads "<what failed>: <path>: <reason>", the reason being the
/// strerror text of the errno the failing call set.
class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::unique_ptr<std::istream>> NewReadStream(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDirectory(const std::string& path) override;
  Status CreateDirectories(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
};

/// The process-wide PosixFileSystem every default call site uses. Never
/// null; the singleton outlives static destructors (leaked intentionally).
FileSystem* GetDefaultFileSystem();

/// The OS reason PosixFileSystem gave for a failed operation on `path`:
/// the text after "<path>: " in `status`'s message, or "" when it has none
/// (FaultInjectionFileSystem's injected faults give none).
std::string FailureReason(const Status& status, const std::string& path);

/// Deterministic fault injector wrapping a base FileSystem, in the style
/// of LevelDB/RocksDB's fault-injection env. Every *mutating* operation
/// (NewWritableFile, Append, Sync, Close, Rename, Remove, SyncDirectory,
/// CreateDirectories) is numbered 0, 1, 2, ... in call order; read-only
/// probes (Exists, ListDirectory, ReadFileToString) are passed through
/// uncounted. Three independently combinable fault modes:
///
///  - FailAt(n): mutating op number n and every later one fail with
///    IoError("injected fault ...") without touching the base filesystem.
///  - SetTransientFailures(k): the next k mutating ops fail, then
///    operation resumes normally — the flaky-disk model RetryPolicy is
///    tested against.
///  - SetTornWrites(true): every Append writes only a prefix (half) of its
///    payload to the base filesystem, then fails — the torn-write model.
///
/// Crash simulation: CrashAt(n) behaves like FailAt(n) but additionally
/// applies the power-loss model at that moment — all data appended but not
/// yet Sync()ed through this injector is dropped (files truncated to their
/// last synced length; never-synced files removed), exactly what a kernel
/// page cache loses when the power goes. Renames that already happened are
/// kept (the journalling assumption AtomicWriteFile's write-sync-rename
/// ordering is designed for; a writer that renames before syncing its data
/// is exposed by the truncation). DropUnsyncedData() applies the same
/// model on demand.
///
/// Counters/faults only track files written *through this injector*.
/// Thread safety: all state is mutex-guarded; safe for concurrent callers.
class FaultInjectionFileSystem : public FileSystem {
 public:
  /// `base` is borrowed and must outlive the injector.
  explicit FaultInjectionFileSystem(FileSystem* base);
  ~FaultInjectionFileSystem() override;

  // --- fault programming ----------------------------------------------------
  /// Mutating op `op` (0-based, counted from the last ResetFaults) and all
  /// later ones fail. -1 disables.
  void FailAt(int op) TRICLUST_EXCLUDES(mu_);
  /// Like FailAt, but the first failing op also drops all un-fsynced data.
  void CrashAt(int op) TRICLUST_EXCLUDES(mu_);
  /// The next `count` mutating ops fail, after which ops succeed again.
  void SetTransientFailures(int count) TRICLUST_EXCLUDES(mu_);
  /// When enabled, every Append writes half its payload and then fails.
  void SetTornWrites(bool enabled) TRICLUST_EXCLUDES(mu_);
  /// Clears all programmed faults and the op counter. Tracked sync state
  /// of live files is kept (it describes the disk, not the faults).
  void ResetFaults() TRICLUST_EXCLUDES(mu_);

  /// Applies the power-loss model now: truncate every tracked file to its
  /// last synced length, remove tracked files that were never synced.
  Status DropUnsyncedData() TRICLUST_EXCLUDES(mu_);

  // --- introspection --------------------------------------------------------
  /// Mutating ops attempted since the last ResetFaults (failed ones count).
  int mutating_ops() const TRICLUST_EXCLUDES(mu_);
  /// Ops that failed due to an injected fault since the last ResetFaults.
  int injected_failures() const TRICLUST_EXCLUDES(mu_);

  // --- FileSystem -----------------------------------------------------------
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Result<std::unique_ptr<std::istream>> NewReadStream(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDirectory(const std::string& path) override;
  Status CreateDirectories(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;

 private:
  friend class FaultInjectionWritableFile;

  /// Durability bookkeeping for one file written through the injector.
  struct FileState {
    uint64_t length = 0;         ///< bytes appended so far
    uint64_t synced_length = 0;  ///< bytes covered by the last Sync()
    bool ever_synced = false;
  };

  /// Charges one mutating op against the programmed faults. Returns a
  /// non-OK status when this op must fail; applies the crash model first
  /// when the failing fault is a crash. Caller must NOT hold mu_ (the
  /// TRICLUST_EXCLUDES annotation makes a self-deadlocking call a
  /// compile error under clang).
  Status ChargeOp(const char* op_name, const std::string& path)
      TRICLUST_EXCLUDES(mu_);
  Status DropUnsyncedDataLocked() TRICLUST_REQUIRES(mu_);

  FileSystem* const base_;
  mutable Mutex mu_;
  int op_counter_ TRICLUST_GUARDED_BY(mu_) = 0;
  int injected_failures_ TRICLUST_GUARDED_BY(mu_) = 0;
  int fail_at_op_ TRICLUST_GUARDED_BY(mu_) = -1;
  bool crash_on_fail_ TRICLUST_GUARDED_BY(mu_) = false;
  bool crashed_ TRICLUST_GUARDED_BY(mu_) = false;
  int transient_failures_left_ TRICLUST_GUARDED_BY(mu_) = 0;
  bool torn_writes_ TRICLUST_GUARDED_BY(mu_) = false;
  std::map<std::string, FileState> files_ TRICLUST_GUARDED_BY(mu_);
};

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_FS_H_
