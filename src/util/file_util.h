#ifndef TRICLUST_SRC_UTIL_FILE_UTIL_H_
#define TRICLUST_SRC_UTIL_FILE_UTIL_H_

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/fs.h"
#include "src/util/status.h"

namespace triclust {

/// Crash-safe file replacement through an explicit FileSystem: runs
/// `writer` into an in-memory buffer, writes the buffer to a pid-unique
/// temporary next to `path` (path + ".tmp.<pid>"), fsyncs it, renames it
/// over `path` only after the data reached disk, and finally fsyncs the
/// parent directory. A crash — or a writer/filesystem error — at any point
/// leaves the previous contents of `path` intact; the temporary is removed
/// on failure (best effort: if the filesystem itself is failing, the
/// orphaned `.tmp.<pid>` is reclaimed by the next CampaignStore::Save over
/// the directory). rename(2) on the same filesystem is atomic, so readers
/// never observe a half-written file. One edge is inherent to the
/// protocol: an error *after* the rename (directory fsync) reports failure
/// although the new complete contents are already in place — never a torn
/// file either way.
///
/// Concurrent writers of the same `path` in different processes degrade to
/// last-rename-wins (never a torn file); two threads of one process
/// writing the same path are not supported — checkpoint writers are
/// expected to be exclusive per path within a process.
Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// AtomicWriteFile against the process-default PosixFileSystem — the
/// drop-in form every pre-seam call site keeps using.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer);

/// Creates `path` and any missing parents (mkdir -p) on the default
/// filesystem. OK when it already exists as a directory.
Status CreateDirectories(const std::string& path);

/// True when `path` exists on the default filesystem (any file type).
bool PathExists(const std::string& path);

/// Names of the entries in directory `path` (excluding "." and ".."), in
/// unspecified order, on the default filesystem.
Result<std::vector<std::string>> ListDirectory(const std::string& path);

// --- checksummed payloads ----------------------------------------------------
//
// Integrity framing for checkpoint-style files (docs/FORMATS.md §4): the
// payload is followed by one trailer line
//
//   triclust-crc32 <8 lowercase hex digits> <payload byte count>\n
//
// where the CRC-32 (IEEE) covers exactly the payload bytes. The trailer
// is mandatory: verification detects any flipped byte (checksum mismatch),
// any truncation or padding (length mismatch), and a missing or mangled
// trailer line, each with a `<path>: ...` diagnostic.

/// Returns `payload` with the integrity trailer line appended.
std::string AppendChecksumTrailer(std::string payload);

/// Splits `contents` into payload + trailer and verifies both checksum and
/// length, returning the payload. Contents whose last line is not a
/// trailer fail with `<path>: no integrity trailer (truncated?)`. `path`
/// is used only in diagnostics (`<path>: checksum mismatch ...`,
/// `<path>: truncated payload ...`).
Result<std::string> VerifyChecksummedPayload(std::string contents,
                                             const std::string& path);

/// AtomicWriteFile that appends the integrity trailer to what `writer`
/// produced before the bytes go to disk.
Status AtomicWriteFileChecksummed(
    FileSystem* fs, const std::string& path,
    const std::function<Status(std::ostream*)>& writer);

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_FILE_UTIL_H_
