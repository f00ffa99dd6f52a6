#include "src/util/file_util.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "src/util/crc32.h"

namespace triclust {

namespace {

/// Directory component of `path` for the post-rename directory fsync.
std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  const std::string dir = path.substr(0, slash);
  return dir.empty() ? "/" : dir;
}

/// A failed step's status, code kept, as "<path>: <step> failed", plus
/// ": <reason>" when the file system gave one for `file`, the file the
/// step acted on: the diagnostic names the file the caller asked for,
/// never the temporary.
Status StepFailed(const Status& status, const std::string& path,
                  const std::string& file, const char* step) {
  std::string message = path + ": " + step + " failed";
  const std::string reason = FailureReason(status, file);
  if (!reason.empty()) message += ": " + reason;
  return Status(status.code(), message);
}

Status WriteBufferAtomically(FileSystem* fs, const std::string& path,
                             const std::string& payload) {
  // Pid-unique temp name: concurrent writers in *different* processes
  // degrade to last-rename-wins instead of tearing each other's temp file.
  // (Two threads of one process writing the same path remain unsupported —
  // see the header contract.)
  const std::string temp_path = path + ".tmp." + std::to_string(getpid());
  Status status;
  const char* step = "append";
  const std::string* step_file = &temp_path;
  {
    Result<std::unique_ptr<WritableFile>> file =
        fs->NewWritableFile(temp_path);
    if (!file.ok()) return StepFailed(file.status(), path, temp_path, "open");
    WritableFile& out = *file.value();
    status = out.Append(payload);
    // Data must be durable *before* the rename is journaled, or a power
    // loss could commit the new name pointing at truncated data (delayed
    // allocation) while the previous contents are already gone.
    if (status.ok()) {
      step = "sync";
      status = out.Sync();
    }
    if (status.ok()) {
      step = "close";
      status = out.Close();
    }
  }
  if (status.ok()) {
    step = "rename";
    step_file = &path;  // "rename failed: <temp> -> <path>: <reason>"
    status = fs->Rename(temp_path, path);
  }
  if (!status.ok()) {
    (void)fs->Remove(temp_path);  // best effort; next Save reclaims stragglers
    return StepFailed(status, path, *step_file, step);
  }
  // Make the rename itself durable (directory entry update). Past this
  // point the new contents are committed; a failure here is reported but
  // no longer removes anything.
  const std::string dir = ParentDirectory(path);
  status = fs->SyncDirectory(dir);
  return status.ok() ? status : StepFailed(status, path, dir, "directory sync");
}

}  // namespace

Status AtomicWriteFile(FileSystem* fs, const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  std::ostringstream buffer;
  TRICLUST_RETURN_IF_ERROR(writer(&buffer));
  if (!buffer) return Status::IoError("buffered write failed: " + path);
  return WriteBufferAtomically(fs, path, buffer.str());
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream*)>& writer) {
  return AtomicWriteFile(GetDefaultFileSystem(), path, writer);
}

Status CreateDirectories(const std::string& path) {
  return GetDefaultFileSystem()->CreateDirectories(path);
}

bool PathExists(const std::string& path) {
  return GetDefaultFileSystem()->Exists(path);
}

Result<std::vector<std::string>> ListDirectory(const std::string& path) {
  return GetDefaultFileSystem()->ListDirectory(path);
}

// --- checksummed payloads ----------------------------------------------------

namespace {

constexpr char kTrailerTag[] = "triclust-crc32 ";
constexpr size_t kTrailerTagLen = sizeof(kTrailerTag) - 1;

}  // namespace

std::string AppendChecksumTrailer(std::string payload) {
  const uint32_t crc = Crc32(payload);
  char trailer[64];
  std::snprintf(trailer, sizeof(trailer), "%s%08x %zu\n", kTrailerTag, crc,
                payload.size());
  payload += trailer;
  return payload;
}

Result<std::string> VerifyChecksummedPayload(std::string contents,
                                             const std::string& path) {
  // The trailer is the final '\n'-terminated line; find its start.
  size_t line_start = std::string::npos;
  if (!contents.empty() && contents.back() == '\n') {
    const size_t prev_newline =
        contents.find_last_of('\n', contents.size() - 2);
    line_start = prev_newline == std::string::npos ? 0 : prev_newline + 1;
  }
  if (line_start == std::string::npos ||
      contents.compare(line_start, kTrailerTagLen, kTrailerTag) != 0) {
    return Status::ParseError(path + ": no integrity trailer (truncated?)");
  }
  unsigned int stored_crc = 0;
  size_t declared_length = 0;
  char excess = '\0';
  const std::string line = contents.substr(line_start + kTrailerTagLen);
  if (std::sscanf(line.c_str(), "%8x %zu%c", &stored_crc, &declared_length,
                  &excess) != 3 ||
      excess != '\n') {
    return Status::ParseError(path + ": malformed checksum trailer: " +
                              line.substr(0, line.size() - 1));
  }
  contents.resize(line_start);  // strip the trailer; what remains is payload
  if (contents.size() != declared_length) {
    return Status::ParseError(
        path + ": truncated payload (trailer declares " +
        std::to_string(declared_length) + " bytes, " +
        std::to_string(contents.size()) + " present)");
  }
  const uint32_t computed = Crc32(contents);
  if (computed != static_cast<uint32_t>(stored_crc)) {
    char diag[128];
    std::snprintf(diag, sizeof(diag),
                  "%s: checksum mismatch (stored %08x, computed %08x)",
                  path.c_str(), stored_crc, computed);
    return Status::ParseError(diag);
  }
  return contents;
}

Status AtomicWriteFileChecksummed(
    FileSystem* fs, const std::string& path,
    const std::function<Status(std::ostream*)>& writer) {
  std::ostringstream buffer;
  TRICLUST_RETURN_IF_ERROR(writer(&buffer));
  if (!buffer) return Status::IoError("buffered write failed: " + path);
  return WriteBufferAtomically(fs, path, AppendChecksumTrailer(buffer.str()));
}

}  // namespace triclust
