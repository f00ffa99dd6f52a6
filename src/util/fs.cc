#include "src/util/fs.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace triclust {

// --- PosixFileSystem ---------------------------------------------------------

namespace {

/// "<what>: <path>: <reason>", the reason being the strerror text of `err`,
/// the errno the failing call set (read right after that call).
Status OsError(const std::string& what, const std::string& path, int err) {
  return Status::IoError(what + ": " + path + ": " + std::strerror(err));
}

/// fd-backed writable file; Sync is a real fsync, so the durability the
/// interface promises is the durability the kernel delivers.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd)
      : path_(std::move(path)), fd_(fd) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const std::string& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return OsError("write failed", path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return OsError("fsync failed", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    const int err = errno;
    fd_ = -1;
    if (rc != 0) return OsError("close failed", path_, err);
    return Status::OK();
  }

 private:
  std::string path_;
  int fd_;
};

/// fsync the file or directory at `path` via a fresh descriptor.
Status SyncExistingPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return OsError("cannot open for fsync", path, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) return OsError("fsync failed", path, err);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixFileSystem::NewWritableFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return OsError("cannot open for writing", path, errno);
  return std::unique_ptr<WritableFile>(new PosixWritableFile(path, fd));
}

Result<std::string> PosixFileSystem::ReadFileToString(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return OsError("cannot open for reading", path, errno);
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) return OsError("read failed", path, errno);
  return contents.str();
}

Result<std::unique_ptr<std::istream>> PosixFileSystem::NewReadStream(
    const std::string& path) {
  auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*in) return OsError("cannot open for reading", path, errno);
  return std::unique_ptr<std::istream>(std::move(in));
}

Status PosixFileSystem::Rename(const std::string& from,
                               const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return OsError("rename failed", from + " -> " + to, errno);
  }
  return Status::OK();
}

Status PosixFileSystem::Remove(const std::string& path) {
  if (std::remove(path.c_str()) != 0) {
    return OsError("remove failed", path, errno);
  }
  return Status::OK();
}

Status PosixFileSystem::SyncDirectory(const std::string& path) {
  return SyncExistingPath(path.empty() ? "." : path);
}

Status PosixFileSystem::CreateDirectories(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  // Walk the path left to right, creating each component (mkdir -p).
  std::string prefix;
  size_t pos = 0;
  while (pos != std::string::npos) {
    const size_t next = path.find('/', pos + 1);
    prefix = next == std::string::npos ? path : path.substr(0, next);
    pos = next;
    if (prefix.empty() || prefix == "/" || prefix == ".") continue;
    if (mkdir(prefix.c_str(), 0755) != 0) {
      const int err = errno;
      struct stat st;
      if (stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        return OsError("cannot create directory", prefix, err);
      }
    }
  }
  return Status::OK();
}

bool PosixFileSystem::Exists(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0;
}

Result<std::vector<std::string>> PosixFileSystem::ListDirectory(
    const std::string& path) {
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    return OsError("cannot open directory", path, errno);
  }
  std::vector<std::string> names;
  while (const dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  closedir(dir);
  return names;
}

FileSystem* GetDefaultFileSystem() {
  // Leaked on purpose: call sites may persist state during static
  // destruction, and a destructed singleton would turn those into UB.
  static PosixFileSystem* const kDefault = new PosixFileSystem();
  return kDefault;
}

std::string FailureReason(const Status& status, const std::string& path) {
  const std::string marker = path + ": ";
  const size_t at = status.message().rfind(marker);
  return at == std::string::npos ? ""
                                 : status.message().substr(at + marker.size());
}

// --- FaultInjectionFileSystem ------------------------------------------------

/// WritableFile wrapper that charges each Append/Sync/Close against the
/// injector's fault schedule and maintains the file's synced-length
/// bookkeeping for the crash model. Named (not anonymous-namespace) so the
/// friend declaration in fs.h reaches it.
class FaultInjectionWritableFile : public WritableFile {
 public:
  FaultInjectionWritableFile(FaultInjectionFileSystem* fs, std::string path,
                             std::unique_ptr<WritableFile> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  ~FaultInjectionWritableFile() override = default;  // base_ closes itself

  Status Append(const std::string& data) override {
    TRICLUST_RETURN_IF_ERROR(fs_->ChargeOp("append", path_));
    bool torn;
    {
      MutexLock lock(&fs_->mu_);
      torn = fs_->torn_writes_;
    }
    if (torn) {
      // Short write: a durable-looking prefix lands, the tail never does.
      const std::string prefix = data.substr(0, data.size() / 2);
      // Deliberate discard: the injected IoError below is the outcome the
      // caller must see; a failure writing the torn prefix only makes the
      // simulated crash torn at offset 0 instead.
      (void)base_->Append(prefix);
      MutexLock lock(&fs_->mu_);
      fs_->files_[path_].length += prefix.size();
      ++fs_->injected_failures_;
      return Status::IoError("injected torn write: " + path_);
    }
    TRICLUST_RETURN_IF_ERROR(base_->Append(data));
    MutexLock lock(&fs_->mu_);
    fs_->files_[path_].length += data.size();
    return Status::OK();
  }

  Status Sync() override {
    TRICLUST_RETURN_IF_ERROR(fs_->ChargeOp("sync", path_));
    TRICLUST_RETURN_IF_ERROR(base_->Sync());
    MutexLock lock(&fs_->mu_);
    auto& state = fs_->files_[path_];
    state.synced_length = state.length;
    state.ever_synced = true;
    return Status::OK();
  }

  Status Close() override {
    TRICLUST_RETURN_IF_ERROR(fs_->ChargeOp("close", path_));
    return base_->Close();
  }

 private:
  FaultInjectionFileSystem* const fs_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectionFileSystem::FaultInjectionFileSystem(FileSystem* base)
    : base_(base) {}

FaultInjectionFileSystem::~FaultInjectionFileSystem() = default;

void FaultInjectionFileSystem::FailAt(int op) {
  MutexLock lock(&mu_);
  fail_at_op_ = op;
  crash_on_fail_ = false;
}

void FaultInjectionFileSystem::CrashAt(int op) {
  MutexLock lock(&mu_);
  fail_at_op_ = op;
  crash_on_fail_ = true;
}

void FaultInjectionFileSystem::SetTransientFailures(int count) {
  MutexLock lock(&mu_);
  transient_failures_left_ = count;
}

void FaultInjectionFileSystem::SetTornWrites(bool enabled) {
  MutexLock lock(&mu_);
  torn_writes_ = enabled;
}

void FaultInjectionFileSystem::ResetFaults() {
  MutexLock lock(&mu_);
  op_counter_ = 0;
  injected_failures_ = 0;
  fail_at_op_ = -1;
  crash_on_fail_ = false;
  crashed_ = false;
  transient_failures_left_ = 0;
  torn_writes_ = false;
}

int FaultInjectionFileSystem::mutating_ops() const {
  MutexLock lock(&mu_);
  return op_counter_;
}

int FaultInjectionFileSystem::injected_failures() const {
  MutexLock lock(&mu_);
  return injected_failures_;
}

Status FaultInjectionFileSystem::ChargeOp(const char* op_name,
                                          const std::string& path) {
  MutexLock lock(&mu_);
  const int op = op_counter_++;
  if (crashed_) {
    ++injected_failures_;
    return Status::IoError(std::string("injected crash (filesystem down): ") +
                           op_name + " " + path);
  }
  if (fail_at_op_ >= 0 && op >= fail_at_op_) {
    ++injected_failures_;
    if (crash_on_fail_) {
      crashed_ = true;
      // Deliberate discard: the injected fault below is the caller-visible
      // outcome; a truncate error while shredding the page cache cannot
      // make the simulated power loss any more failed.
      (void)DropUnsyncedDataLocked();  // power loss: the page cache is gone
    }
    return Status::IoError(std::string("injected fault at op ") +
                           std::to_string(op) + ": " + op_name + " " + path);
  }
  if (transient_failures_left_ > 0) {
    --transient_failures_left_;
    ++injected_failures_;
    return Status::IoError(std::string("injected transient fault: ") +
                           op_name + " " + path);
  }
  return Status::OK();
}

Status FaultInjectionFileSystem::DropUnsyncedData() {
  MutexLock lock(&mu_);
  return DropUnsyncedDataLocked();
}

Status FaultInjectionFileSystem::DropUnsyncedDataLocked() {
  Status first_error;
  for (auto it = files_.begin(); it != files_.end();) {
    const std::string& path = it->first;
    FileState& state = it->second;
    if (!state.ever_synced) {
      // Created and never fsynced: the file itself may not have survived.
      (void)base_->Remove(path);  // best effort — it may already be gone
      it = files_.erase(it);
      continue;
    }
    if (state.length > state.synced_length) {
      // Appended-but-unsynced tail: truncate to the durable prefix. The
      // crash model needs a real truncate, which the FileSystem interface
      // deliberately does not offer writers; go to the OS directly.
      if (::truncate(path.c_str(),
                     static_cast<off_t>(state.synced_length)) != 0 &&
          first_error.ok()) {
        first_error = Status::IoError("crash-model truncate failed: " + path);
      }
      state.length = state.synced_length;
    }
    ++it;
  }
  return first_error;
}

Result<std::unique_ptr<WritableFile>> FaultInjectionFileSystem::NewWritableFile(
    const std::string& path) {
  TRICLUST_RETURN_IF_ERROR(ChargeOp("open", path));
  TRICLUST_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                            base_->NewWritableFile(path));
  {
    MutexLock lock(&mu_);
    files_[path] = FileState{};  // O_TRUNC: previous durability is void
  }
  return std::unique_ptr<WritableFile>(
      new FaultInjectionWritableFile(this, path, std::move(base)));
}

Result<std::string> FaultInjectionFileSystem::ReadFileToString(
    const std::string& path) {
  return base_->ReadFileToString(path);
}

Result<std::unique_ptr<std::istream>> FaultInjectionFileSystem::NewReadStream(
    const std::string& path) {
  // Read-only probe: passed through uncounted, like ReadFileToString.
  return base_->NewReadStream(path);
}

Status FaultInjectionFileSystem::Rename(const std::string& from,
                                        const std::string& to) {
  TRICLUST_RETURN_IF_ERROR(ChargeOp("rename", from));
  TRICLUST_RETURN_IF_ERROR(base_->Rename(from, to));
  MutexLock lock(&mu_);
  const auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

Status FaultInjectionFileSystem::Remove(const std::string& path) {
  TRICLUST_RETURN_IF_ERROR(ChargeOp("remove", path));
  TRICLUST_RETURN_IF_ERROR(base_->Remove(path));
  MutexLock lock(&mu_);
  files_.erase(path);
  return Status::OK();
}

Status FaultInjectionFileSystem::SyncDirectory(const std::string& path) {
  TRICLUST_RETURN_IF_ERROR(ChargeOp("syncdir", path));
  return base_->SyncDirectory(path);
}

Status FaultInjectionFileSystem::CreateDirectories(const std::string& path) {
  TRICLUST_RETURN_IF_ERROR(ChargeOp("mkdir", path));
  return base_->CreateDirectories(path);
}

bool FaultInjectionFileSystem::Exists(const std::string& path) {
  return base_->Exists(path);
}

Result<std::vector<std::string>> FaultInjectionFileSystem::ListDirectory(
    const std::string& path) {
  return base_->ListDirectory(path);
}

}  // namespace triclust
