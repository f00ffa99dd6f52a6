// Tests for the filesystem seam (src/util/fs.h), the CRC-32 integrity
// trailer (src/util/crc32.h, file_util.h §checksummed payloads), the
// retry policy (src/util/retry.h), and — the part the fault-injection
// framework exists for — AtomicWriteFile's crash-safety contract under
// injected failures: fail the Nth operation, tear a write, or lose power,
// and the destination file must still hold one complete version.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/crc32.h"
#include "src/util/file_util.h"
#include "src/util/fs.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace triclust {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `contents` to `path` through `fs` with the full durable
/// protocol (append, sync, close).
Status WriteWholeFile(FileSystem* fs, const std::string& path,
                      const std::string& contents) {
  TRICLUST_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                            fs->NewWritableFile(path));
  TRICLUST_RETURN_IF_ERROR(file->Append(contents));
  TRICLUST_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

// --- CRC-32 ------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0x00000000u);
  EXPECT_EQ(Crc32(std::string("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string a = "triclust-online-state 1\n";
  const std::string b = "3 2 0.5\n";
  const uint32_t one_shot = Crc32(a + b);
  EXPECT_EQ(Crc32(b, Crc32(a)), one_shot);
  EXPECT_NE(Crc32(a, Crc32(b)), one_shot);  // order matters
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string payload = "generation 7, campaign prop37, timestep 12\n";
  const uint32_t clean = Crc32(payload);
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    payload[byte] ^= 0x01;
    EXPECT_NE(Crc32(payload), clean) << "flip at byte " << byte;
    payload[byte] ^= 0x01;
  }
}

// --- integrity trailer -------------------------------------------------------

TEST(ChecksumTrailerTest, RoundTrips) {
  const std::string payload = "line one\nline two\n";
  const std::string framed = AppendChecksumTrailer(payload);
  ASSERT_NE(framed, payload);
  const Result<std::string> verified = VerifyChecksummedPayload(framed, "f");
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(verified.value(), payload);
}

TEST(ChecksumTrailerTest, NoFlippedByteEverVerifiesCleanly) {
  // A flip in the payload breaks the checksum; a flip in the trailer line
  // (or in the newline that frames it) breaks the trailer itself. Either
  // way verification fails: no single-byte flip anywhere passes.
  const std::string payload = "payload under test\n";
  const std::string framed = AppendChecksumTrailer(payload);
  for (size_t byte = 0; byte < framed.size(); ++byte) {
    std::string corrupt = framed;
    corrupt[byte] ^= 0x01;
    const Result<std::string> verified = VerifyChecksummedPayload(corrupt, "f");
    ASSERT_FALSE(verified.ok()) << "flip at byte " << byte;
    EXPECT_EQ(verified.status().code(), StatusCode::kParseError)
        << "flip at byte " << byte;
  }
}

TEST(ChecksumTrailerTest, TruncationNamesDeclaredAndActualLength) {
  const std::string payload = "line one\nline two\n";
  std::string framed = AppendChecksumTrailer(payload);
  // Drop whole payload lines but keep the (intact) trailer line — the
  // shape left by a truncate-then-append corruption.
  const std::string trailer = framed.substr(payload.size());
  const std::string truncated = payload.substr(0, 9) + trailer;
  const Result<std::string> verified =
      VerifyChecksummedPayload(truncated, "ckpt");
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kParseError);
  EXPECT_NE(verified.status().message().find("ckpt: truncated payload"),
            std::string::npos)
      << verified.status().message();
  EXPECT_NE(verified.status().message().find("declares 18 bytes, 9 present"),
            std::string::npos)
      << verified.status().message();
}

TEST(ChecksumTrailerTest, MismatchDiagnosticNamesThePath) {
  std::string framed = AppendChecksumTrailer("stable payload\n");
  framed[0] ^= 0x01;
  const Result<std::string> verified =
      VerifyChecksummedPayload(framed, "dir/MANIFEST");
  ASSERT_FALSE(verified.ok());
  EXPECT_NE(verified.status().message().find("dir/MANIFEST: checksum "
                                             "mismatch"),
            std::string::npos)
      << verified.status().message();
}

TEST(ChecksumTrailerTest, TrailerlessContentsAreRejected) {
  const std::string framed = AppendChecksumTrailer("3 2 0.5\n");
  for (const std::string& contents :
       {std::string(), std::string("\n"),
        std::string("triclust-online-state 1\n3 2 0.5\n"),
        framed.substr(0, framed.size() - 1)}) {
    const Result<std::string> verified =
        VerifyChecksummedPayload(contents, "dir/state.ckpt");
    ASSERT_FALSE(verified.ok()) << "contents: " << contents;
    EXPECT_EQ(verified.status().code(), StatusCode::kParseError);
    EXPECT_NE(verified.status().message().find(
                  "dir/state.ckpt: no integrity trailer"),
              std::string::npos)
        << verified.status().message();
  }
}

// --- PosixFileSystem ---------------------------------------------------------

TEST(PosixFileSystemTest, WriteReadRenameRemoveRoundTrip) {
  FileSystem* fs = GetDefaultFileSystem();
  const std::string path = TempPath("posix_fs_roundtrip");
  const std::string renamed = TempPath("posix_fs_roundtrip_renamed");
  (void)fs->Remove(path);  // cleanup; may not exist
  (void)fs->Remove(renamed);  // cleanup; may not exist

  ASSERT_TRUE(WriteWholeFile(fs, path, "hello\nworld\n").ok());
  ASSERT_TRUE(fs->Exists(path));
  Result<std::string> read = fs->ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "hello\nworld\n");

  ASSERT_TRUE(fs->Rename(path, renamed).ok());
  EXPECT_FALSE(fs->Exists(path));
  ASSERT_TRUE(fs->Exists(renamed));
  ASSERT_TRUE(fs->Remove(renamed).ok());
  EXPECT_FALSE(fs->Exists(renamed));
  EXPECT_FALSE(fs->ReadFileToString(renamed).ok());
}

TEST(PosixFileSystemTest, CreateDirectoriesAndList) {
  FileSystem* fs = GetDefaultFileSystem();
  const std::string root = TempPath("posix_fs_tree");
  const std::string nested = root + "/a/b";
  ASSERT_TRUE(fs->CreateDirectories(nested).ok());
  ASSERT_TRUE(fs->CreateDirectories(nested).ok());  // idempotent
  ASSERT_TRUE(WriteWholeFile(fs, nested + "/one", "1").ok());
  ASSERT_TRUE(WriteWholeFile(fs, nested + "/two", "2").ok());
  Result<std::vector<std::string>> listing = fs->ListDirectory(nested);
  ASSERT_TRUE(listing.ok());
  std::vector<std::string> names = listing.value();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"one", "two"}));
}

// --- FaultInjectionFileSystem ------------------------------------------------

TEST(FaultInjectionTest, CountsMutatingOpsAndFailsFromN) {
  FaultInjectionFileSystem fs(GetDefaultFileSystem());
  const std::string path = TempPath("fault_count");
  ASSERT_TRUE(WriteWholeFile(&fs, path, "x").ok());
  // NewWritableFile + Append + Sync + Close.
  EXPECT_EQ(fs.mutating_ops(), 4);
  EXPECT_TRUE(fs.Exists(path));          // read-only probes are uncounted
  EXPECT_EQ(fs.mutating_ops(), 4);
  EXPECT_EQ(fs.injected_failures(), 0);

  fs.ResetFaults();
  fs.FailAt(2);  // NewWritableFile and Append pass; Sync and later fail
  {
    Result<std::unique_ptr<WritableFile>> file = fs.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    EXPECT_TRUE(file.value()->Append("y").ok());
    EXPECT_FALSE(file.value()->Sync().ok());
    EXPECT_FALSE(file.value()->Close().ok());
  }
  EXPECT_FALSE(fs.Rename(path, path + "2").ok());
  EXPECT_EQ(fs.injected_failures(), 3);
  fs.ResetFaults();
  EXPECT_EQ(fs.mutating_ops(), 0);
  ASSERT_TRUE(fs.Remove(path).ok());
}

TEST(FaultInjectionTest, TransientFailuresClearAfterCount) {
  FaultInjectionFileSystem fs(GetDefaultFileSystem());
  const std::string path = TempPath("fault_transient");
  fs.SetTransientFailures(2);
  EXPECT_FALSE(fs.NewWritableFile(path).ok());
  EXPECT_FALSE(fs.NewWritableFile(path).ok());
  ASSERT_TRUE(WriteWholeFile(&fs, path, "recovered").ok());
  EXPECT_EQ(fs.injected_failures(), 2);
  ASSERT_TRUE(fs.Remove(path).ok());
}

TEST(FaultInjectionTest, TornWriteLeavesPrefixOnly) {
  FaultInjectionFileSystem fs(GetDefaultFileSystem());
  const std::string path = TempPath("fault_torn");
  fs.SetTornWrites(true);
  {
    Result<std::unique_ptr<WritableFile>> file = fs.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    EXPECT_FALSE(file.value()->Append("0123456789").ok());
  }
  fs.SetTornWrites(false);
  Result<std::string> read = fs.ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "01234");  // half the payload reached the disk
  ASSERT_TRUE(fs.Remove(path).ok());
}

TEST(FaultInjectionTest, CrashDropsUnsyncedDataKeepsSynced) {
  FaultInjectionFileSystem fs(GetDefaultFileSystem());
  const std::string synced = TempPath("crash_synced");
  const std::string unsynced_tail = TempPath("crash_tail");
  const std::string never_synced = TempPath("crash_never");

  ASSERT_TRUE(WriteWholeFile(&fs, synced, "durable").ok());
  {
    // Synced prefix, un-synced suffix: the crash truncates to the prefix.
    Result<std::unique_ptr<WritableFile>> file =
        fs.NewWritableFile(unsynced_tail);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("prefix-").ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    ASSERT_TRUE(file.value()->Append("lost-tail").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }
  {
    Result<std::unique_ptr<WritableFile>> file =
        fs.NewWritableFile(never_synced);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("all lost").ok());
    ASSERT_TRUE(file.value()->Close().ok());
  }

  ASSERT_TRUE(fs.DropUnsyncedData().ok());
  EXPECT_EQ(fs.ReadFileToString(synced).ValueOr("?"), "durable");
  EXPECT_EQ(fs.ReadFileToString(unsynced_tail).ValueOr("?"), "prefix-");
  EXPECT_FALSE(fs.Exists(never_synced));

  (void)fs.Remove(synced);  // cleanup; may not exist
  (void)fs.Remove(unsynced_tail);  // cleanup; may not exist
}

TEST(FaultInjectionTest, CrashAtFailsOpAndAppliesPowerLossModel) {
  FaultInjectionFileSystem fs(GetDefaultFileSystem());
  const std::string path = TempPath("crash_at");
  fs.CrashAt(3);  // NewWritableFile, Append, Sync pass; Close crashes
  {
    Result<std::unique_ptr<WritableFile>> file = fs.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("synced before the crash").ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    EXPECT_FALSE(file.value()->Close().ok());
  }
  // Every op after the crash keeps failing until faults are cleared.
  EXPECT_FALSE(fs.Remove(path).ok());
  fs.ResetFaults();
  EXPECT_EQ(fs.ReadFileToString(path).ValueOr("?"),
            "synced before the crash");
  ASSERT_TRUE(fs.Remove(path).ok());
}

// --- RetryPolicy -------------------------------------------------------------

TEST(RetryTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 6.0;
  policy.multiplier = 2.0;
  EXPECT_DOUBLE_EQ(RetryBackoffDelayMs(policy, 1), 1.0);
  EXPECT_DOUBLE_EQ(RetryBackoffDelayMs(policy, 2), 2.0);
  EXPECT_DOUBLE_EQ(RetryBackoffDelayMs(policy, 3), 4.0);
  EXPECT_DOUBLE_EQ(RetryBackoffDelayMs(policy, 4), 6.0);  // capped
  EXPECT_DOUBLE_EQ(RetryBackoffDelayMs(policy, 9), 6.0);
}

TEST(RetryTest, RetriesTransientUntilSuccessAndRecordsSleeps) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::vector<double> slept;
  const Sleeper recorder = [&slept](double ms) { slept.push_back(ms); };

  int calls = 0;
  int attempts = 0;
  const Status status = RetryTransient(
      policy,
      [&calls]() {
        return ++calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      recorder, &attempts);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
  ASSERT_EQ(slept.size(), 2u);  // no sleep before the first attempt
  EXPECT_DOUBLE_EQ(slept[0], RetryBackoffDelayMs(policy, 1));
  EXPECT_DOUBLE_EQ(slept[1], RetryBackoffDelayMs(policy, 2));
}

TEST(RetryTest, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  std::vector<double> slept;
  int attempts = 0;
  const Status status = RetryTransient(
      policy, [] { return Status::IoError("still down"); },
      [&slept](double ms) { slept.push_back(ms); }, &attempts);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(slept.size(), 2u);
}

TEST(RetryTest, NonTransientErrorsAreNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  int attempts = 0;
  const Status status = RetryTransient(
      policy,
      [&calls]() {
        ++calls;
        return Status::ParseError("checksum mismatch — deterministic");
      },
      [](double) { FAIL() << "must not sleep for a non-transient error"; },
      &attempts);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(attempts, 1);
}

// --- AtomicWriteFile under faults (satellite of the fault framework) ---------

Status WriteGreeting(FileSystem* fs, const std::string& path,
                     const std::string& text) {
  return AtomicWriteFile(fs, path,
                         [&text](std::ostream* os) -> Status {
                           *os << text;
                           return Status::OK();
                         });
}

TEST(AtomicWriteFaultTest, FailAtEveryOpNeverLeavesAPartialDestination) {
  PosixFileSystem posix;
  const std::string path = TempPath("atomic_fail_matrix");
  const std::string old_contents = "old complete contents\n";
  const std::string new_contents = "new complete contents, longer\n";
  (void)posix.Remove(path);  // cleanup; may not exist
  ASSERT_TRUE(WriteGreeting(&posix, path, old_contents).ok());

  // The mutating ops of one write, in order. A failure's message names the
  // destination, not the temporary it shares a prefix with, and the step.
  const char* const kSteps[] = {"open",  "append", "sync",
                                "close", "rename", "directory sync"};
  FaultInjectionFileSystem fs(&posix);
  bool succeeded = false;
  for (int fail_op = 0; !succeeded; ++fail_op) {
    ASSERT_LT(fail_op, 32) << "fault never exhausted — op count runaway?";
    fs.ResetFaults();
    fs.FailAt(fail_op);
    const Status status = WriteGreeting(&fs, path, new_contents);
    fs.ResetFaults();
    if (!status.ok()) {
      ASSERT_LT(fail_op, 6) << status.ToString();
      EXPECT_EQ(status.code(), StatusCode::kIoError);
      EXPECT_EQ(status.message(), path + ": " + kSteps[fail_op] + " failed");
    }
    const Result<std::string> read = fs.ReadFileToString(path);
    ASSERT_TRUE(read.ok()) << "destination vanished at op " << fail_op;
    if (status.ok()) {
      // The injected failure hit at or after the rename: the new contents
      // are committed even though later ops (directory sync) may have
      // failed — or the op index ran past the sequence entirely.
      succeeded = read.value() == new_contents;
      EXPECT_TRUE(succeeded) << "OK status but stale contents at op "
                             << fail_op;
    } else {
      EXPECT_TRUE(read.value() == old_contents ||
                  read.value() == new_contents)
          << "torn destination at op " << fail_op << ": " << read.value();
    }
  }
  ASSERT_TRUE(posix.Remove(path).ok());
}

TEST(AtomicWriteFaultTest, TornWriteLeavesDestinationUntouchedAndNoTemp) {
  PosixFileSystem posix;
  const std::string dir = TempPath("atomic_torn_dir");
  const std::string path = dir + "/dest";
  ASSERT_TRUE(posix.CreateDirectories(dir).ok());
  ASSERT_TRUE(WriteGreeting(&posix, path, "pristine\n").ok());

  FaultInjectionFileSystem fs(&posix);
  fs.SetTornWrites(true);
  EXPECT_FALSE(WriteGreeting(&fs, path, "this append is torn\n").ok());
  fs.SetTornWrites(false);

  EXPECT_EQ(fs.ReadFileToString(path).ValueOr("?"), "pristine\n");
  // The half-written temp was cleaned up on the failure path.
  Result<std::vector<std::string>> listing = fs.ListDirectory(dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value(), std::vector<std::string>{"dest"});
  (void)posix.Remove(path);  // cleanup; may not exist
}

TEST(AtomicWriteFaultTest, TransientFailuresSucceedUnderRetryPolicy) {
  PosixFileSystem posix;
  const std::string path = TempPath("atomic_transient");
  (void)posix.Remove(path);  // cleanup; may not exist
  FaultInjectionFileSystem fs(&posix);
  fs.SetTransientFailures(2);  // first two whole-write attempts die early

  RetryPolicy policy;
  policy.max_attempts = 4;
  std::vector<double> slept;
  int attempts = 0;
  const Status status = RetryTransient(
      policy,
      [&fs, &path] { return WriteGreeting(&fs, path, "eventually\n"); },
      [&slept](double ms) { slept.push_back(ms); }, &attempts);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Two attempts burned one transient fault each (on NewWritableFile);
  // the third ran the full sequence clean.
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(slept.size(), 2u);
  EXPECT_EQ(fs.ReadFileToString(path).ValueOr("?"), "eventually\n");
  ASSERT_TRUE(posix.Remove(path).ok());
}

}  // namespace
}  // namespace triclust
