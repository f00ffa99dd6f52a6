#include "src/serving/campaign_store.h"

#include <sstream>
#include <utility>
#include <vector>

#include "src/core/stream_state.h"
#include "src/util/file_util.h"

namespace triclust {
namespace serving {

namespace {

// Manifest header (docs/FORMATS.md §3.1); ParseManifest refuses any other.
// The manifest and every checkpoint it references carry the integrity
// trailer of §4.
constexpr char kManifestHeader[] = "triclust-campaign-store 2";

/// Checkpoint filenames carry the store generation so a Save never
/// overwrites the files the committed manifest still points to: a crash at
/// any point leaves the previous generation fully intact, with at worst
/// some orphaned next-generation files (reclaimed by the next Save).
std::string CampaignFileName(size_t index, uint64_t generation) {
  return "campaign_" + std::to_string(index) + ".g" +
         std::to_string(generation) + ".ckpt";
}

struct ManifestEntry {
  std::string filename;
  int timestep = 0;
  std::string name;
};

struct Manifest {
  uint64_t generation = 0;
  std::vector<ManifestEntry> entries;
};

/// Parses an already checksum-verified manifest payload.
Result<Manifest> ParseManifest(const std::string& payload,
                               const std::string& path) {
  std::istringstream in(payload);
  std::string line;
  Manifest manifest;
  if (!std::getline(in, line)) {
    return Status::ParseError(path + ": empty manifest");
  }
  if (line != kManifestHeader) {
    return Status::ParseError(path + ": bad store header: " + line);
  }
  size_t count = 0;
  if (!std::getline(in, line) ||
      !(std::istringstream(line) >> manifest.generation >> count)) {
    return Status::ParseError(path + ": malformed generation/count line: " +
                              line);
  }
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return Status::ParseError(path + ": manifest truncated");
    }
    std::istringstream fields(line);
    ManifestEntry entry;
    if (!(fields >> entry.filename >> entry.timestep)) {
      return Status::ParseError(path + ": malformed manifest entry: " + line);
    }
    std::getline(fields, entry.name);
    if (!entry.name.empty() && entry.name.front() == ' ') {
      entry.name.erase(0, 1);
    }
    if (entry.name.empty()) {
      return Status::ParseError(path + ": manifest entry has no name: " +
                                line);
    }
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

}  // namespace

CampaignStore::CampaignStore(std::string directory, StoreOptions options)
    : directory_(std::move(directory)), options_(std::move(options)) {}

std::string CampaignStore::ManifestPath() const {
  return directory_ + "/MANIFEST";
}

FileSystem* CampaignStore::fs() const {
  return options_.fs != nullptr ? options_.fs : GetDefaultFileSystem();
}

bool CampaignStore::HasManifest() const { return fs()->Exists(ManifestPath()); }

Result<std::string> CampaignStore::ReadFileWithRetry(
    const std::string& path) const {
  std::string contents;
  TRICLUST_RETURN_IF_ERROR(RetryTransient(
      options_.retry,
      [this, &path, &contents]() -> Status {
        Result<std::string> read = fs()->ReadFileToString(path);
        if (!read.ok()) return read.status();
        contents = std::move(read).value();
        return Status::OK();
      },
      options_.sleeper));
  return contents;
}

Status CampaignStore::Save(const CampaignEngine& engine) const {
  TRICLUST_RETURN_IF_ERROR(RetryTransient(
      options_.retry, [this] { return fs()->CreateDirectories(directory_); },
      options_.sleeper));

  // The previous generation (if any) stays untouched until the manifest
  // rename commits the new one; its files are only reclaimed afterwards.
  // A manifest that exists but cannot be read must abort the save: guessing
  // a generation could collide with files the committed manifest still
  // points to.
  Manifest previous;
  if (HasManifest()) {
    const std::string manifest_path = ManifestPath();
    TRICLUST_ASSIGN_OR_RETURN(std::string raw,
                              ReadFileWithRetry(manifest_path));
    TRICLUST_ASSIGN_OR_RETURN(
        const std::string payload,
        VerifyChecksummedPayload(std::move(raw), manifest_path));
    TRICLUST_ASSIGN_OR_RETURN(previous, ParseManifest(payload, manifest_path));
  }
  const uint64_t generation = previous.generation + 1;

  // New-generation state files first, manifest rename last (commit point).
  // Each file write is individually retried: a transient hiccup on one
  // checkpoint should not abort the whole fleet save. The writer lambdas
  // are pure (they re-serialize from the in-memory state), so re-running
  // them on retry is safe.
  for (size_t i = 0; i < engine.num_campaigns(); ++i) {
    const StreamState& state = engine.state(i);
    const std::string path =
        directory_ + "/" + CampaignFileName(i, generation);
    TRICLUST_RETURN_IF_ERROR(RetryTransient(
        options_.retry,
        [this, &path, &state] {
          return AtomicWriteFileChecksummed(fs(), path, [&state](
                                                            std::ostream* os) {
            return state.Write(os);
          });
        },
        options_.sleeper));
  }
  TRICLUST_RETURN_IF_ERROR(RetryTransient(
      options_.retry,
      [this, &engine, generation] {
        return AtomicWriteFileChecksummed(
            fs(), ManifestPath(), [&engine, generation](std::ostream* os) {
              std::ostream& out = *os;
              out << kManifestHeader << "\n";
              out << generation << " " << engine.num_campaigns() << "\n";
              for (size_t i = 0; i < engine.num_campaigns(); ++i) {
                out << CampaignFileName(i, generation) << " "
                    << engine.state(i).timestep << " " << engine.name(i)
                    << "\n";
              }
              if (!out) return Status::IoError("manifest write failed");
              return Status::OK();
            });
      },
      options_.sleeper));

  // Best-effort reclamation: scan for files the committed manifest does
  // not reference — superseded generations, orphans left by crashes
  // between past commits and their cleanup, and stale AtomicWriteFile
  // temporaries (".tmp.<pid>") from crashed writers. Safe because the
  // store has a single writer (see header): nothing else can have an
  // in-flight temp here. Failures are ignored — the commit already
  // happened, and the next Save retries the sweep.
  Result<std::vector<std::string>> listing = fs()->ListDirectory(directory_);
  if (listing.ok()) {
    for (const std::string& name : listing.value()) {
      bool reclaim = false;
      if (name.compare(0, 13, "MANIFEST.tmp.") == 0) {
        reclaim = true;
      } else if (name.compare(0, 9, "campaign_") == 0) {
        if (name.find(".ckpt.tmp.") != std::string::npos) {
          reclaim = true;
        } else if (name.size() >= 5 &&
                   name.compare(name.size() - 5, 5, ".ckpt") == 0) {
          reclaim = true;
          for (size_t i = 0; i < engine.num_campaigns(); ++i) {
            if (name == CampaignFileName(i, generation)) {
              reclaim = false;
              break;
            }
          }
        }
      }
      // Deliberate discard: reclamation is best effort — a stale file that
      // survives this pass is retried by the next Save.
      if (reclaim) (void)fs()->Remove(directory_ + "/" + name);
    }
  }
  return Status::OK();
}

Status CampaignStore::Restore(CampaignEngine* engine) const {
  return RestoreImpl(engine, /*allow_partial=*/false, /*report=*/nullptr);
}

Status CampaignStore::RestorePartial(CampaignEngine* engine,
                                     RestoreReport* report) const {
  return RestoreImpl(engine, /*allow_partial=*/true, report);
}

Status CampaignStore::RestoreImpl(CampaignEngine* engine, bool allow_partial,
                                  RestoreReport* report) const {
  const std::string manifest_path = ManifestPath();
  TRICLUST_ASSIGN_OR_RETURN(std::string raw_manifest,
                            ReadFileWithRetry(manifest_path));
  TRICLUST_ASSIGN_OR_RETURN(
      const std::string manifest_payload,
      VerifyChecksummedPayload(std::move(raw_manifest), manifest_path));
  TRICLUST_ASSIGN_OR_RETURN(const Manifest manifest,
                            ParseManifest(manifest_payload, manifest_path));

  RestoreReport local_report;
  local_report.generation = manifest.generation;

  // Stage every outcome first so a mid-list failure cannot leave the
  // engine half-restored (some campaigns at the stored generation, others
  // fresh). Only after the whole manifest has been processed are states
  // installed and — in partial mode — failed campaigns quarantined.
  std::vector<std::pair<size_t, StreamState>> staged;
  std::vector<std::pair<size_t, Status>> quarantines;
  staged.reserve(manifest.entries.size());

  for (const ManifestEntry& entry : manifest.entries) {
    const ptrdiff_t campaign = engine->FindCampaign(entry.name);
    if (campaign < 0) {
      // Not a per-campaign data problem but a registration mismatch:
      // proceeding would silently drop the stored history, so even
      // partial mode refuses.
      return Status::NotFound("stored campaign not registered: " +
                              entry.name);
    }
    const size_t index = static_cast<size_t>(campaign);
    const std::string path = directory_ + "/" + entry.filename;

    Status entry_status;
    StreamState state;
    do {  // single-pass scope; `break` = record entry_status and move on
      if (!fs()->Exists(path)) {
        entry_status = Status::NotFound(
            path + ": referenced by manifest (generation " +
            std::to_string(manifest.generation) + ") but absent");
        break;
      }
      Result<std::string> raw = ReadFileWithRetry(path);
      if (!raw.ok()) {
        entry_status = raw.status();
        break;
      }
      Result<std::string> payload =
          VerifyChecksummedPayload(std::move(raw).value(), path);
      if (!payload.ok()) {
        entry_status = payload.status();
        break;
      }
      const DenseMatrix& sf0 = engine->solver(index).sf0();
      std::istringstream in(payload.value());
      Result<StreamState> read =
          StreamState::Read(&in, sf0.rows(), sf0.cols());
      if (!read.ok()) {
        entry_status = read.status();
        break;
      }
      state = std::move(read).value();
      if (state.timestep != entry.timestep) {
        entry_status = Status::ParseError(
            path + ": manifest timestep disagrees with state: " + entry.name);
        break;
      }
    } while (false);

    if (entry_status.ok()) {
      staged.emplace_back(index, std::move(state));
    } else if (allow_partial) {
      quarantines.emplace_back(index, entry_status);
    } else {
      return entry_status;
    }
    local_report.campaigns.push_back(
        CampaignRestoreStatus{entry.name, entry.filename, entry_status});
  }

  // Commit point: everything below mutates the engine and cannot fail.
  for (auto& [index, state] : staged) {
    engine->set_state(index, std::move(state));
  }
  for (const auto& [index, status] : quarantines) {
    engine->QuarantineCampaign(index, status);
  }
  if (report != nullptr) *report = std::move(local_report);
  return Status::OK();
}

}  // namespace serving
}  // namespace triclust
