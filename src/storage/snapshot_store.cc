#include "storage/snapshot_store.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "util/crc32c.h"
#include "util/file_io.h"

namespace tiebreak {
namespace storage {

namespace {

constexpr char kManifestMagic[] = "tiebreak-snapshot-manifest v1";
constexpr char kSnapshotFileName[] = "snapshot.tbs";
constexpr char kManifestFileName[] = "MANIFEST";
constexpr char kStagingPrefix[] = ".staging-";

std::string GenerationName(int64_t number) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "gen-%08lld",
                static_cast<long long>(number));
  return buffer;
}

// Parses "gen-<digits>" into its number; -1 for anything else (foreign
// entries, staging directories).
int64_t ParseGenerationName(const std::string& name) {
  if (name.size() < 5 || name.size() > 23 || name.compare(0, 4, "gen-") != 0) {
    return -1;
  }
  int64_t number = 0;
  for (size_t i = 4; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    number = number * 10 + (name[i] - '0');
  }
  return number;
}

std::string CrcHex(uint32_t crc) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return buffer;
}

// MANIFEST text: a magic line, one "file <name> <bytes> <crc32c>" line per
// payload file, and a final "crc <crc32c>" line checksumming everything
// before it — so a torn MANIFEST write is itself detectable.
std::string BuildManifest(const std::string& name, uint64_t length,
                          uint32_t crc) {
  std::string body = std::string(kManifestMagic) + "\n";
  body += "file " + name + " " + std::to_string(length) + " " + CrcHex(crc) +
          "\n";
  return body + "crc " + CrcHex(Crc32c(body.data(), body.size())) + "\n";
}

struct ManifestEntry {
  std::string name;
  uint64_t length = 0;
  uint32_t crc = 0;
};

// Parses and self-validates a MANIFEST; hostile bytes yield kDataLoss.
Result<std::vector<ManifestEntry>> ParseManifest(std::string_view text) {
  const size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string_view::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::DataLoss("manifest has no checksum line");
  }
  const std::string_view tail = text.substr(crc_line);
  if (tail.size() != 13 || tail.substr(12) != "\n") {
    return Status::DataLoss("manifest checksum line is malformed");
  }
  uint32_t stated = 0;
  for (char c : tail.substr(4, 8)) {
    uint32_t digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return Status::DataLoss("manifest checksum line is malformed");
    stated = stated << 4 | digit;
  }
  const std::string_view body = text.substr(0, crc_line);
  if (Crc32c(body.data(), body.size()) != stated) {
    return Status::DataLoss("manifest checksum mismatch");
  }
  // Split the validated body into lines.
  std::vector<std::string_view> lines;
  size_t at = 0;
  while (at < body.size()) {
    const size_t nl = body.find('\n', at);
    if (nl == std::string_view::npos) {
      return Status::DataLoss("manifest body is not newline-terminated");
    }
    lines.push_back(body.substr(at, nl - at));
    at = nl + 1;
  }
  if (lines.empty() || lines[0] != kManifestMagic) {
    return Status::DataLoss("manifest magic line missing");
  }
  std::vector<ManifestEntry> entries;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string line(lines[i]);
    char name[256];
    unsigned long long length = 0;
    char crc[16];
    if (std::sscanf(line.c_str(), "file %255s %llu %15s", name, &length,
                    crc) != 3 ||
        std::string(crc).size() != 8) {
      return Status::DataLoss("manifest entry is malformed: " + line);
    }
    ManifestEntry entry;
    entry.name = name;
    entry.length = length;
    for (char c : std::string_view(crc, 8)) {
      uint32_t digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else return Status::DataLoss("manifest entry crc is malformed");
      entry.crc = entry.crc << 4 | digit;
    }
    entries.push_back(entry);
  }
  if (entries.empty()) {
    return Status::DataLoss("manifest lists no files");
  }
  return entries;
}

// Full validation of one generation directory: MANIFEST self-check, the
// exact file set, per-file sizes, the snapshot load itself, then the
// snapshot's MANIFEST CRC. Every file is opened as a ReadOnlyFile, so a
// FIFO, device or directory under a listed name is kDataLoss rather than
// a reader that blocks or never ends. The snapshot's CRC is derived from
// the section CRCs (SnapshotFileCrc's fold), so it is compared only after
// the load has verified every one of them: a corrupted snapshot is
// rejected by its own header, table or section CRC first, and the
// MANIFEST comparison catches a self-consistent snapshot that is not the
// one the MANIFEST recorded.
Result<SnapshotContents> OpenGeneration(const std::string& dir,
                                        const SnapshotReadOptions& options) {
  Result<ReadOnlyFile> manifest_file =
      ReadOnlyFile::Open(dir + "/" + kManifestFileName);
  if (!manifest_file.ok()) return manifest_file.status();
  Result<std::string> manifest_text = manifest_file->ReadAll();
  if (!manifest_text.ok()) return manifest_text.status();
  Result<std::vector<ManifestEntry>> entries = ParseManifest(*manifest_text);
  if (!entries.ok()) return entries.status();

  // The directory must hold exactly MANIFEST plus the listed files.
  Result<std::vector<std::string>> listing = ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::vector<std::string> expected = {kManifestFileName};
  for (const ManifestEntry& entry : *entries) expected.push_back(entry.name);
  std::sort(expected.begin(), expected.end());
  if (*listing != expected) {
    return Status::DataLoss("generation directory contents do not match " +
                            std::string("its manifest"));
  }

  std::optional<ReadOnlyFile> snapshot_file;
  const ManifestEntry* snapshot_entry = nullptr;
  for (const ManifestEntry& entry : *entries) {
    Result<ReadOnlyFile> file = ReadOnlyFile::Open(dir + "/" + entry.name);
    if (!file.ok()) return file.status();
    if (file->size() != entry.length) {
      return Status::DataLoss(entry.name + " is " +
                              std::to_string(file->size()) +
                              " bytes, manifest says " +
                              std::to_string(entry.length));
    }
    if (entry.name == kSnapshotFileName) {
      snapshot_entry = &entry;
      snapshot_file.emplace(*std::move(file));
      continue;
    }
    Result<std::string> bytes = file->ReadAll();
    if (!bytes.ok()) return bytes.status();
    if (Crc32c(bytes->data(), bytes->size()) != entry.crc) {
      return Status::DataLoss(entry.name + " fails its manifest checksum");
    }
  }
  if (snapshot_entry == nullptr) {
    return Status::DataLoss("manifest does not list " +
                            std::string(kSnapshotFileName));
  }
  uint32_t file_crc = 0;
  Result<SnapshotContents> contents =
      LoadSnapshotFromFile(*snapshot_file, options, &file_crc);
  if (!contents.ok()) return contents.status();
  if (file_crc != snapshot_entry->crc) {
    return Status::DataLoss(std::string(kSnapshotFileName) +
                            " fails its manifest checksum");
  }
  return contents;
}

}  // namespace

SnapshotStore::SnapshotStore(std::string root) : root_(std::move(root)) {}

Result<std::vector<SnapshotStore::Generation>> SnapshotStore::ListGenerations()
    const {
  Result<std::vector<std::string>> names = ListDir(root_);
  if (!names.ok()) return names.status();
  std::vector<Generation> generations;
  for (const std::string& name : *names) {
    const int64_t number = ParseGenerationName(name);
    if (number < 0) continue;
    generations.push_back(Generation{number, root_ + "/" + name});
  }
  std::sort(generations.begin(), generations.end(),
            [](const Generation& a, const Generation& b) {
              return a.number < b.number;
            });
  return generations;
}

Result<int64_t> SnapshotStore::WriteGeneration(
    const Program& program, const Database* database, const GroundGraph* graph,
    const SnapshotWriteOptions& options) {
  Status created = CreateDir(root_);
  if (!created.ok()) return created;

  // Sweep staging leftovers from crashed writers, then pick the next
  // number past every published generation.
  Result<std::vector<std::string>> names = ListDir(root_);
  if (!names.ok()) return names.status();
  int64_t next = 1;
  for (const std::string& name : *names) {
    if (name.compare(0, sizeof(kStagingPrefix) - 1, kStagingPrefix) == 0) {
      Status removed = RemoveAll(root_ + "/" + name);
      if (!removed.ok()) return removed;
      continue;
    }
    const int64_t number = ParseGenerationName(name);
    if (number >= next) next = number + 1;
  }

  // The snapshot streams from the arenas into the staging file; its
  // MANIFEST length and CRC come back from the writer, the CRC folded from
  // the section CRCs, so the payloads are not read again.
  const std::string final_name = GenerationName(next);
  const std::string staging = root_ + "/" + kStagingPrefix + final_name;
  Status step = CreateDir(staging);
  SnapshotFileDigest digest;
  if (step.ok()) {
    Result<SnapshotFileDigest> written =
        WriteSnapshotDurable(staging + "/" + kSnapshotFileName, program,
                             database, graph, options);
    if (written.ok()) {
      digest = *written;
    } else {
      step = written.status();
    }
  }
  if (step.ok()) {
    step = WriteFileDurable(
        staging + "/" + kManifestFileName,
        BuildManifest(kSnapshotFileName, digest.length, digest.crc));
  }
  if (step.ok()) {
    step = RenameDurable(staging, root_ + "/" + final_name);
  }
  if (!step.ok()) {
    RemoveAll(staging);  // best effort; a leftover is swept next write
    return step;
  }
  return next;
}

Result<SnapshotStore::LoadedGeneration> SnapshotStore::LoadLatest(
    const SnapshotReadOptions& options) const {
  Result<std::vector<Generation>> generations = ListGenerations();
  if (!generations.ok()) return generations.status();
  if (generations->empty()) {
    return Status::NotFound("no generations under " + root_);
  }
  LoadedGeneration loaded;
  for (auto it = generations->rbegin(); it != generations->rend(); ++it) {
    Result<SnapshotContents> contents = OpenGeneration(it->dir, options);
    if (contents.ok()) {
      loaded.generation = it->number;
      loaded.contents = *std::move(contents);
      return loaded;
    }
    loaded.skipped.push_back(GenerationName(it->number) + ": " +
                             contents.status().ToString());
  }
  std::string message = "no valid generation under " + root_;
  for (const std::string& reason : loaded.skipped) {
    message += "; " + reason;
  }
  return Status::DataLoss(std::move(message));
}

Status SnapshotStore::VerifyGeneration(
    const Generation& generation, const SnapshotReadOptions& options) const {
  return OpenGeneration(generation.dir, options).status();
}

std::vector<SnapshotStore::VerifyReport> SnapshotStore::VerifyAll(
    const SnapshotReadOptions& options) const {
  std::vector<VerifyReport> reports;
  Result<std::vector<Generation>> generations = ListGenerations();
  if (!generations.ok()) return reports;
  for (const Generation& generation : *generations) {
    reports.push_back(
        VerifyReport{generation.number, VerifyGeneration(generation, options)});
  }
  return reports;
}

}  // namespace storage
}  // namespace tiebreak
