// Generation-numbered snapshot directories with crash-safe publication and
// newest-first recovery.
//
// On disk, a store root looks like
//
//   root/
//     gen-00000001/
//       snapshot.tbs   the snapshot file (storage/snapshot.h format)
//       MANIFEST       file list with sizes and CRC32C, itself checksummed
//     gen-00000002/
//       ...
//     .staging-gen-00000003/   (a write that never completed; ignored)
//
// Publication protocol: a new generation is assembled in a dot-prefixed
// staging directory (every file written + fsync'd), its MANIFEST written
// last, and the directory atomically renamed to its final gen-NNNNNNNN
// name with the root fsync'd — a crash at any point leaves either the
// complete published generation or an ignorable staging directory, never
// a half-visible one. Staging leftovers are swept on the next write.
//
// Recovery: LoadLatest walks generations newest-first and returns the
// first one whose MANIFEST and snapshot both validate, recording why each
// newer generation was skipped. Corrupting the newest generation
// therefore costs at most that generation, not the store.
//
// Each direction checksums the snapshot's bytes once and stages none of
// them in memory: the writer CRCs every section over the arenas, writev's
// the arenas straight into the staging file (WriteSnapshotDurable) and
// folds the section CRCs into the MANIFEST's whole-file CRC
// (SnapshotFileCrc's fold); the reader opens every file as a regular
// ReadOnlyFile, preads each section straight into its array and verifies
// its CRC there (LoadSnapshotFromFile), and only then derives the
// whole-file CRC the same way and compares it with the MANIFEST. The
// value compared is the CRC32C of the file's bytes, exactly as an
// external tool would compute it.
//
// Concurrency: one writer at a time per root (generation numbering is
// read-modify-write); concurrent readers are safe since published
// generations are immutable.
#ifndef TIEBREAK_STORAGE_SNAPSHOT_STORE_H_
#define TIEBREAK_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/snapshot.h"

namespace tiebreak {
namespace storage {

/// A root directory of immutable, generation-numbered snapshots. See the
/// file comment for the on-disk layout and crash-safety protocol.
class SnapshotStore {
 public:
  /// Uses `root` as the store directory; created on the first write.
  explicit SnapshotStore(std::string root);

  /// One published generation (directory `dir`, number parsed from its
  /// name).
  struct Generation {
    int64_t number = 0;
    std::string dir;
  };

  /// A successfully recovered generation plus the reasons any newer ones
  /// were skipped (one human-readable line each, newest first).
  struct LoadedGeneration {
    int64_t generation = 0;
    SnapshotContents contents;
    std::vector<std::string> skipped;
  };

  /// Verification verdict for one generation (`tiebreak_snapshot verify`).
  struct VerifyReport {
    int64_t generation = 0;
    Status status;
  };

  /// Serializes and publishes a new generation (numbered one above the
  /// highest present) with the crash-safe staging protocol. Returns the
  /// new generation number.
  Result<int64_t> WriteGeneration(const Program& program,
                                  const Database* database,
                                  const GroundGraph* graph,
                                  const SnapshotWriteOptions& options = {});

  /// Published generations, ascending by number. Staging and foreign
  /// entries are ignored. kNotFound when the root does not exist.
  Result<std::vector<Generation>> ListGenerations() const;

  /// Recovers the newest fully-valid generation: MANIFEST checks (file
  /// list, sizes, manifest self-checksum), the full snapshot load and
  /// then the MANIFEST's file CRCs must all pass. Generations that fail are skipped with
  /// a recorded reason. kNotFound when no generation exists at all,
  /// kDataLoss when generations exist but none validates.
  Result<LoadedGeneration> LoadLatest(
      const SnapshotReadOptions& options = {}) const;

  /// Validates one generation end to end (MANIFEST + snapshot load)
  /// without returning the contents.
  Status VerifyGeneration(const Generation& generation,
                          const SnapshotReadOptions& options = {}) const;

  /// VerifyGeneration over every published generation, ascending.
  /// kNotFound from an empty/missing root surfaces as an empty vector.
  std::vector<VerifyReport> VerifyAll(
      const SnapshotReadOptions& options = {}) const;

  /// The store directory this store reads and writes.
  const std::string& root() const { return root_; }

 private:
  std::string root_;
};

}  // namespace storage
}  // namespace tiebreak

#endif  // TIEBREAK_STORAGE_SNAPSHOT_STORE_H_
