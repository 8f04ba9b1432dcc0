// Versioned binary snapshots of the flat columnar state: a Database's
// per-relation fact arenas and a finalized GroundGraph's atom/rule arenas
// dump nearly verbatim into one self-describing file and load back
// bit-identically.
//
// File layout (format version 1, all integers little-endian):
//
//   [0, 32)    header: magic u32, version u32, flags u32, section_count
//              u32, file_length u64, table_crc u32 (CRC32C of the section
//              table), header_crc u32 (CRC32C of header bytes [0, 28)).
//   [32, ...)  section table: section_count entries of 32 bytes each —
//              kind u32, reserved u32 (zero), offset u64, length u64,
//              crc u32 (CRC32C of the payload bytes), reserved u32 (zero).
//   payloads   each section's bytes at its recorded offset. The layout is
//              canonical: sections appear in strictly ascending kind order,
//              each payload starts at the 8-aligned position immediately
//              after its predecessor (gap bytes are zero), and the file
//              ends exactly at the last payload byte. Loaders enforce all
//              of this, so every file has exactly one valid encoding.
//
// Section payloads are the in-memory arenas: int32/int64 arrays copied
// byte-for-byte (little-endian host assumption; the magic detects a
// byte-order mismatch). The atom dedupe tables and the graph's inverse CSR
// indexes are deliberately NOT persisted — re-interning atoms in id order
// and re-running Finalize() rebuild both deterministically, so the loader
// reuses trusted construction code instead of trusting index bytes, and a
// load-then-save round trip is bit-identical.
//
// Trust model. Load treats every byte as hostile: the CRCs catch
// accidental corruption (torn writes, bit rot) early and cheaply, and the
// structural validation ladder behind them — header/table bounds, section
// overlap and alignment, arena cross-invariants down to per-row sort order
// — guarantees that *arbitrary* bytes, including CRC-valid adversarial
// ones, produce a kDataLoss Status rather than a crash, unbounded
// allocation, or undefined behavior. There is no code path from a bad
// snapshot to a TIEBREAK_CHECK.
//
// I/O. Neither direction stages the file in memory. One write plan — the
// layout, the zero padding and each section's CRC, computed over the
// arenas where they live — feeds two sinks: SerializeSnapshot
// concatenates it into a string, and SaveSnapshot / WriteSnapshotDurable
// hand it to writev straight from the arenas. One decoder reads from a
// byte source: a bounds-checked memcpy out of a buffer
// (LoadSnapshotFromBuffer), or pread from a regular file (the file
// loaders), each section straight into its destination array and CRC'd
// there. Files are read with pread, not mmap: a mapped file truncated by
// another process raises SIGBUS, where a short pread is a kDataLoss.
#ifndef TIEBREAK_STORAGE_SNAPSHOT_H_
#define TIEBREAK_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ground/ground_graph.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/execution_context.h"
#include "util/file_io.h"
#include "util/status.h"

namespace tiebreak {
namespace storage {

/// Accepted magic ("TBSS" little-endian) and the current format version.
inline constexpr uint32_t kSnapshotMagic = 0x53534254u;
inline constexpr uint32_t kSnapshotVersion = 1;

/// Header flag bits: which top-level objects the snapshot carries.
inline constexpr uint32_t kFlagHasDatabase = 1u << 0;
inline constexpr uint32_t kFlagHasGraph = 1u << 1;

/// Options for serializing / saving a snapshot.
struct SnapshotWriteOptions {
  /// When set, serialization charges byte budgets and polls cancellation
  /// at section granularity through this context.
  ExecutionContext* context = nullptr;
};

/// Options for loading a snapshot.
struct SnapshotReadOptions {
  /// When set, the snapshot's vocabulary is cross-checked against this
  /// program: predicate count and every arity must match exactly, the
  /// stored rule count and constant count must not exceed the program's
  /// (the program may have interned more constants since the save).
  /// When null, the snapshot is validated purely against its own metadata.
  const Program* program = nullptr;
  /// When set, loading charges byte budgets and polls cancellation at
  /// section granularity through this context.
  ExecutionContext* context = nullptr;
};

/// What a successful load hands back: the objects named by the header
/// flags. A loaded graph is finalized (inverse indexes rebuilt).
struct SnapshotContents {
  std::optional<Database> database;
  std::optional<GroundGraph> graph;
  /// Vocabulary the snapshot was written under (per-predicate arities;
  /// constant/rule counts live in the arities' companion meta fields and
  /// are validated on load).
  int32_t num_predicates = 0;
  int32_t num_constants = 0;
  int32_t num_program_rules = 0;
};

/// One section-table entry as reported by ReadSnapshotInfo.
struct SectionInfo {
  uint32_t kind = 0;
  const char* name = "";  ///< static name for the kind ("?" when unknown)
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  bool crc_ok = false;  ///< payload bytes match the recorded CRC
};

/// Header + section-table summary of a snapshot buffer, for tooling
/// (`tiebreak_snapshot info`). Produced without constructing any objects.
struct SnapshotInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t file_length = 0;
  int32_t num_predicates = 0;
  int32_t num_constants = 0;
  int32_t num_program_rules = 0;
  int32_t num_atoms = 0;
  int32_t num_rule_instances = 0;
  int64_t total_facts = 0;
  std::vector<SectionInfo> sections;
};

/// Length and CRC32C of a snapshot file: the two values a generation's
/// MANIFEST records for it.
struct SnapshotFileDigest {
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Serializes `database` and/or `graph` (either may be null, not both)
/// into a format-v1 snapshot buffer. `program` supplies the vocabulary
/// (predicate arities, constant and rule counts) recorded in the file.
/// The graph must be finalized. Fails with kInvalidArgument on misuse and
/// with the context's trip Status when a budget or cancellation trips.
Result<std::string> SerializeSnapshot(
    const Program& program, const Database* database,
    const GroundGraph* graph, const SnapshotWriteOptions& options = {});

/// Parses and fully validates a snapshot buffer; see the file comment for
/// the trust model. Every failure is a structured kDataLoss (or the
/// context's trip Status); arbitrary input bytes never crash.
Result<SnapshotContents> LoadSnapshotFromBuffer(
    std::string_view bytes, const SnapshotReadOptions& options = {});

/// Writes SerializeSnapshot's bytes to `path` crash-safely
/// (WriteFileAtomic), streamed from the arenas without building them.
Status SaveSnapshot(const std::string& path, const Program& program,
                    const Database* database, const GroundGraph* graph,
                    const SnapshotWriteOptions& options = {});

/// Writes SerializeSnapshot's bytes to `path`, streamed from the arenas,
/// with WriteFileDurable (gathered writes + fsync, no rename: the
/// generation store publishes whole directories). Returns the file's
/// length and CRC32C, the CRC folded from the section CRCs as
/// SnapshotFileCrc does. Fails as SerializeSnapshot does, or with the
/// write's Status (the partial file is removed).
Result<SnapshotFileDigest> WriteSnapshotDurable(
    const std::string& path, const Program& program, const Database* database,
    const GroundGraph* graph, const SnapshotWriteOptions& options = {});

/// Opens `path` as a ReadOnlyFile and loads it (LoadSnapshotFromFile).
Result<SnapshotContents> LoadSnapshotFile(
    const std::string& path, const SnapshotReadOptions& options = {});

/// LoadSnapshotFromBuffer's decoder reading from an open regular file:
/// each section is pread straight into its array, and a file that ends
/// before a read completes is kDataLoss. When `file_crc` is non-null it
/// receives the file's CRC32C, folded as SnapshotFileCrc does once the
/// load has verified every section CRC.
Result<SnapshotContents> LoadSnapshotFromFile(
    const ReadOnlyFile& file, const SnapshotReadOptions& options = {},
    uint32_t* file_crc = nullptr);

/// Validates the header and section table of `bytes` and summarizes them,
/// computing each section's payload-CRC verdict but constructing nothing.
/// Fails (kDataLoss) only when the header or table themselves are
/// malformed — individual payload corruption is reported per section.
Result<SnapshotInfo> ReadSnapshotInfo(std::string_view bytes);

/// ReadSnapshotInfo of an open file; each payload's CRC is streamed
/// through one 64 KiB block.
Result<SnapshotInfo> ReadSnapshotInfo(const ReadOnlyFile& file);

/// CRC32C of the whole snapshot file `bytes`, derived from its header,
/// section table and padding bytes and the payload CRCs the table records
/// — the payloads themselves are not read (Crc32cCombine). It equals
/// Crc32c(bytes) exactly when every payload matches its recorded CRC:
/// true of SerializeSnapshot's output and of every buffer
/// LoadSnapshotFromBuffer accepts. The generation store gets the same
/// fold from WriteSnapshotDurable and LoadSnapshotFromFile. kDataLoss
/// when the header, table or padding is malformed.
Result<uint32_t> SnapshotFileCrc(std::string_view bytes);

}  // namespace storage
}  // namespace tiebreak

#endif  // TIEBREAK_STORAGE_SNAPSHOT_H_
