#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/crc32c.h"

namespace tiebreak {
namespace storage {

namespace {

// Section kinds, in the (ascending) order they appear in a canonical file.
enum SectionKind : uint32_t {
  kMeta = 1,                // fixed counts block, kMetaLength bytes
  kArities = 2,             // int32 × num_predicates
  kDbNumRows = 3,           // int64 × num_predicates
  kDbRows = 4,              // ConstId, relations concatenated in pred order
  kAtomPredicates = 5,      // int32 × num_atoms
  kAtomOffsets = 6,         // int64 × (num_atoms + 1)
  kAtomArgs = 7,            // ConstId × num_args
  kRuleIndices = 8,         // int32 × num_rule_instances
  kRuleHeads = 9,           // int32 × num_rule_instances
  kRulePosEnds = 10,        // int64 × num_rule_instances
  kRuleBodyOffsets = 11,    // int64 × (num_rule_instances + 1)
  kRuleBody = 12,           // int32 × num_body
  kRuleBindingOffsets = 13, // int64 × (num_rule_instances + 1)
  kRuleBindings = 14,       // ConstId × num_bindings
};

constexpr size_t kHeaderLength = 32;
constexpr size_t kTableEntryLength = 32;
constexpr size_t kMetaLength = 56;
// Far above the 14 kinds of format v1; purely an allocation bound against
// hostile section counts.
constexpr uint32_t kMaxSections = 64;

const char* SectionName(uint32_t kind) {
  switch (kind) {
    case kMeta: return "meta";
    case kArities: return "arities";
    case kDbNumRows: return "db_num_rows";
    case kDbRows: return "db_rows";
    case kAtomPredicates: return "atom_predicates";
    case kAtomOffsets: return "atom_offsets";
    case kAtomArgs: return "atom_args";
    case kRuleIndices: return "rule_indices";
    case kRuleHeads: return "rule_heads";
    case kRulePosEnds: return "rule_pos_ends";
    case kRuleBodyOffsets: return "rule_body_offsets";
    case kRuleBody: return "rule_body";
    case kRuleBindingOffsets: return "rule_binding_offsets";
    case kRuleBindings: return "rule_bindings";
    default: return "?";
  }
}

// Bytewise little-endian codec. No reinterpret_cast of the buffer: the
// input may be arbitrarily aligned (fuzzed substrings), and bytewise
// assembly is well-defined regardless.
void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const char* p) {
  const unsigned char* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 |
         static_cast<uint32_t>(b[3]) << 24;
}

uint64_t GetU64(const char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

// Payloads are read and checksummed in blocks of this many bytes, so
// each block is CRC'd while it is still in cache: one pass over memory
// per direction instead of a copy pass plus a CRC pass.
constexpr size_t kBlockBytes = size_t{64} << 10;

// Padding bytes: a canonical gap is at most 7 of them.
constexpr char kZeros[8] = {};

// The bytes of `n` elements at `data` (little-endian host).
template <typename T>
std::string_view RawBytes(const T* data, size_t n) {
  return std::string_view(reinterpret_cast<const char*>(data), n * sizeof(T));
}

// Where the loader's bytes come from. Both sources copy into memory the
// caller owns; the decoder above them is one code path.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  // Total length in bytes.
  virtual uint64_t size() const = 0;
  // Copies bytes [offset, offset + length) into `dst`.
  virtual Status Read(uint64_t offset, char* dst, size_t length) const = 0;
};

// An in-memory snapshot: a bounds-checked memcpy (no pointer
// reinterpretation — the buffer may sit at any alignment).
class BufferSource final : public ByteSource {
 public:
  explicit BufferSource(std::string_view bytes) : bytes_(bytes) {}
  uint64_t size() const override { return bytes_.size(); }
  Status Read(uint64_t offset, char* dst, size_t length) const override {
    if (offset > bytes_.size() || length > bytes_.size() - offset) {
      return Status::DataLoss("read past the end of the snapshot");
    }
    if (length > 0) std::memcpy(dst, bytes_.data() + offset, length);
    return Status::Ok();
  }

 private:
  std::string_view bytes_;
};

// A snapshot file: fstat'd length, pread at each offset; a file that
// shrinks under the reader is kDataLoss (ReadOnlyFile::ReadAt). pread,
// not mmap: a mapped file truncated by another process raises SIGBUS on
// the next touch, and the loader must return a Status, never die.
class FileSource final : public ByteSource {
 public:
  explicit FileSource(const ReadOnlyFile& file) : file_(file) {}
  uint64_t size() const override { return file_.size(); }
  Status Read(uint64_t offset, char* dst, size_t length) const override {
    return file_.ReadAt(offset, dst, length);
  }

 private:
  const ReadOnlyFile& file_;
};

// Reads `length` bytes at `offset` into `dst`, extending `*crc` over each
// block right after reading it. The bytes land before the verdict, but
// nothing reads them unless the caller's CRC comparison passes.
Status ReadChecksummed(const ByteSource& source, uint64_t offset, char* dst,
                       uint64_t length, uint32_t* crc) {
  for (uint64_t at = 0; at < length; at += kBlockBytes) {
    const size_t block = static_cast<size_t>(
        std::min<uint64_t>(length - at, kBlockBytes));
    Status read = source.Read(offset + at, dst + at, block);
    if (!read.ok()) return read;
    *crc = Crc32c(*crc, dst + at, block);
  }
  return Status::Ok();
}

// CRC32C of `length` bytes at `offset`, streamed through one block of
// scratch memory.
Result<uint32_t> StreamCrc(const ByteSource& source, uint64_t offset,
                           uint64_t length) {
  std::vector<char> block(
      static_cast<size_t>(std::min<uint64_t>(length, kBlockBytes)));
  uint32_t crc = 0;
  for (uint64_t at = 0; at < length; at += block.size()) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(length - at, block.size()));
    Status read = source.Read(offset + at, block.data(), n);
    if (!read.ok()) return read;
    crc = Crc32c(crc, block.data(), n);
  }
  return crc;
}

Status ChecksumMismatch(uint32_t kind) {
  return Status::DataLoss(std::string("section ") + SectionName(kind) +
                          " checksum mismatch");
}

Status Charge(ExecutionContext* context, int64_t bytes) {
  if (context == nullptr) return Status::Ok();
  Status s = context->ChargeBytes("storage", bytes);
  if (!s.ok()) return s;
  return context->Checkpoint("storage", 1);
}

uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

// The fixed counts block (section kMeta). Decoded from untrusted bytes,
// so counts are validated against int32/int64 range before use.
struct Meta {
  int32_t num_predicates = 0;
  int32_t num_constants = 0;
  int32_t num_program_rules = 0;
  int32_t num_atoms = 0;
  int32_t num_rule_instances = 0;
  int64_t total_facts = 0;
  int64_t num_args = 0;
  int64_t num_body = 0;
  int64_t num_bindings = 0;
};

std::string EncodeMeta(const Meta& meta) {
  std::string out;
  out.reserve(kMetaLength);
  PutU32(&out, static_cast<uint32_t>(meta.num_predicates));
  PutU32(&out, static_cast<uint32_t>(meta.num_constants));
  PutU32(&out, static_cast<uint32_t>(meta.num_program_rules));
  PutU32(&out, static_cast<uint32_t>(meta.num_atoms));
  PutU32(&out, static_cast<uint32_t>(meta.num_rule_instances));
  PutU32(&out, 0);  // reserved
  PutU64(&out, static_cast<uint64_t>(meta.total_facts));
  PutU64(&out, static_cast<uint64_t>(meta.num_args));
  PutU64(&out, static_cast<uint64_t>(meta.num_bindings));
  PutU64(&out, static_cast<uint64_t>(meta.num_body));
  return out;
}

Result<Meta> DecodeMeta(std::string_view payload) {
  if (payload.size() != kMetaLength) {
    return Status::DataLoss("meta section is " +
                            std::to_string(payload.size()) +
                            " bytes, expected " + std::to_string(kMetaLength));
  }
  const char* p = payload.data();
  Meta meta;
  const uint32_t counts32[5] = {GetU32(p), GetU32(p + 4), GetU32(p + 8),
                                GetU32(p + 12), GetU32(p + 16)};
  for (uint32_t c : counts32) {
    if (c > static_cast<uint32_t>(INT32_MAX)) {
      return Status::DataLoss("meta count " + std::to_string(c) +
                              " overflows int32");
    }
  }
  if (GetU32(p + 20) != 0) {
    return Status::DataLoss("meta reserved field is nonzero");
  }
  const uint64_t counts64[4] = {GetU64(p + 24), GetU64(p + 32),
                                GetU64(p + 40), GetU64(p + 48)};
  for (uint64_t c : counts64) {
    if (c > static_cast<uint64_t>(INT64_MAX)) {
      return Status::DataLoss("meta count " + std::to_string(c) +
                              " overflows int64");
    }
  }
  meta.num_predicates = static_cast<int32_t>(counts32[0]);
  meta.num_constants = static_cast<int32_t>(counts32[1]);
  meta.num_program_rules = static_cast<int32_t>(counts32[2]);
  meta.num_atoms = static_cast<int32_t>(counts32[3]);
  meta.num_rule_instances = static_cast<int32_t>(counts32[4]);
  meta.total_facts = static_cast<int64_t>(counts64[0]);
  meta.num_args = static_cast<int64_t>(counts64[1]);
  meta.num_bindings = static_cast<int64_t>(counts64[2]);
  meta.num_body = static_cast<int64_t>(counts64[3]);
  return meta;
}

struct TableEntry {
  uint32_t kind = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

// A snapshot's header and section table: their bytes ([0, table end))
// and the entries they encode. The writer builds one, the reader parses
// one; with the zero padding, it is all the whole-file CRC needs beyond
// the section CRCs (FileCrc).
struct Layout {
  uint32_t version = 0;
  uint32_t flags = 0;
  std::string head;
  std::vector<TableEntry> entries;
};

// Validates the header and section table (bounds, CRCs, canonical layout,
// zero padding) without touching payload contents. Shared by the load,
// info and file-CRC paths.
Result<Layout> ParseHeaderAndTable(const ByteSource& source) {
  const uint64_t size = source.size();
  if (size < kHeaderLength) {
    return Status::DataLoss("snapshot is " + std::to_string(size) +
                            " bytes; the header alone needs " +
                            std::to_string(kHeaderLength));
  }
  char header[kHeaderLength];
  Status read = source.Read(0, header, kHeaderLength);
  if (!read.ok()) return read;
  const char* p = header;
  const uint32_t magic = GetU32(p);
  if (magic != kSnapshotMagic) {
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", magic);
    return Status::DataLoss(std::string("bad magic 0x") + hex +
                            ": not a snapshot (or byte-order mismatch)");
  }
  const uint32_t header_crc = GetU32(p + 28);
  if (Crc32c(p, kHeaderLength - 4) != header_crc) {
    return Status::DataLoss("header checksum mismatch");
  }
  Layout layout;
  layout.version = GetU32(p + 4);
  if (layout.version != kSnapshotVersion) {
    return Status::DataLoss("unsupported snapshot format version " +
                            std::to_string(layout.version) + " (reader is " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  layout.flags = GetU32(p + 8);
  const uint32_t section_count = GetU32(p + 12);
  const uint64_t file_length = GetU64(p + 16);
  if (file_length != size) {
    return Status::DataLoss("header says " + std::to_string(file_length) +
                            " bytes but the file holds " +
                            std::to_string(size));
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::DataLoss("implausible section count " +
                            std::to_string(section_count));
  }
  const uint64_t table_end =
      kHeaderLength + uint64_t{section_count} * kTableEntryLength;
  if (table_end > size) {
    return Status::DataLoss("section table overruns the file");
  }
  layout.head.resize(table_end);
  std::memcpy(layout.head.data(), header, kHeaderLength);
  read = source.Read(kHeaderLength, layout.head.data() + kHeaderLength,
                     table_end - kHeaderLength);
  if (!read.ok()) return read;
  p = layout.head.data();
  const uint32_t table_crc = GetU32(p + 24);
  if (Crc32c(p + kHeaderLength, table_end - kHeaderLength) != table_crc) {
    return Status::DataLoss("section table checksum mismatch");
  }
  // Canonical layout: kinds strictly ascending, each payload at the
  // 8-aligned position after its predecessor, zero gap bytes, the file
  // ending exactly at the last payload byte. Every deviation is data loss
  // — there is exactly one valid byte encoding per snapshot.
  layout.entries.reserve(section_count);
  uint64_t cursor = table_end;  // table_end is 8-aligned (32 | 32·n)
  uint32_t prev_kind = 0;
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* e = p + kHeaderLength + uint64_t{i} * kTableEntryLength;
    TableEntry entry;
    entry.kind = GetU32(e);
    entry.offset = GetU64(e + 8);
    entry.length = GetU64(e + 16);
    entry.crc = GetU32(e + 24);
    const std::string where =
        "section " + std::to_string(i) + " (" + SectionName(entry.kind) + ")";
    if (GetU32(e + 4) != 0 || GetU32(e + 28) != 0) {
      return Status::DataLoss(where + ": reserved table field is nonzero");
    }
    if (entry.kind <= prev_kind) {
      return Status::DataLoss(where + ": section kinds not strictly " +
                              "ascending");
    }
    prev_kind = entry.kind;
    const uint64_t expected = Align8(cursor);
    if (entry.offset != expected) {
      return Status::DataLoss(where + ": payload at offset " +
                              std::to_string(entry.offset) +
                              ", canonical layout requires " +
                              std::to_string(expected));
    }
    if (entry.offset > size || entry.length > size - entry.offset) {
      return Status::DataLoss(where + ": payload overruns the file");
    }
    char gap[sizeof(kZeros)];
    read = source.Read(cursor, gap, entry.offset - cursor);
    if (!read.ok()) return read;
    if (std::memcmp(gap, kZeros, entry.offset - cursor) != 0) {
      return Status::DataLoss(where + ": nonzero padding byte before " +
                              "payload");
    }
    cursor = entry.offset + entry.length;
    layout.entries.push_back(entry);
  }
  if (cursor != size) {
    return Status::DataLoss("file holds " + std::to_string(size - cursor) +
                            " trailing bytes past the last section");
  }
  return layout;
}

// CRC32C of the whole file: the header and table bytes, the zero padding
// and each payload's CRC folded in with Crc32cCombine. It equals the CRC
// of the file's bytes exactly when every payload matches its CRC.
uint32_t FileCrc(const Layout& layout) {
  uint64_t cursor = layout.head.size();
  uint32_t crc = Crc32c(layout.head.data(), cursor);
  for (const TableEntry& entry : layout.entries) {
    crc = Crc32c(crc, kZeros, entry.offset - cursor);
    crc = Crc32cCombine(crc, entry.crc, entry.length);
    cursor = entry.offset + entry.length;
  }
  return crc;
}

const TableEntry* FindSection(const Layout& layout, uint32_t kind) {
  for (const TableEntry& entry : layout.entries) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

// The exact section-kind list a canonical v1 file with these flags holds.
std::vector<uint32_t> ExpectedKinds(uint32_t flags) {
  std::vector<uint32_t> kinds = {kMeta, kArities};
  if (flags & kFlagHasDatabase) {
    kinds.push_back(kDbNumRows);
    kinds.push_back(kDbRows);
  }
  if (flags & kFlagHasGraph) {
    for (uint32_t k = kAtomPredicates; k <= kRuleBindings; ++k) {
      kinds.push_back(k);
    }
  }
  return kinds;
}

// Section `kind` as `count` elements of T, read straight into the array:
// its length must be exactly `count` × sizeof(T) bytes, the bytes are
// charged to the context, and the payload must match its CRC.
template <typename T>
Result<std::vector<T>> CheckedArray(const ByteSource& source,
                                    const Layout& layout, uint32_t kind,
                                    uint64_t count,
                                    ExecutionContext* context) {
  const TableEntry* entry = FindSection(layout, kind);
  if (entry == nullptr) {
    return Status::DataLoss(std::string("missing section ") +
                            SectionName(kind));
  }
  // count ≤ INT32_MAX+1 and sizeof(T) ≤ 8, so the product fits easily.
  if (entry->length != count * sizeof(T)) {
    return Status::DataLoss(std::string("section ") + SectionName(kind) +
                            " is " + std::to_string(entry->length) +
                            " bytes, expected " + std::to_string(count) +
                            " × " + std::to_string(sizeof(T)));
  }
  Status charged = Charge(context, static_cast<int64_t>(entry->length));
  if (!charged.ok()) return charged;
  std::vector<T> out(static_cast<size_t>(count));
  uint32_t crc = 0;
  Status read = ReadChecksummed(source, entry->offset,
                                reinterpret_cast<char*>(out.data()),
                                entry->length, &crc);
  if (!read.ok()) return read;
  if (crc != entry->crc) return ChecksumMismatch(kind);
  return out;
}

// The write plan: the layout with every section CRC filled in, computed
// over the payloads where they live, and the whole file as the ordered
// pieces both sinks consume — header and table, then each section's zero
// padding and payload pieces (the small vocabulary sections encoded into
// the plan's own strings, the arenas referenced in place). Filled in place
// and never moved, since the pieces point into its strings.
struct WritePlan {
  Layout layout;
  uint64_t file_length = 0;
  std::string meta;
  std::string arities;
  std::string num_rows;
  std::vector<std::string_view> pieces;
};

Status BuildPlan(const Program& program, const Database* database,
                 const GroundGraph* graph, const SnapshotWriteOptions& options,
                 WritePlan* plan) {
  if (database == nullptr && graph == nullptr) {
    return Status::InvalidArgument(
        "snapshot must carry a database, a graph, or both");
  }
  if (graph != nullptr && !graph->finalized()) {
    return Status::InvalidArgument("snapshot requires a finalized graph");
  }
  const int32_t num_predicates = program.num_predicates();
  if (database != nullptr) {
    if (database->num_predicates() != num_predicates) {
      return Status::InvalidArgument(
          "database has " + std::to_string(database->num_predicates()) +
          " relations but the program declares " +
          std::to_string(num_predicates) + " predicates");
    }
    for (PredId pr = 0; pr < num_predicates; ++pr) {
      if (database->arity(pr) != program.predicate(pr).arity) {
        return Status::InvalidArgument("database arity mismatch at predicate " +
                                       std::to_string(pr));
      }
    }
  }

  Meta meta;
  meta.num_predicates = num_predicates;
  meta.num_constants = program.num_constants();
  meta.num_program_rules = program.num_rules();
  if (database != nullptr) meta.total_facts = database->TotalFacts();
  if (graph != nullptr) {
    meta.num_atoms = graph->num_atoms();
    meta.num_rule_instances = graph->num_rules();
    meta.num_args = graph->atoms().num_args();
    meta.num_body = static_cast<int64_t>(graph->body_arena().size());
    meta.num_bindings = static_cast<int64_t>(graph->binding_arena().size());
  }

  Layout& layout = plan->layout;
  layout.version = kSnapshotVersion;
  if (database != nullptr) layout.flags |= kFlagHasDatabase;
  if (graph != nullptr) layout.flags |= kFlagHasGraph;

  // Each payload, in ascending kind order, as the pieces it concatenates.
  plan->meta = EncodeMeta(meta);
  for (PredId pr = 0; pr < num_predicates; ++pr) {
    PutU32(&plan->arities, static_cast<uint32_t>(program.predicate(pr).arity));
  }
  struct Section {
    uint32_t kind;
    std::vector<std::string_view> pieces;
  };
  std::vector<Section> sections;
  sections.push_back({kMeta, {plan->meta}});
  sections.push_back({kArities, {plan->arities}});
  if (database != nullptr) {
    Section rows{kDbRows, {}};
    for (PredId pr = 0; pr < num_predicates; ++pr) {
      PutU64(&plan->num_rows, static_cast<uint64_t>(database->NumFacts(pr)));
      rows.pieces.push_back(
          RawBytes(database->FactData(pr),
                   static_cast<size_t>(database->NumFacts(pr)) *
                       static_cast<size_t>(database->arity(pr))));
    }
    sections.push_back({kDbNumRows, {plan->num_rows}});
    sections.push_back(std::move(rows));
  }
  if (graph != nullptr) {
    const GroundAtomStore& atoms = graph->atoms();
    auto add = [&sections](uint32_t kind, auto span) {
      sections.push_back({kind, {RawBytes(span.data(), span.size())}});
    };
    add(kAtomPredicates, atoms.atom_predicates());
    add(kAtomOffsets, atoms.arg_offsets());
    add(kAtomArgs, atoms.arg_arena());
    add(kRuleIndices, graph->rule_indices());
    add(kRuleHeads, graph->heads());
    add(kRulePosEnds, graph->pos_ends());
    add(kRuleBodyOffsets, graph->body_offsets());
    add(kRuleBody, graph->body_arena());
    add(kRuleBindingOffsets, graph->binding_offsets());
    add(kRuleBindings, graph->binding_arena());
  }

  // Lay the payloads out — each at the 8-aligned position after its
  // predecessor, starting right after the section table — charging each
  // section's bytes before any of them is read.
  const uint64_t table_end =
      kHeaderLength + sections.size() * kTableEntryLength;
  layout.entries.resize(sections.size());
  uint64_t cursor = table_end;
  for (size_t i = 0; i < sections.size(); ++i) {
    uint64_t length = 0;
    for (std::string_view piece : sections[i].pieces) length += piece.size();
    Status charged = Charge(options.context, static_cast<int64_t>(length));
    if (!charged.ok()) return charged;
    layout.entries[i].kind = sections[i].kind;
    layout.entries[i].offset = Align8(cursor);
    layout.entries[i].length = length;
    cursor = layout.entries[i].offset + length;
  }
  plan->file_length = cursor;

  // Each section's CRC, over its pieces where they lie.
  for (size_t i = 0; i < sections.size(); ++i) {
    uint32_t crc = 0;
    for (std::string_view piece : sections[i].pieces) {
      crc = Crc32c(crc, piece.data(), piece.size());
    }
    layout.entries[i].crc = crc;
  }

  std::string table;
  table.reserve(sections.size() * kTableEntryLength);
  for (const TableEntry& entry : layout.entries) {
    PutU32(&table, entry.kind);
    PutU32(&table, 0);  // reserved
    PutU64(&table, entry.offset);
    PutU64(&table, entry.length);
    PutU32(&table, entry.crc);
    PutU32(&table, 0);  // reserved
  }
  std::string& head = layout.head;
  head.reserve(table_end);
  PutU32(&head, kSnapshotMagic);
  PutU32(&head, kSnapshotVersion);
  PutU32(&head, layout.flags);
  PutU32(&head, static_cast<uint32_t>(sections.size()));
  PutU64(&head, plan->file_length);
  PutU32(&head, Crc32c(table.data(), table.size()));
  PutU32(&head, Crc32c(head.data(), head.size()));  // header CRC over [0, 28)
  head += table;

  plan->pieces.push_back(head);
  cursor = table_end;
  for (size_t i = 0; i < sections.size(); ++i) {
    const TableEntry& entry = layout.entries[i];
    if (entry.offset > cursor) {
      plan->pieces.push_back(
          std::string_view(kZeros, static_cast<size_t>(entry.offset - cursor)));
    }
    for (std::string_view piece : sections[i].pieces) {
      if (!piece.empty()) plan->pieces.push_back(piece);
    }
    cursor = entry.offset + entry.length;
  }
  return Status::Ok();
}

// The one decoder behind every load: validates and decodes the snapshot
// `source` holds; see the header's trust model. With `file_crc` set it
// also reports the whole-file CRC, folded once every section has passed.
Result<SnapshotContents> Decode(const ByteSource& source,
                                const SnapshotReadOptions& options,
                                uint32_t* file_crc) {
  Result<Layout> parsed = ParseHeaderAndTable(source);
  if (!parsed.ok()) return parsed.status();
  const Layout& layout = *parsed;

  if (layout.flags & ~(kFlagHasDatabase | kFlagHasGraph)) {
    return Status::DataLoss("unknown header flag bits");
  }
  if ((layout.flags & (kFlagHasDatabase | kFlagHasGraph)) == 0) {
    return Status::DataLoss("snapshot carries neither database nor graph");
  }
  {
    const std::vector<uint32_t> expected = ExpectedKinds(layout.flags);
    bool match = layout.entries.size() == expected.size();
    for (size_t i = 0; match && i < expected.size(); ++i) {
      match = layout.entries[i].kind == expected[i];
    }
    if (!match) {
      return Status::DataLoss(
          "section list does not match the header flags");
    }
  }

  Result<std::vector<char>> meta_payload = CheckedArray<char>(
      source, layout, kMeta, kMetaLength, options.context);
  if (!meta_payload.ok()) return meta_payload.status();
  Result<Meta> meta =
      DecodeMeta(std::string_view(meta_payload->data(), meta_payload->size()));
  if (!meta.ok()) return meta.status();
  const uint64_t predicates = static_cast<uint64_t>(meta->num_predicates);
  const uint64_t atoms_count = static_cast<uint64_t>(meta->num_atoms);
  const uint64_t rules_count =
      static_cast<uint64_t>(meta->num_rule_instances);

  Result<std::vector<int32_t>> decoded_arities = CheckedArray<int32_t>(
      source, layout, kArities, predicates, options.context);
  if (!decoded_arities.ok()) return decoded_arities.status();
  const std::vector<int32_t> arities = *std::move(decoded_arities);
  for (size_t pr = 0; pr < arities.size(); ++pr) {
    if (arities[pr] < 0) {
      return Status::DataLoss("predicate " + std::to_string(pr) +
                              " has negative arity");
    }
  }

  if (options.program != nullptr) {
    const Program& program = *options.program;
    if (meta->num_predicates != program.num_predicates()) {
      return Status::DataLoss(
          "snapshot has " + std::to_string(meta->num_predicates) +
          " predicates but the program declares " +
          std::to_string(program.num_predicates()));
    }
    for (PredId pr = 0; pr < meta->num_predicates; ++pr) {
      if (arities[pr] != program.predicate(pr).arity) {
        return Status::DataLoss("snapshot arity mismatch at predicate " +
                                std::to_string(pr));
      }
    }
    if (meta->num_program_rules != program.num_rules()) {
      return Status::DataLoss(
          "snapshot was written under " +
          std::to_string(meta->num_program_rules) +
          " program rules, the program has " +
          std::to_string(program.num_rules()));
    }
    if (meta->num_constants > program.num_constants()) {
      return Status::DataLoss(
          "snapshot uses " + std::to_string(meta->num_constants) +
          " constants, the program has interned only " +
          std::to_string(program.num_constants()));
    }
  }

  SnapshotContents contents;
  contents.num_predicates = meta->num_predicates;
  contents.num_constants = meta->num_constants;
  contents.num_program_rules = meta->num_program_rules;

  if (layout.flags & kFlagHasDatabase) {
    Result<std::vector<int64_t>> num_rows = CheckedArray<int64_t>(
        source, layout, kDbNumRows, predicates, options.context);
    if (!num_rows.ok()) return num_rows.status();

    const TableEntry* rows_entry = FindSection(layout, kDbRows);
    // Present by the section-list check; its length is validated against
    // the row counts below rather than a single product.
    Status charged =
        Charge(options.context, static_cast<int64_t>(rows_entry->length));
    if (!charged.ok()) return charged;
    if (rows_entry->length % sizeof(ConstId) != 0) {
      return Status::DataLoss("db_rows length is not a whole id count");
    }
    const uint64_t total_ids = rows_entry->length / sizeof(ConstId);

    // Slice the concatenated arena by the per-relation counts; every id
    // must be accounted for. Multiplications are guarded by division. A
    // slicing failure is reported only after the payload CRC, so the
    // checks keep the order they have for every other section.
    std::vector<uint64_t> ids(num_rows->size(), 0);
    Status sliced = Status::Ok();
    int64_t facts = 0;
    uint64_t at = 0;
    for (size_t pr = 0; pr < num_rows->size(); ++pr) {
      const int64_t count = (*num_rows)[pr];
      const int64_t arity = arities[pr];
      if (count < 0 || count > INT64_MAX - facts) {
        sliced = Status::DataLoss("relation " + std::to_string(pr) +
                                  (count < 0 ? ": negative row count"
                                             : ": row counts overflow"));
        break;
      }
      facts += count;
      if (arity == 0 || count == 0) continue;
      const uint64_t need = static_cast<uint64_t>(count);
      if (need > (total_ids - at) / static_cast<uint64_t>(arity)) {
        sliced = Status::DataLoss("db_rows arena ends inside relation " +
                                  std::to_string(pr));
        break;
      }
      ids[pr] = need * static_cast<uint64_t>(arity);
      at += ids[pr];
    }
    if (sliced.ok() && at != total_ids) {
      sliced = Status::DataLoss("db_rows arena holds " +
                                std::to_string(total_ids - at) +
                                " ids past the last relation");
    }

    // Each relation's rows go straight into its own array, the CRC
    // streamed across them; a payload the counts cannot slice is only
    // checksummed.
    std::vector<std::vector<ConstId>> rows(num_rows->size());
    uint32_t crc = 0;
    if (sliced.ok()) {
      uint64_t offset = rows_entry->offset;
      for (size_t pr = 0; pr < rows.size(); ++pr) {
        rows[pr].resize(static_cast<size_t>(ids[pr]));
        const uint64_t length = ids[pr] * sizeof(ConstId);
        Status read = ReadChecksummed(
            source, offset, reinterpret_cast<char*>(rows[pr].data()), length,
            &crc);
        if (!read.ok()) return read;
        offset += length;
      }
    } else {
      Result<uint32_t> streamed =
          StreamCrc(source, rows_entry->offset, rows_entry->length);
      if (!streamed.ok()) return streamed.status();
      crc = *streamed;
    }
    if (crc != rows_entry->crc) return ChecksumMismatch(kDbRows);
    if (!sliced.ok()) return sliced;
    if (facts != meta->total_facts) {
      return Status::DataLoss("meta total_facts disagrees with db_num_rows");
    }
    Result<Database> database =
        Database::FromArenas(arities, *std::move(num_rows), std::move(rows),
                             meta->num_constants);
    if (!database.ok()) return database.status();
    contents.database.emplace(*std::move(database));
  } else if (meta->total_facts != 0) {
    return Status::DataLoss("meta total_facts nonzero without a database");
  }

  if (layout.flags & kFlagHasGraph) {
    Result<std::vector<PredId>> atom_preds = CheckedArray<PredId>(
        source, layout, kAtomPredicates, atoms_count, options.context);
    if (!atom_preds.ok()) return atom_preds.status();
    Result<std::vector<int64_t>> atom_offsets = CheckedArray<int64_t>(
        source, layout, kAtomOffsets, atoms_count + 1, options.context);
    if (!atom_offsets.ok()) return atom_offsets.status();
    Result<std::vector<ConstId>> atom_args = CheckedArray<ConstId>(
        source, layout, kAtomArgs, static_cast<uint64_t>(meta->num_args),
        options.context);
    if (!atom_args.ok()) return atom_args.status();

    Result<GroundAtomStore> store = GroundAtomStore::FromArenas(
        Span<PredId>(atom_preds->data(), atom_preds->size()),
        Span<int64_t>(atom_offsets->data(), atom_offsets->size()),
        Span<ConstId>(atom_args->data(), atom_args->size()),
        meta->num_predicates, meta->num_constants);
    if (!store.ok()) return store.status();
    // Atoms must respect the declared arities — the interpreters and the
    // Δ-mask assume ArityOf(a) == arity(PredicateOf(a)).
    for (AtomId a = 0; a < store->size(); ++a) {
      if (store->ArityOf(a) != arities[store->PredicateOf(a)]) {
        return Status::DataLoss("atom " + std::to_string(a) +
                                " has arity " +
                                std::to_string(store->ArityOf(a)) +
                                ", predicate declares " +
                                std::to_string(arities[store->PredicateOf(a)]));
      }
    }

    Result<std::vector<int32_t>> rule_indices = CheckedArray<int32_t>(
        source, layout, kRuleIndices, rules_count, options.context);
    if (!rule_indices.ok()) return rule_indices.status();
    Result<std::vector<AtomId>> heads = CheckedArray<AtomId>(
        source, layout, kRuleHeads, rules_count, options.context);
    if (!heads.ok()) return heads.status();
    Result<std::vector<int64_t>> pos_ends = CheckedArray<int64_t>(
        source, layout, kRulePosEnds, rules_count, options.context);
    if (!pos_ends.ok()) return pos_ends.status();
    Result<std::vector<int64_t>> body_offsets = CheckedArray<int64_t>(
        source, layout, kRuleBodyOffsets, rules_count + 1, options.context);
    if (!body_offsets.ok()) return body_offsets.status();
    Result<std::vector<AtomId>> body = CheckedArray<AtomId>(
        source, layout, kRuleBody, static_cast<uint64_t>(meta->num_body),
        options.context);
    if (!body.ok()) return body.status();
    Result<std::vector<int64_t>> binding_offsets = CheckedArray<int64_t>(
        source, layout, kRuleBindingOffsets, rules_count + 1,
        options.context);
    if (!binding_offsets.ok()) return binding_offsets.status();
    Result<std::vector<ConstId>> bindings = CheckedArray<ConstId>(
        source, layout, kRuleBindings,
        static_cast<uint64_t>(meta->num_bindings), options.context);
    if (!bindings.ok()) return bindings.status();

    Result<GroundGraph> graph = GroundGraph::FromArenas(
        *std::move(store), *std::move(rule_indices), *std::move(heads),
        *std::move(pos_ends), *std::move(body_offsets), *std::move(body),
        *std::move(binding_offsets), *std::move(bindings),
        meta->num_constants, meta->num_program_rules);
    if (!graph.ok()) return graph.status();
    contents.graph.emplace(*std::move(graph));
  } else if (meta->num_atoms != 0 || meta->num_rule_instances != 0 ||
             meta->num_args != 0 || meta->num_body != 0 ||
             meta->num_bindings != 0) {
    return Status::DataLoss("meta graph counts nonzero without a graph");
  }

  if (file_crc != nullptr) *file_crc = FileCrc(layout);
  return contents;
}

}  // namespace

Result<std::string> SerializeSnapshot(const Program& program,
                                      const Database* database,
                                      const GroundGraph* graph,
                                      const SnapshotWriteOptions& options) {
  WritePlan plan;
  Status planned = BuildPlan(program, database, graph, options, &plan);
  if (!planned.ok()) return planned;
  std::string out;
  out.reserve(plan.file_length);
  for (std::string_view piece : plan.pieces) out.append(piece);
  return out;
}

Result<SnapshotFileDigest> WriteSnapshotDurable(
    const std::string& path, const Program& program, const Database* database,
    const GroundGraph* graph, const SnapshotWriteOptions& options) {
  WritePlan plan;
  Status planned = BuildPlan(program, database, graph, options, &plan);
  if (!planned.ok()) return planned;
  Status written = WriteFileDurable(
      path, Span<std::string_view>(plan.pieces.data(), plan.pieces.size()));
  if (!written.ok()) return written;
  return SnapshotFileDigest{plan.file_length, FileCrc(plan.layout)};
}

Status SaveSnapshot(const std::string& path, const Program& program,
                    const Database* database, const GroundGraph* graph,
                    const SnapshotWriteOptions& options) {
  WritePlan plan;
  Status planned = BuildPlan(program, database, graph, options, &plan);
  if (!planned.ok()) return planned;
  return WriteFileAtomic(
      path, Span<std::string_view>(plan.pieces.data(), plan.pieces.size()));
}

Result<SnapshotContents> LoadSnapshotFromBuffer(
    std::string_view bytes, const SnapshotReadOptions& options) {
  return Decode(BufferSource(bytes), options, nullptr);
}

Result<SnapshotContents> LoadSnapshotFromFile(
    const ReadOnlyFile& file, const SnapshotReadOptions& options,
    uint32_t* file_crc) {
  return Decode(FileSource(file), options, file_crc);
}

Result<SnapshotContents> LoadSnapshotFile(const std::string& path,
                                          const SnapshotReadOptions& options) {
  Result<ReadOnlyFile> file = ReadOnlyFile::Open(path);
  if (!file.ok()) return file.status();
  return LoadSnapshotFromFile(*file, options);
}

namespace {

Result<SnapshotInfo> Summarize(const ByteSource& source) {
  Result<Layout> parsed = ParseHeaderAndTable(source);
  if (!parsed.ok()) return parsed.status();
  SnapshotInfo info;
  info.version = parsed->version;
  info.flags = parsed->flags;
  info.file_length = source.size();
  for (const TableEntry& entry : parsed->entries) {
    SectionInfo section;
    section.kind = entry.kind;
    section.name = SectionName(entry.kind);
    section.offset = entry.offset;
    section.length = entry.length;
    section.crc = entry.crc;
    Result<uint32_t> crc = StreamCrc(source, entry.offset, entry.length);
    if (!crc.ok()) return crc.status();
    section.crc_ok = *crc == entry.crc;
    info.sections.push_back(section);
    if (entry.kind == kMeta && entry.length == kMetaLength) {
      // Diagnostic counts: reported even when the payload CRC fails, so
      // `info` remains useful on a damaged file.
      char payload[kMetaLength];
      Status read = source.Read(entry.offset, payload, kMetaLength);
      if (!read.ok()) return read;
      Result<Meta> meta = DecodeMeta(std::string_view(payload, kMetaLength));
      if (meta.ok()) {
        info.num_predicates = meta->num_predicates;
        info.num_constants = meta->num_constants;
        info.num_program_rules = meta->num_program_rules;
        info.num_atoms = meta->num_atoms;
        info.num_rule_instances = meta->num_rule_instances;
        info.total_facts = meta->total_facts;
      }
    }
  }
  return info;
}

}  // namespace

Result<SnapshotInfo> ReadSnapshotInfo(std::string_view bytes) {
  return Summarize(BufferSource(bytes));
}

Result<SnapshotInfo> ReadSnapshotInfo(const ReadOnlyFile& file) {
  return Summarize(FileSource(file));
}

Result<uint32_t> SnapshotFileCrc(std::string_view bytes) {
  Result<Layout> parsed = ParseHeaderAndTable(BufferSource(bytes));
  if (!parsed.ok()) return parsed.status();
  return FileCrc(*parsed);
}

}  // namespace storage
}  // namespace tiebreak
