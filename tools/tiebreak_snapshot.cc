// Snapshot store CLI: save a program+database (and its ground graph) into
// a generation-numbered snapshot store, verify every generation against
// its MANIFEST and the full hostile-input load path, dump a snapshot
// file's header and section table, or recover the newest valid
// generation. Exit status is the contract: `verify` exits non-zero when
// ANY generation is invalid, so the corruption-injection sweep in
// check.sh can drive it directly.
//
// Usage:
//   tiebreak_snapshot save <program.dl> <facts.db> <store-root> [--db-only]
//   tiebreak_snapshot verify <store-root>
//   tiebreak_snapshot info <snapshot.tbs>
//   tiebreak_snapshot load <store-root>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "ground/grounder.h"
#include "lang/parser.h"
#include "storage/snapshot.h"
#include "storage/snapshot_store.h"
#include "util/file_io.h"

namespace tiebreak {
namespace {

using storage::SnapshotStore;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tiebreak_snapshot save <program.dl> <facts.db> <store-root> "
      "[--db-only]\n"
      "  tiebreak_snapshot verify <store-root>\n"
      "  tiebreak_snapshot info <snapshot.tbs>\n"
      "  tiebreak_snapshot load <store-root>\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int RunSave(int argc, char** argv) {
  if (argc < 5) return Usage();
  bool db_only = false;
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--db-only") == 0) db_only = true;
  }
  Result<std::string> program_text = ReadFileToString(argv[2]);
  if (!program_text.ok()) return Fail(program_text.status());
  Result<Program> program = ParseProgram(*program_text);
  if (!program.ok()) return Fail(program.status());
  Result<std::string> facts_text = ReadFileToString(argv[3]);
  if (!facts_text.ok()) return Fail(facts_text.status());
  Result<Database> database = ParseDatabase(*facts_text, &*program);
  if (!database.ok()) return Fail(database.status());

  SnapshotStore store(argv[4]);
  Result<int64_t> generation(0);
  if (db_only) {
    generation = store.WriteGeneration(*program, &*database, nullptr);
  } else {
    Result<GroundingResult> ground = Ground(*program, *database);
    if (!ground.ok()) return Fail(ground.status());
    generation =
        store.WriteGeneration(*program, &*database, &ground->graph);
  }
  if (!generation.ok()) return Fail(generation.status());
  std::printf("published generation %" PRId64 " in %s\n", *generation,
              store.root().c_str());
  return 0;
}

int RunVerify(int argc, char** argv) {
  if (argc < 3) return Usage();
  SnapshotStore store(argv[2]);
  Result<std::vector<SnapshotStore::Generation>> generations =
      store.ListGenerations();
  if (!generations.ok()) return Fail(generations.status());
  int invalid = 0;
  for (const SnapshotStore::VerifyReport& report : store.VerifyAll()) {
    if (report.status.ok()) {
      std::printf("gen-%08" PRId64 "  OK\n", report.generation);
    } else {
      ++invalid;
      std::printf("gen-%08" PRId64 "  INVALID  %s\n", report.generation,
                  report.status.ToString().c_str());
    }
  }
  std::printf("%zu generation(s), %d invalid\n", generations->size(),
              invalid);
  return invalid == 0 ? 0 : 1;
}

int RunInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<ReadOnlyFile> file = ReadOnlyFile::Open(argv[2]);
  if (!file.ok()) return Fail(file.status());
  Result<storage::SnapshotInfo> info = storage::ReadSnapshotInfo(*file);
  if (!info.ok()) return Fail(info.status());
  std::printf("format version %u, flags 0x%x, %" PRIu64 " bytes\n",
              info->version, info->flags, info->file_length);
  std::printf(
      "%d predicates, %d constants, %d rules; %d atoms, %d rule "
      "instances, %" PRId64 " facts\n",
      info->num_predicates, info->num_constants, info->num_program_rules,
      info->num_atoms, info->num_rule_instances, info->total_facts);
  std::printf("%-22s %10s %10s %10s %6s\n", "section", "offset", "length",
              "crc32c", "check");
  bool all_ok = true;
  for (const storage::SectionInfo& section : info->sections) {
    std::printf("%-22s %10" PRIu64 " %10" PRIu64 "   %08x %6s\n",
                section.name, section.offset, section.length, section.crc,
                section.crc_ok ? "ok" : "BAD");
    all_ok = all_ok && section.crc_ok;
  }
  return all_ok ? 0 : 1;
}

int RunLoad(int argc, char** argv) {
  if (argc < 3) return Usage();
  SnapshotStore store(argv[2]);
  Result<SnapshotStore::LoadedGeneration> loaded = store.LoadLatest();
  if (!loaded.ok()) return Fail(loaded.status());
  for (const std::string& reason : loaded->skipped) {
    std::fprintf(stderr, "skipped %s\n", reason.c_str());
  }
  const storage::SnapshotContents& contents = loaded->contents;
  std::printf("recovered generation %" PRId64 ": %d predicates, %d "
              "constants, %d rules",
              loaded->generation, contents.num_predicates,
              contents.num_constants, contents.num_program_rules);
  if (contents.database.has_value()) {
    std::printf(", %" PRId64 " facts", contents.database->TotalFacts());
  }
  if (contents.graph.has_value()) {
    std::printf(", %d atoms, %d rule instances",
                contents.graph->num_atoms(), contents.graph->num_rules());
  }
  std::printf("\n");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "save") == 0) return RunSave(argc, argv);
  if (std::strcmp(argv[1], "verify") == 0) return RunVerify(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return RunInfo(argc, argv);
  if (std::strcmp(argv[1], "load") == 0) return RunLoad(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
