// EXP-SNAP — snapshot codec throughput: SerializeSnapshot and
// LoadSnapshotFromBuffer over the standard workloads, from the small
// win-move boards up to the Theorem 6 transfer-machine graph at t=64
// (~3.2M ground-graph nodes, a ~136MB snapshot). Items are snapshot
// bytes, so the rate column is codec bytes/sec; the load rows include
// the full hostile-input validation pass (header/table checks, payload
// CRCs, structural cross-checks, index rebuild) — that validation cost
// is exactly what this harness exists to keep honest.
//
// On the t=64 graph it also times the generation store the way a
// checkpointing process calls it: SnapshotStore::WriteGeneration (the
// file streamed from the arenas, fsync'd and published by rename) into an
// empty store under $TMPDIR (default /tmp), then LoadLatest (pread into
// the arrays, every check, the program cross-check). Those rows include
// the disk, so they report the median and the min/max of the reps rather
// than the best one.
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding
// in bench_util.h): emits BENCH_storage.json.
//
// Usage: bench_storage [output.json] [--reps N]
//   --reps N      repetitions per workload (codec rows best-of, store
//                 rows median; default 5)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ground/grounder.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "storage/snapshot.h"
#include "storage/snapshot_store.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// No recorded baseline yet: this harness lands with the storage layer
// itself. The committed BENCH_storage.json is the reference for the next
// PR that touches the codec.
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"", 0.0},
};

void MeasureCodec(const std::string& name, const Program& program,
                  const Database& database, const GroundGraph& graph,
                  int reps, std::vector<benchutil::Row>* rows) {
  Result<std::string> bytes =
      storage::SerializeSnapshot(program, &database, &graph);
  TIEBREAK_CHECK(bytes.ok()) << bytes.status().ToString();
  const int64_t size = static_cast<int64_t>(bytes->size());

  benchutil::Row save;
  save.name = "save_" + name;
  save.items = size;
  save.seconds = benchutil::BestOfReps(reps, [&] {
    WallTimer timer;
    Result<std::string> out =
        storage::SerializeSnapshot(program, &database, &graph);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(out.ok());
    return seconds;
  });
  save.items_per_sec = size / save.seconds;
  rows->push_back(save);

  storage::SnapshotReadOptions read;
  read.program = &program;
  benchutil::Row load;
  load.name = "load_" + name;
  load.items = size;
  load.seconds = benchutil::BestOfReps(reps, [&] {
    WallTimer timer;
    Result<storage::SnapshotContents> in =
        storage::LoadSnapshotFromBuffer(*bytes, read);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(in.ok()) << in.status().ToString();
    return seconds;
  });
  load.items_per_sec = size / load.seconds;
  rows->push_back(load);
}

void MeasureStore(const std::string& name, const Program& program,
                  const Database& database, const GroundGraph& graph,
                  int reps, std::vector<benchutil::Row>* rows) {
  const char* base = std::getenv("TMPDIR");
  const std::string root = std::string(base != nullptr ? base : "/tmp") +
                           "/bench_storage_store-" +
                           std::to_string(static_cast<long>(::getpid()));
  storage::SnapshotStore store(root);
  storage::SnapshotReadOptions read;
  read.program = &program;
  std::vector<double> writes;
  std::vector<double> loads;
  int64_t size = 0;
  for (int rep = 0; rep < reps; ++rep) {
    TIEBREAK_CHECK(RemoveAll(root).ok());
    WallTimer write_timer;
    Result<int64_t> generation =
        store.WriteGeneration(program, &database, &graph);
    writes.push_back(write_timer.Seconds());
    TIEBREAK_CHECK(generation.ok()) << generation.status().ToString();
    size = FileSize(root + "/gen-00000001/snapshot.tbs").value();
    WallTimer load_timer;
    Result<storage::SnapshotStore::LoadedGeneration> loaded =
        store.LoadLatest(read);
    loads.push_back(load_timer.Seconds());
    TIEBREAK_CHECK(loaded.ok()) << loaded.status().ToString();
  }
  TIEBREAK_CHECK(RemoveAll(root).ok());

  benchutil::Row write;
  write.name = "store_write_" + name;
  write.items = size;
  benchutil::SetMedianAndSpread(writes, &write);
  write.items_per_sec = size / write.seconds;
  rows->push_back(write);
  benchutil::Row load;
  load.name = "store_load_latest_" + name;
  load.items = size;
  benchutil::SetMedianAndSpread(loads, &load);
  load.items_per_sec = size / load.seconds;
  rows->push_back(load);
}

GroundGraph GroundGraphOf(const Program& program, const Database& database,
                          GroundingOptions options = {}) {
  Result<GroundingResult> g = Ground(program, database, options);
  TIEBREAK_CHECK(g.ok()) << g.status().ToString();
  return std::move(g->graph);
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_storage.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (argv[i][0] != '-') {
      json_path = argv[i];
    }
  }

  std::vector<benchutil::Row> rows;
  {
    Program program = WinMoveProgram();
    Rng rng(1);
    Database db = *RandomDigraphDatabase(&program, "move", 4096, 8192, &rng);
    const GroundGraph graph = GroundGraphOf(program, db);
    MeasureCodec("winmove_4096", program, db, graph, reps, &rows);
  }
  {
    Rng rng(9);
    RandomProgramOptions options;
    options.arity = 1;
    options.num_rules = 10;
    Program program = RandomProgram(&rng, options);
    Database db = *RandomEdbDatabase(&program, 64, 0.4, &rng);
    const GroundGraph graph = GroundGraphOf(program, db);
    MeasureCodec("random_unary_64", program, db, graph, reps, &rows);
  }
  {
    const CounterMachine machine = MakeTransferMachine(3);
    CmReduction reduction = CounterMachineToProgram(machine);
    const Database db = NaturalDatabase(&reduction, 64).value();
    GroundingOptions options;
    options.max_instances = 50'000'000;
    const GroundGraph graph =
        GroundGraphOf(reduction.program, db, options);
    MeasureCodec("theorem6_transfer_t64", reduction.program, db, graph,
                 reps, &rows);
    MeasureStore("theorem6_transfer_t64", reduction.program, db, graph, reps,
                 &rows);
  }

  benchutil::PrintTable(rows, kBaseline, "bytes");
  benchutil::WriteJson(json_path, rows, kBaseline, "bytes",
                       "bytes_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
