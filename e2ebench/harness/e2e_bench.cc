// One process of the end-to-end benchmark; see ../README.md for the
// workloads, the metrics and why each was chosen. run.py starts this
// program one or more times per run and pools what the processes print.
//
// Usage:
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--scratch DIR] [--spans PATH]
//             [--corrupt-one-answer]
//
//   --workload  batch_winmove_serial | batch_transfer_par4 | serve_mixed
//   --seed      seeds every generated input and the query stream
//   --seconds   measuring time of this process (set-up and the one
//               unmeasured warm-up operation after it not included)
//   --trace 1   measure half the time untraced, half traced, then time the
//               extra per-layer calls (thread-count speedups) and report
//               per-layer metrics; --spans writes every span as JSON lines
//   --size      smoke shrinks every input so a run takes seconds
//   --scratch   directory for snapshot stores (batch_transfer_par4)
//   --corrupt-one-answer  drops one answer of the first measured operation,
//               so the oracle must fail the run (tests the oracle)
//
//   e2e_bench --parse-curve MAX_FACTS [--seed N]
//
// times ParseDatabase once on random boards of 50k, 100k, ... facts up to
// MAX_FACTS and prints the curve as one JSON line.
//
// Prints one JSON line with the raw samples of this process. Exit code 0
// when every answer matched its oracle, 1 on a wrong or failed answer, 2 on
// bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/query.h"
#include "core/query_plan.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "ground/grounder.h"
#include "inputs.h"
#include "lang/parser.h"
#include "lang/transform.h"
#include "storage/snapshot_store.h"
#include "trace.h"
#include "util/execution_context.h"
#include "util/span.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

using tiebreak::AtomId;
using tiebreak::ConstId;
using tiebreak::Database;
using tiebreak::ExecutionContext;
using tiebreak::GroundGraph;
using tiebreak::InterpreterOptions;
using tiebreak::InterpreterResult;
using tiebreak::PredId;
using tiebreak::Program;
using tiebreak::QueryResult;
using tiebreak::Result;
using tiebreak::Status;
using tiebreak::Truth;
using tiebreak::Tuple;

constexpr int kParallelThreads = 4;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".";
  std::string spans_path;
  bool corrupt_one_answer = false;
  int64_t parse_curve_facts = 0;
};

// What one process measured.
struct Report {
  int32_t threads = 1;
  double setup_s = 0;
  // Operation class ("pipeline", "sg", "win") -> latencies in seconds of
  // the untraced measured operations.
  std::map<std::string, std::vector<double>> latencies;
  // Same, traced (trace runs only).
  std::map<std::string, std::vector<double>> traced_latencies;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  int64_t snapshot_bytes = 0;
  // Peak resident memory when the set-up operation returned, before its
  // answers were checked.
  int64_t setup_rss_kb = 0;
  double measured_s = 0;  // wall time of the untraced measured loop
  // Per-layer metrics and self seconds per layer over the traced
  // operations (trace runs only).
  std::map<std::string, double> layers;
  std::map<std::string, double> self_s;

  void Record(const Status& status) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(status.ToString());
  }
};

double Seconds(int64_t start_ns, int64_t end_ns) {
  return (end_ns - start_ns) * 1e-9;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Median duration of the spans called `name`, preferring spans of measured
// operations (op >= 0) over set-up spans.
double MedianSpan(const Tracer& tracer, const char* name) {
  std::vector<double> measured, all;
  for (const SpanRecord& span : tracer.spans()) {
    if (std::strcmp(span.name, name) != 0) continue;
    all.push_back(span.seconds());
    if (span.op >= 0) measured.push_back(span.seconds());
  }
  return Median(measured.empty() ? all : measured);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Integer suffix of a generated constant name ("n42" -> 42, "17" -> 17).
int32_t NodeIndex(const Program& program, ConstId c) {
  const std::string& name = program.constant_name(c);
  const size_t digits = name.find_first_of("0123456789");
  return digits == std::string::npos ? -1 : std::atoi(name.c_str() + digits);
}

// Runs `op` again and again, starting another one while less than `seconds`
// have passed, so at least once. Returns the wall time spent.
template <typename Op>
double MeasureLoop(double seconds, Op op) {
  const int64_t start = NowNs();
  for (int64_t i = 0; i == 0 || Seconds(start, NowNs()) < seconds; ++i) op(i);
  return Seconds(start, NowNs());
}

// ---------------------------------------------------------------------------
// Batch workloads: text -> parse -> Ground -> [snapshot write + recover] ->
// WellFounded -> TieBreaking(kWellFounded) -> EvaluateQuery.
// ---------------------------------------------------------------------------

struct BatchConfig {
  std::string program_text;
  std::string edb_text;
  std::string query;
  int32_t threads = 1;
  bool with_storage = false;
  std::string store_root;
};

// Everything one pipeline produced, kept for the oracles.
struct PipelineRun {
  std::optional<Program> program;
  std::optional<Database> database;
  std::optional<GroundGraph> graph;
  int64_t universe = 0;
  InterpreterResult wf;
  InterpreterResult wftb;
  QueryResult answers;
  int64_t ground_steps = 0;
  int64_t wf_steps = 0;
};

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

Status RunPipeline(const BatchConfig& config, Tracer* tracer,
                   PipelineRun* run) {
  // Unlimited contexts only count steps; the untraced runs pass none.
  ExecutionContext ground_context, wf_context;
  const bool traced = tracer->enabled();
  {
    ScopedSpan span(tracer, "ParseProgram", "lang");
    Result<Program> program = tiebreak::ParseProgram(config.program_text);
    if (!program.ok()) return program.status();
    run->program.emplace(std::move(*program));
  }
  Program& program = *run->program;
  {
    ScopedSpan span(tracer, "ParseDatabase", "lang");
    Result<Database> database =
        tiebreak::ParseDatabase(config.edb_text, &program);
    if (!database.ok()) return database.status();
    run->database.emplace(std::move(*database));
  }
  {
    tiebreak::GroundingOptions options;
    options.num_threads = config.threads;
    if (traced) options.context = &ground_context;
    ScopedSpan span(tracer, "Ground", "ground");
    Result<tiebreak::GroundingResult> grounding =
        tiebreak::Ground(program, *run->database, options);
    if (!grounding.ok()) return grounding.status();
    run->universe = static_cast<int64_t>(grounding->universe.size());
    run->graph.emplace(std::move(grounding->graph));
  }
  run->ground_steps = ground_context.steps_charged();

  if (config.with_storage) {
    // A checkpoint as a restarting process would use it: publish the
    // database and graph (every file and directory fsync'd by the store),
    // drop them, and recover the newest generation fully validated.
    tiebreak::storage::SnapshotStore store(config.store_root);
    int64_t generation = 0;
    {
      ScopedSpan span(tracer, "WriteGeneration", "storage");
      Result<int64_t> written =
          store.WriteGeneration(program, &*run->database, &*run->graph);
      if (!written.ok()) return written.status();
      generation = *written;
    }
    run->graph.reset();
    run->database.reset();
    {
      tiebreak::storage::SnapshotReadOptions options;
      options.program = &program;
      ScopedSpan span(tracer, "LoadLatest", "storage");
      Result<tiebreak::storage::SnapshotStore::LoadedGeneration> loaded =
          store.LoadLatest(options);
      if (!loaded.ok()) return loaded.status();
      if (loaded->generation != generation ||
          !loaded->contents.database.has_value() ||
          !loaded->contents.graph.has_value()) {
        return Status::DataLoss("recovered a different generation");
      }
      run->database.emplace(std::move(*loaded->contents.database));
      run->graph.emplace(std::move(*loaded->contents.graph));
    }
  }

  InterpreterOptions wf_options;
  wf_options.num_threads = config.threads;
  if (traced) wf_options.context = &wf_context;
  {
    ScopedSpan span(tracer, "WellFounded", "core");
    run->wf = tiebreak::WellFounded(program, *run->database, *run->graph,
                                    wf_options);
  }
  run->wf_steps = wf_context.steps_charged();
  if (!run->wf.truncation.ok()) return run->wf.truncation;
  {
    InterpreterOptions options;
    options.num_threads = config.threads;
    ScopedSpan span(tracer, "TieBreaking", "core");
    run->wftb = tiebreak::TieBreaking(program, *run->database, *run->graph,
                                      tiebreak::TieBreakingMode::kWellFounded,
                                      options);
  }
  if (!run->wftb.truncation.ok()) return run->wftb.truncation;
  {
    ScopedSpan span(tracer, "EvaluateQuery", "core");
    Result<QueryResult> answers =
        tiebreak::EvaluateQuery(&program, *run->graph, run->wftb.values,
                                config.query);
    if (!answers.ok()) return answers.status();
    run->answers = std::move(*answers);
  }
  return run->answers.truncation;
}

// The win/move oracle: WF values against retrograde analysis, and the WFTB
// answers against a reference WFTB model whose certificate replayed.
class WinMoveOracle {
 public:
  explicit WinMoveOracle(const Board& board) : board_(board) {}

  Status Check(const PipelineRun& run) {
    const Program& program = *run.program;
    const GroundGraph& graph = *run.graph;
    const PredId win = program.LookupPredicate("win");
    if (win < 0) return Status::Internal("no win predicate");
    // WF values, position by position.
    for (int32_t v = 0; v < board_.nodes; ++v) {
      const ConstId c = program.LookupConstant("n" + std::to_string(v));
      const AtomId atom = c < 0 ? -1 : graph.atoms().Lookup(win, &c, 1);
      const Truth got = atom < 0 ? Truth::kFalse : run.wf.values[atom];
      const Truth want = board_.values[v] == tiebreak::GameValue::kWon
                             ? Truth::kTrue
                         : board_.values[v] == tiebreak::GameValue::kLost
                             ? Truth::kFalse
                             : Truth::kUndef;
      if (got != want) {
        return Status::Internal("WF value of win(n" + std::to_string(v) +
                                ") disagrees with retrograde analysis");
      }
    }
    // The WFTB answers, position by position.
    std::vector<Truth> answers(board_.nodes, Truth::kFalse);
    for (const auto& [bindings, truth] :
         {std::pair(&run.answers.true_bindings, Truth::kTrue),
          std::pair(&run.answers.undefined_bindings, Truth::kUndef)}) {
      for (const Tuple& t : *bindings) {
        const int32_t v = NodeIndex(program, t[0]);
        if (v < 0 || v >= board_.nodes) {
          return Status::Internal("win(X) answer is not a position");
        }
        answers[v] = truth;
      }
    }
    if (reference_.empty()) {
      Status certified = Certify(run, win);
      if (!certified.ok()) return certified;
    }
    if (answers != reference_) {
      return Status::Internal("win(X) answers differ from the certified "
                              "WFTB model");
    }
    return Status::Ok();
  }

 private:
  // Re-runs WFTB serially with a certificate on this pipeline's graph,
  // replays the certificate, and keeps the model as the reference.
  Status Certify(const PipelineRun& run, PredId win) {
    const Program& program = *run.program;
    tiebreak::Certificate certificate;
    const InterpreterResult certified = tiebreak::TieBreaking(
        program, *run.database, *run.graph,
        tiebreak::TieBreakingMode::kWellFounded, nullptr, &certificate);
    Status verified = tiebreak::VerifyCertificate(
        program, *run.database, *run.graph,
        tiebreak::TieBreakingMode::kWellFounded, certificate,
        certified.values);
    if (!verified.ok()) return verified;
    if (certified.values != run.wftb.values) {
      return Status::Internal("WFTB model differs from the certified run");
    }
    reference_.assign(board_.nodes, Truth::kFalse);
    for (int32_t v = 0; v < board_.nodes; ++v) {
      const ConstId c = program.LookupConstant("n" + std::to_string(v));
      const AtomId atom = c < 0 ? -1 : run.graph->atoms().Lookup(win, &c, 1);
      if (atom >= 0) reference_[v] = certified.values[atom];
    }
    return Status::Ok();
  }

  const Board& board_;
  std::vector<Truth> reference_;
};

// The transfer oracle: state(T, S) answers are exactly the machine's run.
Status CheckTransfer(const TransferInput& input, const PipelineRun& run) {
  if (!run.answers.undefined_bindings.empty()) {
    return Status::Internal("state(T, S) has undefined answers");
  }
  std::vector<std::pair<int32_t, int32_t>> got;
  for (const Tuple& t : run.answers.true_bindings) {
    got.emplace_back(NodeIndex(*run.program, t[0]),
                     NodeIndex(*run.program, t[1]));
  }
  std::sort(got.begin(), got.end());
  if (got != input.trajectory) {
    return Status::Internal("state(T, S) answers differ from "
                            "CounterMachine::Run");
  }
  return Status::Ok();
}

// Times `call` at 1 and at kParallelThreads threads, `reps` times each, and
// returns median(1 thread) / median(kParallelThreads threads).
template <typename Call>
double ParallelSpeedup(int reps, Call call) {
  std::vector<double> serial, parallel;
  for (int r = 0; r < reps; ++r) {
    for (int32_t threads : {1, kParallelThreads}) {
      const int64_t start = NowNs();
      call(threads);
      (threads == 1 ? serial : parallel).push_back(Seconds(start, NowNs()));
    }
  }
  return Median(serial) / Median(parallel);
}

// The per-layer calls a pipeline cannot time for itself: the same Ground,
// WellFounded and TieBreaking inputs at 1 and at kParallelThreads threads.
void MeasureSpeedups(const BatchConfig& config, Report* report) {
  constexpr int kReps = 2;
  Result<Program> program = tiebreak::ParseProgram(config.program_text);
  TIEBREAK_CHECK(program.ok()) << program.status().ToString();
  Result<Database> database =
      tiebreak::ParseDatabase(config.edb_text, &*program);
  TIEBREAK_CHECK(database.ok()) << database.status().ToString();
  std::optional<GroundGraph> ground_graph;
  report->layers["ground.parallel_speedup"] =
      ParallelSpeedup(kReps, [&](int32_t threads) {
        tiebreak::GroundingOptions options;
        options.num_threads = threads;
        Result<tiebreak::GroundingResult> grounding =
            tiebreak::Ground(*program, *database, options);
        TIEBREAK_CHECK(grounding.ok()) << grounding.status().ToString();
        ground_graph.reset();
        ground_graph.emplace(std::move(grounding->graph));
      });
  const GroundGraph& graph = *ground_graph;
  report->layers["core.wf_parallel_speedup"] =
      ParallelSpeedup(kReps, [&](int32_t threads) {
        InterpreterOptions options;
        options.num_threads = threads;
        tiebreak::WellFounded(*program, *database, graph, options);
      });
  report->layers["core.wftb_parallel_speedup"] =
      ParallelSpeedup(kReps, [&](int32_t threads) {
        InterpreterOptions options;
        options.num_threads = threads;
        tiebreak::TieBreaking(*program, *database, graph,
                              tiebreak::TieBreakingMode::kWellFounded,
                              options);
      });
}

// Drops one answer so the oracle has something to catch.
void CorruptAnswers(QueryResult* answers) {
  if (!answers->true_bindings.empty()) {
    answers->true_bindings.pop_back();
  } else {
    answers->true_bindings.push_back(Tuple(answers->variables.size(), 0));
  }
}

void RunBatch(const Options& options, Report* report) {
  const bool winmove = options.workload == "batch_winmove_serial";
  BatchConfig config;
  std::optional<Board> board;
  std::optional<TransferInput> transfer;
  if (winmove) {
    board.emplace(options.smoke ? MakeBoard(2'000, 4'000, options.seed)
                                : MakeBoard(100'000, 200'000, options.seed));
    config.program_text = board->program_text;
    config.edb_text = board->edb_text;
    config.query = "win(X)";
    config.threads = 1;
  } else {
    transfer.emplace(MakeTransfer(3, options.smoke ? 16 : 64, options.seed));
    config.program_text = transfer->program_text;
    config.edb_text = transfer->edb_text;
    config.query = "state(T, S)";
    config.threads = kParallelThreads;
    config.with_storage = true;
    config.store_root = options.scratch + "/store-" +
                        std::to_string(static_cast<long>(getpid()));
  }
  report->threads = config.threads;
  std::optional<WinMoveOracle> winmove_oracle;
  if (winmove) winmove_oracle.emplace(*board);

  Tracer tracer(options.trace);
  std::map<std::string, double>& m = report->layers;
  int64_t facts = 0;
  // Runs, checks and cleans up one pipeline; returns its latency.
  auto pipeline = [&](int64_t op, bool corrupt) {
    tracer.set_op(op);
    if (config.with_storage) std::filesystem::remove_all(config.store_root);
    PipelineRun run;
    const int64_t start = NowNs();
    Status status = RunPipeline(config, &tracer, &run);
    const double latency = Seconds(start, NowNs());
    // The first pipeline is the set-up; its peak leaves out the oracle.
    if (report->setup_rss_kb == 0) report->setup_rss_kb = PeakRssKb();
    if (status.ok()) {
      if (corrupt) CorruptAnswers(&run.answers);
      status = winmove ? winmove_oracle->Check(run)
                       : CheckTransfer(*transfer, run);
    }
    report->Record(status);
    if (config.with_storage) {
      report->snapshot_bytes = DirectoryBytes(config.store_root);
      std::filesystem::remove_all(config.store_root);
    }
    if (tracer.enabled() && status.ok()) {
      // Exact counts of the newest traced pipeline.
      facts = run.database->TotalFacts();
      m["ground.steps"] = static_cast<double>(run.ground_steps);
      m["ground.atoms"] = run.graph->num_atoms();
      m["ground.rule_instances"] = run.graph->num_rules();
      m["ground.universe"] = static_cast<double>(run.universe);
      m["core.wf_steps"] = static_cast<double>(run.wf_steps);
      m["core.wf_unfounded_rounds"] = run.wf.unfounded_rounds;
      m["core.wftb_ties_broken"] = run.wftb.ties_broken;
      m["core.wftb_iterations"] = run.wftb.iterations;
      m["core.undefined_atoms"] =
          static_cast<double>(run.wftb.CountUndefined());
    }
    return latency;
  };

  // Set-up: the first, cold pipeline of the process. The second one still
  // runs visibly slower (the allocator settles) and is not measured.
  report->setup_s = pipeline(-1, false);
  pipeline(-1, false);

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const bool trace = tracer.enabled();
  tracer.set_enabled(false);
  const double cpu_start = CpuSeconds();
  const double wall = MeasureLoop(untraced_seconds, [&](int64_t i) {
    report->latencies["pipeline"].push_back(
        pipeline(i, options.corrupt_one_answer && i == 0));
  });
  const double cpu = CpuSeconds() - cpu_start;
  report->measured_s = wall;
  if (!trace) return;

  tracer.set_enabled(true);
  const int64_t first_traced = 1'000'000;
  MeasureLoop(options.seconds / 2, [&](int64_t i) {
    report->traced_latencies["pipeline"].push_back(
        pipeline(first_traced + i, false));
  });
  const double parse_s = MedianSpan(tracer, "ParseDatabase");
  m["lang.parse_db_s"] = parse_s;
  m["lang.parse_db_facts_per_s"] = parse_s > 0 ? facts / parse_s : 0;
  m["ground.ground_s"] = MedianSpan(tracer, "Ground");
  m["storage.write_s"] = MedianSpan(tracer, "WriteGeneration");
  m["storage.recover_s"] = MedianSpan(tracer, "LoadLatest");
  const double mb = report->snapshot_bytes / 1e6;
  m["storage.write_mb_per_s"] =
      m["storage.write_s"] > 0 ? mb / m["storage.write_s"] : 0;
  m["storage.recover_mb_per_s"] =
      m["storage.recover_s"] > 0 ? mb / m["storage.recover_s"] : 0;
  m["core.wf_s"] = MedianSpan(tracer, "WellFounded");
  m["core.wftb_s"] = MedianSpan(tracer, "TieBreaking");
  m["core.answer_lookup_ms"] = 1e3 * MedianSpan(tracer, "EvaluateQuery");
  m["proc.cpu_util"] = cpu / (wall * config.threads);
  m["trace.overhead"] = Median(report->traced_latencies["pipeline"]) /
                        Median(report->latencies["pipeline"]);
  report->self_s = tracer.SelfSecondsByLayer();
  if (!options.spans_path.empty()) tracer.WriteJsonLines(options.spans_path);
  MeasureSpeedups(config, report);
}

// ---------------------------------------------------------------------------
// serve_mixed: one resident QueryPlanner (kDemand, 1 thread) answering a
// seeded closed-loop stream of sg(tK, Y) and win(cJ) point queries.
// ---------------------------------------------------------------------------

struct Query {
  bool is_sg = false;
  int32_t node = 0;
  std::string pattern;
};

// About four sg queries (K uniform over the tree) to one win query (J
// among the last 100 chain nodes).
Query NextQuery(const ServeInput& input, SeededRng* rng) {
  Query q;
  q.is_sg = rng->Below(5) != 0;
  if (q.is_sg) {
    q.node = 1 + static_cast<int32_t>(rng->Below(TreeNodes(input.tree_depth)));
    q.pattern = "sg(t" + std::to_string(q.node) + ", Y)";
  } else {
    const int32_t tail = std::min(100, input.chain_nodes);
    q.node = input.chain_nodes - 1 - static_cast<int32_t>(rng->Below(tail));
    q.pattern = "win(c" + std::to_string(q.node) + ")";
  }
  return q;
}

// The closed forms: sg(tK, Y) holds for every other node at K's depth;
// win(cJ) by chain parity.
Status CheckServeAnswer(const ServeInput& input, const Program& program,
                        const Query& q, const QueryResult& answer) {
  if (!answer.truncation.ok()) return answer.truncation;
  if (!answer.undefined_bindings.empty()) {
    return Status::Internal(q.pattern + " has undefined answers");
  }
  if (!q.is_sg) {
    const bool want = ChainWins(input.chain_nodes, q.node);
    if (answer.true_bindings.size() != (want ? 1u : 0u)) {
      return Status::Internal(q.pattern + " disagrees with chain parity");
    }
    return Status::Ok();
  }
  const int32_t depth = HeapDepth(q.node);
  std::set<int32_t> seen;
  for (const Tuple& t : answer.true_bindings) {
    const int32_t y = NodeIndex(program, t[0]);
    if (y == q.node || y < 1 || HeapDepth(y) != depth || !seen.insert(y).second) {
      return Status::Internal(q.pattern + " has a wrong answer");
    }
  }
  if (static_cast<int64_t>(seen.size()) != (int64_t{1} << depth) - 1) {
    return Status::Internal(q.pattern + " misses answers");
  }
  return Status::Ok();
}

// Re-executes queries through the public calls QueryPlanner::Execute
// composes, one span each, so the traced run sees the planner's phases:
// MagicSetTransform (once per adornment) -> EvaluateStratified on the
// demand program -> Ground on the guarded program -> WellFounded ->
// EvaluateQuery.
class PlannerReplay {
 public:
  PlannerReplay(const Program& program, const Database& database)
      : program_(program), database_(database) {}

  Result<QueryResult> Run(const std::string& pattern, Tracer* tracer) {
    ScopedSpan replay_span(tracer, "Replay", "bench");
    Result<tiebreak::AtomPattern> parsed =
        tiebreak::ParseAtomPattern(pattern, &program_);
    if (!parsed.ok()) return parsed.status();
    std::string adornment;
    for (const tiebreak::Term& term : parsed->atom.args) {
      adornment += term.is_constant() ? 'b' : 'f';
    }
    const auto key = std::make_pair(parsed->atom.predicate, adornment);
    auto it = plans_.find(key);
    if (it == plans_.end()) {
      Plan plan;
      {
        ScopedSpan span(tracer, "MagicSetTransform", "lang");
        Result<tiebreak::DemandTransform> transform =
            tiebreak::MagicSetTransform(program_, key.first, adornment);
        if (!transform.ok()) return transform.status();
        plan.transform = std::move(*transform);
      }
      {
        // The planner copies Δ into the phase-2 database once per plan.
        ScopedSpan span(tracer, "PrepareDatabase", "lang");
        plan.prepared.emplace(plan.transform.guarded);
        for (PredId p = 0; p < program_.num_predicates(); ++p) {
          const int64_t rows = database_.NumFacts(p);
          if (rows == 0) continue;
          const ConstId* data = database_.FactData(p);
          plan.prepared->BulkLoadFlat(
              p, std::vector<ConstId>(data, data + rows * database_.arity(p)));
        }
      }
      it = plans_.emplace(key, std::move(plan)).first;
    }
    Plan& plan = it->second;
    const tiebreak::DemandTransform& t = plan.transform;

    std::vector<ConstId> seed;
    for (int32_t pos : t.seed_positions) {
      seed.push_back(parsed->atom.args[pos].index);
    }
    std::vector<tiebreak::FactSpan> spans(t.demand.num_predicates());
    for (PredId p = 0; p < program_.num_predicates(); ++p) {
      if (t.edb_used[p]) spans[p] = database_.Facts(p);
    }
    spans[t.seed] = tiebreak::FactSpan{seed.data(), 1};
    std::optional<Database> magic;
    {
      tiebreak::EngineOptions options;
      options.materialize_edb = false;
      tiebreak::EngineStats stats;
      ScopedSpan span(tracer, "EvaluateStratified", "engine");
      Result<Database> evaluated = tiebreak::EvaluateStratified(
          t.demand,
          tiebreak::Span<const tiebreak::FactSpan>(spans.data(), spans.size()),
          options, &stats);
      if (!evaluated.ok()) return evaluated.status();
      magic.emplace(std::move(*evaluated));
      tuples_derived_.push_back(static_cast<double>(stats.tuples_derived));
      rule_applications_.push_back(
          static_cast<double>(stats.rule_applications));
    }
    {
      ScopedSpan span(tracer, "LoadMagic", "lang");
      for (PredId p = 0; p < program_.num_predicates(); ++p) {
        const PredId m = t.magic[p];
        if (m < 0) continue;
        plan.prepared->ClearRelation(m);
        const int64_t rows = magic->NumFacts(m);
        if (rows == 0) continue;
        if (magic->arity(m) == 0) {
          plan.prepared->InsertProposition(m);
          continue;
        }
        const ConstId* data = magic->FactData(m);
        plan.prepared->BulkLoadFlat(
            m, std::vector<ConstId>(data, data + rows * magic->arity(m)));
      }
    }
    ExecutionContext ground_context, wf_context;
    Result<tiebreak::GroundingResult> grounding = [&] {
      tiebreak::GroundingOptions options;
      options.context = &ground_context;
      ScopedSpan span(tracer, "Ground", "ground");
      return tiebreak::Ground(t.guarded, *plan.prepared, options);
    }();
    if (!grounding.ok()) return grounding.status();
    counts_["ground.steps"].push_back(ground_context.steps_charged());
    counts_["ground.atoms"].push_back(grounding->graph.num_atoms());
    counts_["ground.rule_instances"].push_back(grounding->graph.num_rules());
    counts_["ground.universe"].push_back(grounding->universe.size());
    InterpreterResult wf;
    {
      InterpreterOptions options;
      options.context = &wf_context;
      ScopedSpan span(tracer, "WellFounded", "core");
      wf = tiebreak::WellFounded(t.guarded, *plan.prepared, grounding->graph,
                                 options);
    }
    if (!wf.truncation.ok()) return wf.truncation;
    counts_["core.wf_steps"].push_back(wf_context.steps_charged());
    counts_["core.wf_unfounded_rounds"].push_back(wf.unfounded_rounds);
    counts_["core.undefined_atoms"].push_back(wf.CountUndefined());
    ScopedSpan span(tracer, "EvaluateQuery", "core");
    return tiebreak::EvaluateQuery(&plan.transform.guarded, grounding->graph,
                                   wf.values, pattern);
  }

  // Mean per replayed query of each recorded count.
  void Summarize(std::map<std::string, double>* m) const {
    for (const auto& [name, values] : counts_) (*m)[name] = Mean(values);
    (*m)["engine.tuples_derived"] = Mean(tuples_derived_);
    (*m)["engine.rule_applications"] = Mean(rule_applications_);
  }

 private:
  struct Plan {
    tiebreak::DemandTransform transform;
    std::optional<Database> prepared;
  };

  Program program_;
  const Database& database_;
  std::map<std::pair<PredId, std::string>, Plan> plans_;
  std::vector<double> tuples_derived_, rule_applications_;
  std::map<std::string, std::vector<double>> counts_;
};

bool SameAnswers(QueryResult a, QueryResult b) {
  for (QueryResult* r : {&a, &b}) {
    std::sort(r->true_bindings.begin(), r->true_bindings.end());
    std::sort(r->undefined_bindings.begin(), r->undefined_bindings.end());
  }
  return a.true_bindings == b.true_bindings &&
         a.undefined_bindings == b.undefined_bindings;
}

void RunServe(const Options& options, Report* report) {
  const ServeInput input = options.smoke
                               ? MakeServe(2'000, 5, options.seed)
                               : MakeServe(50'000, 10, options.seed);
  report->threads = 1;
  Tracer tracer(options.trace);
  tiebreak::QueryOptions query_options;
  query_options.mode = tiebreak::QueryMode::kDemand;
  query_options.num_threads = 1;
  SeededRng stream(options.seed ^ 0x5e12e5e12e5e12e5ULL);

  // Set-up: text -> planner -> one warm-up query per adornment.
  const int64_t setup_start = NowNs();
  tracer.set_op(-1);
  std::optional<Program> program;
  {
    ScopedSpan span(&tracer, "ParseProgram", "lang");
    Result<Program> parsed = tiebreak::ParseProgram(input.program_text);
    TIEBREAK_CHECK(parsed.ok()) << parsed.status().ToString();
    program.emplace(std::move(*parsed));
  }
  std::optional<Database> database;
  {
    ScopedSpan span(&tracer, "ParseDatabase", "lang");
    Result<Database> parsed =
        tiebreak::ParseDatabase(input.edb_text, &*program);
    TIEBREAK_CHECK(parsed.ok()) << parsed.status().ToString();
    database.emplace(std::move(*parsed));
  }
  tiebreak::QueryPlanner planner(*program, *database);
  std::vector<Query> warmups;
  while (warmups.size() < 2) {
    Query q = NextQuery(input, &stream);
    if (warmups.empty() || warmups[0].is_sg != q.is_sg) {
      warmups.push_back(std::move(q));
    }
  }
  std::vector<Result<QueryResult>> warmup_answers;
  for (const Query& q : warmups) {
    ScopedSpan span(&tracer, "Execute", "core.query_plan");
    warmup_answers.push_back(planner.Execute(q.pattern, query_options));
  }
  report->setup_s = Seconds(setup_start, NowNs());
  report->setup_rss_kb = PeakRssKb();
  for (size_t i = 0; i < warmups.size(); ++i) {
    const Result<QueryResult>& answer = warmup_answers[i];
    report->Record(answer.ok()
                       ? CheckServeAnswer(input, *program, warmups[i], *answer)
                       : answer.status());
  }

  PlannerReplay replay(*program, *database);
  SeededRng sample(options.seed ^ 0x0dd5a3b1e0dd5a3bULL);
  std::vector<double> execute_s, replay_s;
  // Serves, checks and (traced, for a seeded quarter) replays one query.
  auto serve = [&](int64_t op, bool corrupt,
                   std::map<std::string, std::vector<double>>* latencies) {
    tracer.set_op(op);
    const Query q = NextQuery(input, &stream);
    Result<QueryResult> answer = Status::Internal("not run");
    const int64_t start = NowNs();
    {
      ScopedSpan span(&tracer, "Execute", "core.query_plan");
      answer = planner.Execute(q.pattern, query_options);
    }
    const double latency = Seconds(start, NowNs());
    (*latencies)[q.is_sg ? "sg" : "win"].push_back(latency);
    if (!answer.ok()) {
      report->Record(answer.status());
      return;
    }
    if (corrupt) CorruptAnswers(&*answer);
    Status status = CheckServeAnswer(input, *program, q, *answer);
    if (status.ok() && tracer.enabled() && sample.Below(4) == 0) {
      const int64_t replay_start = NowNs();
      Result<QueryResult> replayed = replay.Run(q.pattern, &tracer);
      replay_s.push_back(Seconds(replay_start, NowNs()));
      execute_s.push_back(latency);
      if (!replayed.ok()) {
        status = replayed.status();
      } else if (!SameAnswers(*replayed, *answer)) {
        status = Status::Internal("replay of " + q.pattern +
                                  " differs from Execute");
      }
    }
    report->Record(status);
  };

  // One more query, not measured, like the batch warm-up pipeline.
  {
    std::map<std::string, std::vector<double>> unmeasured;
    serve(-1, false, &unmeasured);
  }

  const double untraced_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const bool trace = tracer.enabled();
  tracer.set_enabled(false);
  const double cpu_start = CpuSeconds();
  const double wall = MeasureLoop(untraced_seconds, [&](int64_t i) {
    serve(i, options.corrupt_one_answer && i == 0, &report->latencies);
  });
  const double cpu = CpuSeconds() - cpu_start;
  report->measured_s = wall;
  if (!trace) return;

  tracer.set_enabled(true);
  const int64_t first_traced = 1'000'000;
  MeasureLoop(options.seconds / 2, [&](int64_t i) {
    serve(first_traced + i, false, &report->traced_latencies);
  });
  std::map<std::string, double>& m = report->layers;
  const double parse_s = MedianSpan(tracer, "ParseDatabase");
  m["lang.parse_db_s"] = parse_s;
  m["lang.parse_db_facts_per_s"] =
      parse_s > 0 ? database->TotalFacts() / parse_s : 0;
  m["lang.transform_s"] = MedianSpan(tracer, "MagicSetTransform");
  m["engine.demand_eval_ms"] = 1e3 * MedianSpan(tracer, "EvaluateStratified");
  m["ground.cone_ground_ms"] = 1e3 * MedianSpan(tracer, "Ground");
  m["core.cone_wf_ms"] = 1e3 * MedianSpan(tracer, "WellFounded");
  m["core.answer_lookup_ms"] = 1e3 * MedianSpan(tracer, "EvaluateQuery");
  replay.Summarize(&m);
  const tiebreak::QueryPlannerStats& stats = planner.stats();
  const double requests =
      static_cast<double>(stats.plans_built + stats.plan_cache_hits);
  m["core.query_plan.execute_ms"] = 1e3 * MedianSpan(tracer, "Execute");
  m["core.query_plan.cache_hit_ratio"] =
      requests > 0 ? stats.plan_cache_hits / requests : 0;
  m["core.query_plan.demand_ratio"] =
      requests > 0 ? stats.demand_queries / requests : 0;
  double replay_total = 0, execute_total = 0;
  for (double s : replay_s) replay_total += s;
  for (double s : execute_s) execute_total += s;
  m["core.query_plan.replay_ratio"] =
      execute_total > 0 ? replay_total / execute_total : 0;
  m["proc.cpu_util"] = cpu / wall;
  std::vector<double> untraced_all, traced_all;
  for (const auto& [name, values] : report->latencies) {
    untraced_all.insert(untraced_all.end(), values.begin(), values.end());
  }
  for (const auto& [name, values] : report->traced_latencies) {
    traced_all.insert(traced_all.end(), values.begin(), values.end());
  }
  m["trace.overhead"] = Median(traced_all) / Median(untraced_all);
  report->self_s = tracer.SelfSecondsByLayer();
  if (!options.spans_path.empty()) tracer.WriteJsonLines(options.spans_path);
}

// ---------------------------------------------------------------------------
// The ParseDatabase curve: one parse of random win/move boards of 50k facts,
// doubling up to the given count (two draws per node, as in
// batch_winmove_serial).
// ---------------------------------------------------------------------------

void PrintParseCurve(const Options& options) {
  std::printf("{\"parse_curve\":[");
  for (int64_t facts = 50'000; facts <= options.parse_curve_facts;
       facts *= 2) {
    const Board board =
        MakeBoard(static_cast<int32_t>(facts / 2), facts, options.seed);
    Result<Program> program = tiebreak::ParseProgram(board.program_text);
    TIEBREAK_CHECK(program.ok()) << program.status().ToString();
    const int64_t start = NowNs();
    Result<Database> database =
        tiebreak::ParseDatabase(board.edb_text, &*program);
    const double seconds = Seconds(start, NowNs());
    TIEBREAK_CHECK(database.ok()) << database.status().ToString();
    std::printf("%s{\"facts\":%lld,\"distinct\":%lld,\"seconds\":%.6f}",
                facts == 50'000 ? "" : ",", static_cast<long long>(facts),
                static_cast<long long>(database->TotalFacts()), seconds);
    std::fflush(stdout);
  }
  std::printf("]}\n");
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
    first = false;
  }
  out << "}";
  return out.str();
}

std::string JsonSamples(
    const std::map<std::string, std::vector<double>>& samples) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, values] : samples) {
    out << (first ? "" : ",") << JsonString(name) << ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i ? "," : "") << JsonNumber(values[i]);
    }
    out << "]";
    first = false;
  }
  out << "}";
  return out.str();
}

void PrintReport(const Options& options, const Report& report) {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(options.workload)
      << ",\"seed\":" << options.seed
      << ",\"size\":" << JsonString(options.smoke ? "smoke" : "full")
      << ",\"threads\":" << report.threads
      << ",\"compiler\":" << JsonString("gcc " __VERSION__)
      << ",\"build_type\":" << JsonString(E2EBENCH_BUILD_TYPE)
      << ",\"setup_s\":" << JsonNumber(report.setup_s)
      << ",\"latencies\":" << JsonSamples(report.latencies)
      << ",\"traced_latencies\":" << JsonSamples(report.traced_latencies)
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"errors\":[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? "," : "") << JsonString(report.errors[i]);
  }
  out << "],\"snapshot_bytes\":" << report.snapshot_bytes
      << ",\"setup_rss_kb\":" << report.setup_rss_kb
      << ",\"measured_s\":" << JsonNumber(report.measured_s)
      << ",\"peak_rss_kb\":" << PeakRssKb()
      << ",\"layers\":" << JsonObject(report.layers)
      << ",\"self_s\":" << JsonObject(report.self_s) << "}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--corrupt-one-answer") {
      options->corrupt_one_answer = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (flag == "--parse-curve") {
      options->parse_curve_facts = std::atoll(v);
    } else if (flag == "--workload") {
      options->workload = v;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(v);
    } else if (flag == "--trace") {
      options->trace = std::string(v) == "1";
    } else if (flag == "--size") {
      options->smoke = std::string(v) == "smoke";
      if (!options->smoke && std::string(v) != "full") return false;
    } else if (flag == "--scratch") {
      options->scratch = v;
    } else if (flag == "--spans") {
      options->spans_path = v;
    } else {
      return false;
    }
  }
  if (options->parse_curve_facts > 0) return true;
  return options->seconds > 0 &&
         (options->workload == "batch_winmove_serial" ||
          options->workload == "batch_transfer_par4" ||
          options->workload == "serve_mixed");
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options options;
  if (!e2ebench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload batch_winmove_serial|"
                 "batch_transfer_par4|serve_mixed --seed N --seconds S "
                 "--trace 0|1 [--size full|smoke] [--scratch DIR] "
                 "[--spans PATH] [--corrupt-one-answer]\n"
                 "       e2e_bench --parse-curve MAX_FACTS [--seed N]\n");
    return 2;
  }
  if (options.parse_curve_facts > 0) {
    e2ebench::PrintParseCurve(options);
    return 0;
  }
  e2ebench::Report report;
  if (options.workload == "serve_mixed") {
    e2ebench::RunServe(options, &report);
  } else {
    e2ebench::RunBatch(options, &report);
  }
  e2ebench::PrintReport(options, report);
  return report.failed == 0 ? 0 : 1;
}
