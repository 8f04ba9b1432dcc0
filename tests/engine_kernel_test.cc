// Kernel-agreement tests: the row (tuple-at-a-time reference), vector
// (batch kernels + prefetch) and merge (forced sort-merge joins) kernels
// must produce the *identical* database — on every named workload family,
// on randomized stratified programs, serially and under the staged
// parallel path (×{1, 8} threads). Run under ThreadSanitizer by
// scripts/check.sh --tsan (the vectorized paths pre-materialize indexes
// before fan-outs exactly like the scalar ones; this suite is what holds
// them to it), and under AddressSanitizer and UndefinedBehaviorSanitizer
// by --asan / --ubsan (prefix runs binary-search raw column memory). The
// prefix-run access path is also checked against the perfect model of a
// faithful grounding, which shares no join code with the engine.
#include <set>
#include <string>
#include <vector>

#include "core/perfect_model.h"
#include "core/stratification.h"
#include "engine/evaluation.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

constexpr JoinKernel kKernels[] = {JoinKernel::kRow, JoinKernel::kVector,
                                   JoinKernel::kMerge};
constexpr int32_t kThreadCounts[] = {1, 8};

const char* KernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kRow:
      return "row";
    case JoinKernel::kVector:
      return "vector";
    case JoinKernel::kMerge:
      return "merge";
  }
  return "?";
}

struct NamedWorkload {
  std::string name;
  Program program;
  Database database;
};

std::vector<NamedWorkload> AllWorkloads() {
  std::vector<NamedWorkload> workloads;
  {
    Program program = TransitiveClosureProgram();
    Database db = *ChainDatabase(&program, "e", 64);
    workloads.push_back({"tc_chain", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Database db = *CycleDatabase(&program, "e", 48);
    workloads.push_back({"tc_cycle", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Rng rng(7);
    Database db = *RandomDigraphDatabase(&program, "e", 48, 144, &rng);
    workloads.push_back({"tc_random", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Database db = *WideGridDatabase(&program, "e", 32, 3);
    workloads.push_back({"tc_wide_grid", std::move(program), std::move(db)});
  }
  {
    // Dense enough that the merge path is exercised with long runs (few
    // distinct sources, many edges each) even below the auto threshold.
    Program program = ReachabilityProgram();
    Rng rng(11);
    Database db = *LargeRandomDigraphDatabase(&program, "e", 500, 8000, &rng);
    const PredId start = program.LookupPredicate("start");
    const ConstId n0 = program.LookupConstant("n0");
    db.Insert(start, {n0});
    workloads.push_back({"reach_dense", std::move(program), std::move(db)});
  }
  {
    Program program = SameGenerationProgram();
    Database db = *BalancedTreeDatabase(&program, 5);
    workloads.push_back({"same_generation", std::move(program),
                         std::move(db)});
  }
  {
    Program program = StratifiedTowerProgram(8);
    Database db = *UnarySetDatabase(&program, "e", 48);
    workloads.push_back({"stratified_tower", std::move(program),
                         std::move(db)});
  }
  return workloads;
}

TEST(KernelAgreementTest, AllWorkloadsAllKernelsAllThreadCounts) {
  for (NamedWorkload& workload : AllWorkloads()) {
    EngineOptions reference_options;  // serial row kernel
    reference_options.kernel = JoinKernel::kRow;
    EngineStats reference_stats;
    Result<Database> reference =
        EvaluateStratified(workload.program, workload.database,
                           reference_options, &reference_stats);
    ASSERT_TRUE(reference.ok())
        << workload.name << ": " << reference.status().ToString();
    for (const JoinKernel kernel : kKernels) {
      for (const int32_t threads : kThreadCounts) {
        EngineOptions options;
        options.kernel = kernel;
        options.num_threads = threads;
        EngineStats stats;
        Result<Database> result = EvaluateStratified(
            workload.program, workload.database, options, &stats);
        ASSERT_TRUE(result.ok())
            << workload.name << " kernel=" << KernelName(kernel)
            << " threads=" << threads << ": " << result.status().ToString();
        EXPECT_TRUE(*result == *reference)
            << workload.name << " kernel=" << KernelName(kernel)
            << " threads=" << threads;
        EXPECT_EQ(stats.tuples_derived, reference_stats.tuples_derived)
            << workload.name << " kernel=" << KernelName(kernel)
            << " threads=" << threads;
      }
    }
  }
}

TEST(KernelAgreementTest, MergeKernelActuallyTakesTheMergePath) {
  // Force-merge on an EDB-probing recursive rule must compile at least one
  // sort-merge step — otherwise the suite above would be vacuous for it.
  Program program = ReachabilityProgram();
  Rng rng(3);
  Database db = *LargeRandomDigraphDatabase(&program, "e", 200, 4000, &rng);
  db.Insert(program.LookupPredicate("start"),
            {program.LookupConstant("n0")});
  EngineOptions options;
  options.kernel = JoinKernel::kMerge;
  EngineStats stats;
  ASSERT_TRUE(EvaluateStratified(program, db, options, &stats).ok());
  EXPECT_GT(stats.merge_join_steps, 0);
}

TEST(KernelAgreementTest, AutoMergeSelectionBySelectivity) {
  // Low distinct-key fraction (few sources, many edges each) must trip the
  // selectivity threshold under the default vector kernel; a high
  // threshold of 0 must disable it.
  Program program = ReachabilityProgram();
  Rng rng(5);
  Database db = *RandomDigraphDatabase(&program, "e", 120, 120'000, &rng);
  db.Insert(program.LookupPredicate("start"),
            {program.LookupConstant("n0")});
  {
    EngineOptions options;  // vector kernel, default threshold
    EngineStats stats;
    Result<Database> with_merge = EvaluateStratified(program, db, options,
                                                     &stats);
    ASSERT_TRUE(with_merge.ok());
    EXPECT_GT(stats.merge_join_steps, 0);

    EngineOptions no_merge_options;
    no_merge_options.merge_join_selectivity = 0;  // auto merge disabled
    EngineStats no_merge_stats;
    Result<Database> without_merge = EvaluateStratified(
        program, db, no_merge_options, &no_merge_stats);
    ASSERT_TRUE(without_merge.ok());
    EXPECT_EQ(no_merge_stats.merge_join_steps, 0);
    EXPECT_TRUE(*with_merge == *without_merge);
  }
}

TEST(KernelAgreementTest, RandomStratifiedPrograms) {
  Rng rng(0x6E47);
  int evaluated = 0;
  for (int round = 0; round < 40; ++round) {
    RandomProgramOptions options;
    options.num_idb = 2 + static_cast<int>(rng.Below(3));
    options.num_edb = 1 + static_cast<int>(rng.Below(3));
    options.num_rules = 2 + static_cast<int>(rng.Below(8));
    options.max_body = 1 + static_cast<int>(rng.Below(3));
    options.negation_probability = rng.Unit() * 0.5;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    Program program = RandomProgram(&rng, options);
    ASSERT_TRUE(program.Validate().ok());
    if (!CheckSafety(program).ok()) continue;
    if (!ComputeStrata(program).has_value()) continue;

    Database db = *RandomEdbDatabase(&program, 4, 0.4, &rng);
    EngineOptions reference_options;
    reference_options.kernel = JoinKernel::kRow;
    EngineStats reference_stats;
    Result<Database> reference = EvaluateStratified(
        program, db, reference_options, &reference_stats);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const JoinKernel kernel : kKernels) {
      for (const int32_t threads : kThreadCounts) {
        EngineOptions run_options;
        run_options.kernel = kernel;
        run_options.num_threads = threads;
        EngineStats stats;
        Result<Database> result =
            EvaluateStratified(program, db, run_options, &stats);
        ASSERT_TRUE(result.ok())
            << "round " << round << " kernel=" << KernelName(kernel)
            << " threads=" << threads << ": " << result.status().ToString();
        EXPECT_TRUE(*result == *reference)
            << "round " << round << " kernel=" << KernelName(kernel)
            << " threads=" << threads;
        EXPECT_EQ(stats.tuples_derived, reference_stats.tuples_derived)
            << "round " << round << " kernel=" << KernelName(kernel)
            << " threads=" << threads;
      }
    }
    ++evaluated;
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(evaluated, 10);
}

// EXPECTs that `result` holds exactly the IDB facts the perfect model of a
// faithful (reduce_edb = false) grounding makes true. Faithful grounding
// instantiates every rule over the whole universe and the perfect model
// evaluates the ground graph SCC by SCC: no engine join code is involved.
void ExpectMatchesFaithfulPerfectModel(const Program& program,
                                       const Database& database,
                                       const Database& result,
                                       const std::string& label) {
  GroundingOptions faithful;
  faithful.reduce_edb = false;
  Result<GroundingResult> ground = Ground(program, database, faithful);
  ASSERT_TRUE(ground.ok()) << label << ": " << ground.status().ToString();
  Result<InterpreterResult> perfect = PerfectModelGoverned(
      program, database, ground->graph, /*context=*/nullptr);
  ASSERT_TRUE(perfect.ok()) << label << ": " << perfect.status().ToString();
  const GroundAtomStore& atoms = ground->graph.atoms();
  for (const PredId p : program.IdbPredicates()) {
    std::set<Tuple> expected;
    for (AtomId a = 0; a < ground->graph.num_atoms(); ++a) {
      if (atoms.PredicateOf(a) == p && perfect->values[a] == Truth::kTrue) {
        expected.insert(atoms.TupleOf(a));
      }
    }
    const std::vector<Tuple> derived = result.Tuples(p);
    EXPECT_EQ(std::set<Tuple>(derived.begin(), derived.end()), expected)
        << label << ": " << program.predicate_name(p);
  }
}

// True when some rule of `program` negates an EDB predicate.
bool NegatesEdb(const Program& program) {
  for (const Rule& rule : program.rules()) {
    for (const Literal& literal : rule.body) {
      if (!literal.positive && program.IsEdb(literal.atom.predicate)) {
        return true;
      }
    }
  }
  return false;
}

TEST(RunProbeTest, CostRuleChoosesRunsForSmallOuterSidesAndHashForLarge) {
  // q's plan scans e (the smaller relation) and probes f on its first
  // column: a prefix run while |e| × ⌈log2 |f|⌉ < |f|, a hash index once
  // it is not. The negated g is a binary search at both sizes.
  Rng rng(0x5EED);
  for (const int32_t outer_edges : {2, 400}) {
    Result<Program> program = ParseProgram(
        "q(X, Z) :- e(X, Y), f(Y, Z), not g(Z).\n"
        "r(X) :- q(X, Z), not f(Z, X).");
    ASSERT_TRUE(program.ok());
    Database db(*program);
    std::vector<ConstId> nodes;
    for (int32_t i = 0; i < 40; ++i) {
      nodes.push_back(program->InternConstant("n" + std::to_string(i)));
    }
    auto fill = [&](const char* name, int32_t arity, int32_t rows) {
      const PredId pred = program->LookupPredicate(name);
      std::vector<ConstId> flat;
      for (int32_t i = 0; i < rows * arity; ++i) {
        flat.push_back(nodes[rng.Below(nodes.size())]);
      }
      db.BulkLoadFlat(pred, std::move(flat));
    };
    fill("e", 2, outer_edges);
    fill("f", 2, 1200);
    fill("g", 1, 12);
    const int64_t f_rows = db.NumFacts(program->LookupPredicate("f"));
    ASSERT_LT(db.NumFacts(program->LookupPredicate("e")), f_rows);

    EngineOptions options;  // vector kernel
    EngineStats stats;
    Result<Database> result =
        EvaluateStratified(*program, db, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string label = "outer_edges=" + std::to_string(outer_edges);
    if (outer_edges == 2) {
      EXPECT_GT(stats.run_probe_steps, 0) << label;
    } else {
      EXPECT_EQ(stats.run_probe_steps, 0) << label;
    }
    ExpectMatchesFaithfulPerfectModel(*program, db, *result, label);

    // The hash-only row kernel agrees.
    EngineOptions row_options;
    row_options.kernel = JoinKernel::kRow;
    EngineStats row_stats;
    Result<Database> row = EvaluateStratified(*program, db, row_options,
                                              &row_stats);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row_stats.run_probe_steps, 0);
    EXPECT_TRUE(*row == *result) << label;
  }
}

TEST(RunProbeTest, RandomProgramsWithNegatedEdbMatchPerfectModel) {
  // Seeded stratified programs that negate EDB literals, over EDBs whose
  // relations differ in size (one dense, the others sparse), so plans see
  // both small outer sides (runs) and large ones (hash indexes).
  Rng rng(0xD1FF);
  int evaluated = 0;
  int64_t run_steps = 0;
  for (int round = 0; round < 120 && evaluated < 40; ++round) {
    RandomProgramOptions options;
    options.num_idb = 2 + static_cast<int>(rng.Below(3));
    options.num_edb = 2 + static_cast<int>(rng.Below(2));
    options.num_rules = 2 + static_cast<int>(rng.Below(6));
    options.max_body = 2 + static_cast<int>(rng.Below(2));
    options.negation_probability = 0.4;
    options.edb_literal_probability = 0.5;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    Program program = RandomProgram(&rng, options);
    ASSERT_TRUE(program.Validate().ok());
    if (!CheckSafety(program).ok()) continue;
    if (!ComputeStrata(program).has_value()) continue;
    if (!NegatesEdb(program)) continue;

    // One dense relation, the rest sparse.
    Database dense = *RandomEdbDatabase(&program, 9, 0.7, &rng);
    Database sparse = *RandomEdbDatabase(&program, 9, 0.08, &rng);
    Database db(program);
    const std::vector<PredId> edb = program.EdbPredicates();
    const PredId dense_pred = edb[rng.Below(edb.size())];
    for (const PredId p : edb) {
      const Database& source = p == dense_pred ? dense : sparse;
      const int64_t rows = source.NumFacts(p);
      if (rows == 0) continue;
      if (source.arity(p) == 0) {
        db.InsertProposition(p);
        continue;
      }
      const ConstId* data = source.FactData(p);
      db.BulkLoadFlat(p, std::vector<ConstId>(data,
                                              data + rows * source.arity(p)));
    }

    const std::string label = "round " + std::to_string(round);
    for (const JoinKernel kernel : kKernels) {
      for (const int32_t threads : kThreadCounts) {
        EngineOptions run_options;
        run_options.kernel = kernel;
        run_options.num_threads = threads;
        EngineStats stats;
        Result<Database> result =
            EvaluateStratified(program, db, run_options, &stats);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        run_steps += stats.run_probe_steps;
        ExpectMatchesFaithfulPerfectModel(
            program, db, *result,
            label + " kernel=" + KernelName(kernel) +
                " threads=" + std::to_string(threads));
      }
    }
    ++evaluated;
  }
  EXPECT_GT(evaluated, 10);
  EXPECT_GT(run_steps, 0);
}

}  // namespace
}  // namespace tiebreak
