// Regression tests for workload generator argument validation: hostile or
// nonsensical parameters must surface as kInvalidArgument, never abort the
// process (these generators sit behind driver-facing tools and benches);
// and the bulk-loaded generators must build the same database as one
// Insert per fact.
#include "workload/databases.h"

#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "lang/program.h"
#include "util/random.h"

namespace tiebreak {
namespace {

TEST(WorkloadValidationTest, NonPositiveSizesAreInvalidArgument) {
  Program program;
  Rng rng(1);
  EXPECT_EQ(RandomDigraphDatabase(&program, "move", 0, 4, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomDigraphDatabase(&program, "move", 4, -1, &rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ChainDatabase(&program, "move", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CycleDatabase(&program, "move", -3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(UnarySetDatabase(&program, "e", -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridDatabase(&program, "e", 0, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WideGridDatabase(&program, "e", 5, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      LargeRandomDigraphDatabase(&program, "e", 0, 10, &rng).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(BalancedTreeDatabase(&program, -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomEdbDatabase(&program, 0, 0.5, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadValidationTest, OverflowingSizesAreInvalidArgument) {
  Program program;
  // 70k x 70k cells would overflow the int32 node count.
  EXPECT_EQ(GridDatabase(&program, "e", 70'000, 70'000).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WideGridDatabase(&program, "e", 1'000'000, 3'000).status().code(),
            StatusCode::kInvalidArgument);
  // Depth 30 would need 2^31 - 1 + 1 nodes.
  EXPECT_EQ(BalancedTreeDatabase(&program, 30).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadValidationTest, DensityOutsideUnitIntervalIsInvalidArgument) {
  Program program;
  Rng rng(2);
  EXPECT_EQ(RandomEdbDatabase(&program, 2, -0.1, &rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomEdbDatabase(&program, 2, 1.5, &rng).status().code(),
            StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(RandomEdbDatabase(&program, 2, nan, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadValidationTest, ArityClashIsInvalidArgument) {
  Program program;
  program.DeclarePredicate("move", 3);
  EXPECT_EQ(ChainDatabase(&program, "move", 4).status().code(),
            StatusCode::kInvalidArgument);
  program.DeclarePredicate("e", 2);
  EXPECT_EQ(UnarySetDatabase(&program, "e", 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WorkloadValidationTest, ValidArgumentsStillGenerate) {
  Program program;
  Rng rng(3);
  Result<Database> chain = ChainDatabase(&program, "move", 5);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->TotalFacts(), 4);
  Result<Database> edb = RandomEdbDatabase(&program, 2, 1.0, &rng);
  ASSERT_TRUE(edb.ok());
  EXPECT_EQ(edb->NumFacts(0), 4);  // move/2 over two constants, density 1
  // Zero-size unary set: allowed, empty.
  Result<Database> empty = UnarySetDatabase(&program, "e", 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->TotalFacts(), 0);
}

TEST(WorkloadGeneratorTest, RandomDigraphsMatchPerEdgeInsert) {
  const int32_t nodes = 50;
  const int32_t edges = 300;  // enough draws to repeat some edges
  for (uint64_t seed : {1u, 7u, 42u}) {
    Program small_program;
    Rng small_rng(seed);
    Result<Database> small =
        RandomDigraphDatabase(&small_program, "move", nodes, edges, &small_rng);
    ASSERT_TRUE(small.ok());
    Program large_program;
    Rng large_rng(seed);
    Result<Database> large = LargeRandomDigraphDatabase(
        &large_program, "move", nodes, edges, &large_rng);
    ASSERT_TRUE(large.ok());

    // Reference: the same (from, to) draws, one ordered Insert per edge.
    Program program;
    for (int32_t i = 0; i < nodes; ++i) {
      program.InternConstant("n" + std::to_string(i));
    }
    const PredId move = program.DeclarePredicate("move", 2);
    Database reference(program);
    Rng rng(seed);
    for (int32_t e = 0; e < edges; ++e) {
      const ConstId from = static_cast<ConstId>(rng.Below(nodes));
      const ConstId to = static_cast<ConstId>(rng.Below(nodes));
      reference.Insert(move, {from, to});
    }
    EXPECT_LT(reference.TotalFacts(), edges) << "seed " << seed;
    EXPECT_TRUE(*small == reference) << "seed " << seed;
    EXPECT_TRUE(*large == reference) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tiebreak
