// Shared helpers for the test suites: parse program+database text, ground,
// and query models by predicate/constant names.
#ifndef TIEBREAK_TESTS_TEST_UTIL_H_
#define TIEBREAK_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "ground/ground_scc.h"
#include "ground/grounder.h"
#include "ground/truth.h"
#include "gtest/gtest.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "lang/program.h"

namespace tiebreak {
namespace testing_util {

struct Instance {
  Program program;
  Database database;
};

inline Instance ParseInstance(const std::string& program_text,
                              const std::string& database_text = "") {
  Result<Program> p = ParseProgram(program_text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << program_text;
  Program program = std::move(p).value();
  Result<Database> d = ParseDatabase(database_text, &program);
  EXPECT_TRUE(d.ok()) << d.status().ToString() << "\n" << database_text;
  return Instance{std::move(program), std::move(d).value()};
}

inline GroundingResult GroundOrDie(const Instance& inst,
                                   const GroundingOptions& options = {}) {
  Result<GroundingResult> g = Ground(inst.program, inst.database, options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Truth of pred(constants...) in `values`; atoms missing from the store
/// read as false (they are false in every model over the graph).
// Component invariants of ComputeGroundScc over the full graph, which
// serial PerfectModelGoverned relies on when it walks components in
// descending id: every node sits in exactly one member list (the one its
// component id names), and every cross-component edge u -> v has
// comp(v) < comp(u).
inline void ExpectValidComponents(const GroundGraph& graph) {
  const SccResult scc = ComputeGroundScc(graph);
  const int32_t num_nodes = graph.num_atoms() + graph.num_rules();
  std::vector<int32_t> seen(num_nodes, 0);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    for (int32_t node : scc.members[comp]) {
      ASSERT_GE(node, 0);
      ASSERT_LT(node, num_nodes);
      EXPECT_EQ(scc.component[node], comp);
      ++seen[node];
    }
  }
  for (int32_t node = 0; node < num_nodes; ++node) {
    EXPECT_EQ(seen[node], 1) << "node " << node
                             << " not in exactly one component";
  }
  auto expect_edge = [&](int32_t from, int32_t to) {
    const int32_t fc = scc.component[from];
    const int32_t tc = scc.component[to];
    if (fc == tc) return;
    EXPECT_LT(tc, fc) << "Tarjan ids must be reverse-topological";
  };
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) expect_edge(a, rule_node);
    for (AtomId a : graph.NegativeBody(r)) expect_edge(a, rule_node);
    expect_edge(rule_node, graph.HeadOf(r));
  }
}

inline Truth TruthOf(const Instance& inst, const GroundingResult& ground,
                     const std::vector<Truth>& values, const std::string& pred,
                     const std::vector<std::string>& constants = {}) {
  const PredId p = inst.program.LookupPredicate(pred);
  EXPECT_GE(p, 0) << "unknown predicate " << pred;
  Tuple tuple;
  for (const std::string& c : constants) {
    const ConstId id = inst.program.LookupConstant(c);
    EXPECT_GE(id, 0) << "unknown constant " << c;
    tuple.push_back(id);
  }
  const AtomId atom = ground.graph.atoms().Lookup(p, tuple);
  if (atom < 0) return Truth::kFalse;
  return values[atom];
}

}  // namespace testing_util
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_TEST_UTIL_H_
