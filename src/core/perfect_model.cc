#include "core/perfect_model.h"

#include <utility>

#include "core/fixpoint.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "ground/ground_scc.h"
#include "util/execution_context.h"

namespace tiebreak {

namespace {

// Full (not live) ground graph as a SignedDigraph: atoms get node ids
// [0, num_atoms), rule nodes follow. Only the odd-cycle search still needs
// the materialized digraph; the SCC passes run CSR-direct.
SignedDigraph FullGraph(const GroundGraph& graph) {
  SignedDigraph g(graph.num_atoms() + graph.num_rules());
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) g.AddEdge(a, rule_node, false);
    for (AtomId a : graph.NegativeBody(r)) g.AddEdge(a, rule_node, true);
    g.AddEdge(rule_node, graph.HeadOf(r), false);
  }
  g.Finalize();
  return g;
}

// Negative edges are exactly (body atom -> rule node) arcs from negated
// literals; an instance is locally stratified iff none stays inside one
// component.
bool HasNegativeIntraSccEdge(const GroundGraph& graph, const SccResult& scc) {
  const int32_t num_atoms = graph.num_atoms();
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_comp = scc.component[num_atoms + r];
    for (AtomId a : graph.NegativeBody(r)) {
      if (scc.component[a] == rule_comp) return true;
    }
  }
  return false;
}

}  // namespace

bool IsLocallyStratified(const Program& program, const Database& database,
                         const GroundGraph& graph) {
  (void)program;
  (void)database;
  return !HasNegativeIntraSccEdge(graph, ComputeGroundScc(graph));
}

bool IsGroundCallConsistent(const GroundGraph& graph) {
  return !HasOddCycle(FullGraph(graph));
}

std::optional<std::vector<Truth>> PerfectModel(const Program& program,
                                               const Database& database,
                                               const GroundGraph& graph) {
  Result<InterpreterResult> result =
      PerfectModelGoverned(program, database, graph, /*context=*/nullptr);
  if (!result.ok()) return std::nullopt;  // not locally stratified
  return std::move(result.value().values);
}

Result<InterpreterResult> PerfectModelGoverned(const Program& program,
                                               const Database& database,
                                               const GroundGraph& graph,
                                               ExecutionContext* context) {
  // Condense the full ground graph CSR-direct.
  const SccResult scc = ComputeGroundScc(graph);
  if (HasNegativeIntraSccEdge(graph, scc)) {
    return Status::FailedPrecondition(
        "instance is not locally stratified: a ground SCC contains a "
        "negative edge");
  }

  // Base: everything false except Δ (EDB atoms exist as nodes only in
  // faithful graphs; those not in Δ are already false).
  std::vector<Truth> values(graph.num_atoms(), Truth::kFalse);
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (in_delta[a]) values[a] = Truth::kTrue;
  }
  (void)program;

  InterpreterResult result;

  // Group rule instances by the component of their head. Tarjan ids are
  // reverse-topological (edge u -> v implies comp(v) < comp(u)), and body
  // atoms point *toward* heads, so dependencies have larger component ids:
  // processing components in descending order sees dependencies first.
  std::vector<std::vector<int32_t>> rules_by_comp(scc.num_components);
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    rules_by_comp[scc.component[graph.HeadOf(r)]].push_back(r);
  }

  bool tripped = false;
  int32_t trip_comp = -1;
  for (int32_t comp = scc.num_components - 1; comp >= 0 && !tripped; --comp) {
    const std::vector<int32_t>& rules = rules_by_comp[comp];
    if (rules.empty()) continue;
    // Least fixpoint within the component: negated atoms are in strictly
    // earlier-processed components (local stratification), positive
    // same-component atoms converge by iteration.
    bool changed = true;
    while (changed) {
      ++result.iterations;
      // One checkpoint per sweep; a trip abandons the run at this
      // component.
      if (context != nullptr &&
          !context
               ->Checkpoint("perfect_model",
                            static_cast<int64_t>(rules.size()))
               .ok()) {
        tripped = true;
        trip_comp = comp;
        break;
      }
      changed = false;
      for (int32_t r : rules) {
        const AtomId head = graph.HeadOf(r);
        if (values[head] == Truth::kTrue) continue;
        if (BodyTrue(graph, r, values)) {
          values[head] = Truth::kTrue;
          changed = true;
        }
      }
    }
  }
  if (tripped) {
    // Unfinished components (ids <= trip_comp): kTrue atoms are sound —
    // every derivation was justified by final dependencies — but kFalse
    // is merely "not derived yet", so those atoms become kUndef (Δ atoms
    // are kTrue and unaffected).
    for (AtomId a = 0; a < graph.num_atoms(); ++a) {
      if (scc.component[a] <= trip_comp && values[a] == Truth::kFalse) {
        values[a] = Truth::kUndef;
      }
    }
    result.truncation = context->status();
  }
  result.values = std::move(values);
  result.total = result.CountUndefined() == 0 && !tripped;
  return result;
}

Result<InterpreterResult> PerfectModelGoverned(
    const Program& program, const Database& database, const GroundGraph& graph,
    const InterpreterOptions& options) {
  return PerfectModelGoverned(program, database, graph, options.context);
}

}  // namespace tiebreak
