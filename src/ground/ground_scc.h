// SCC condensation and the Lemma-1 tie test directly over GroundGraph CSR
// spans — no SignedDigraph copy. This is what lets the interpreters condense
// G(Π, Δ) (or its live subgraph) at memory-bandwidth cost every round.
//
// Node space: atoms occupy ids [0, num_atoms), rule instance r is node
// num_atoms + r. Edges follow the paper's ground graph: positive body atom
// -> rule (positive), negated body atom -> rule (negative), rule -> head
// (positive). A GroundLiveness restricts everything to the live subgraph
// (undefined atoms, un-dead rules), exactly the graph the test oracle
// tests/live_graph.h materializes.
//
// Equivalence contract: ComputeGroundScc reproduces ComputeScc over the
// materialized graph *exactly* — same component ids, same member order —
// because an atom's neighbors are enumerated by merging its positive and
// negative consumer spans in ascending rule order with positive first on
// ties (both consumer spans are ascending by GroundGraph::Finalize
// construction), which is precisely the edge insertion order of a
// SignedDigraph materialized rule by rule: tests/live_graph.h for the live
// subgraph, interpreter_parallel_test's MaterializeFullGraph for the full
// graph. The tie-breaking interpreters depend
// on this: Lemma-1 partition sides are labeled relative to members.front(),
// so a different DFS order would silently flip default-policy tie
// orientations. interpreter_parallel_test.cc asserts the equivalence on
// randomized programs.
#ifndef TIEBREAK_GROUND_GROUND_SCC_H_
#define TIEBREAK_GROUND_GROUND_SCC_H_

#include <cstdint>
#include <vector>

#include "graph/scc.h"
#include "ground/ground_graph.h"
#include "ground/truth.h"

namespace tiebreak {

/// Restriction of the ground graph to its live subgraph. Null pointers mean
/// "everything live" (the full graph, as perfect_model uses it). The arrays
/// are borrowed and must outlive every call they are passed to.
struct GroundLiveness {
  /// Per-atom truth; an atom is live iff kUndef. Null = all atoms live.
  const Truth* atom_value = nullptr;
  /// Per-rule dead flag; a rule is live iff 0. Null = all rules live.
  const char* rule_dead = nullptr;

  /// Whether atom `a` / rule instance `r` is in the live subgraph.
  bool AtomLive(AtomId a) const {
    return atom_value == nullptr || atom_value[a] == Truth::kUndef;
  }
  bool RuleAlive(int32_t r) const {
    return rule_dead == nullptr || rule_dead[r] == 0;
  }
};

/// Tarjan directly over the CSR spans. Dead nodes get component -1 and
/// appear in no member list. Component ids are reverse-topological: every
/// cross-component edge u -> v has comp(v) < comp(u). See the file comment
/// for the equivalence guarantee against ComputeScc over the materialized
/// live graph.
SccResult ComputeGroundScc(const GroundGraph& graph,
                           const GroundLiveness& live = {});

/// Condensation facts (bottom test, internal-edge test) over the same node
/// space, matching CondenseScc over the materialized graph.
Condensation CondenseGroundScc(const GroundGraph& graph, const SccResult& scc,
                               const GroundLiveness& live = {});

/// Result of the Lemma-1 tie test on one ground component (the flat-array
/// replacement for graph/tie.h CheckTie on a materialized live graph).
struct GroundTieCheck {
  bool is_tie = false;
  /// Parity side per member, aligned with scc.members[comp]: side 0 = same
  /// parity as members.front() — the same convention as TieCheckResult, so
  /// tie orientations are preserved.
  std::vector<char> side;
};

/// Lemma-1 partition test on component `comp` of a ground SCC result:
/// BFS the internal live edges from members.front() assigning sign parity,
/// then verify every internal edge. `local_scratch` must be a vector of
/// size >= num_atoms + num_rules holding -1 everywhere; it is used for the
/// node -> member-index map and restored to -1 before returning.
GroundTieCheck CheckGroundTie(const GroundGraph& graph, const SccResult& scc,
                              int32_t comp, const GroundLiveness& live,
                              std::vector<int32_t>* local_scratch);

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUND_SCC_H_
