// Construction of the ground graph G(Π, Δ).
//
// Two modes:
//
//  * faithful (reduce_edb = false): the paper's definition verbatim — every
//    rule with k variables is instantiated with every k-tuple over the
//    universe U (constants of Π and Δ), and with include_all_atoms the
//    predicate-node set VP is the full set of ground atoms over U. Feasible
//    only for small inputs; used as the reference in equivalence tests.
//
//  * reduced (default): performs the EDB part of the very first close(M, G)
//    during grounding. Rule instances with a false positive EDB literal or
//    a true negated EDB literal are never created (close would delete them
//    immediately), satisfied EDB literals are dropped from bodies (close
//    would delete those resolved atoms), and EDB atoms are not interned as
//    nodes. The result is equivalent to the faithful graph *after* the
//    initial close — tested exhaustively in ground_test.cc — and it is what
//    makes programs like the Theorem 6 machine-simulation (whose rules
//    carry long succ-chain variable lists) groundable at all.
//
// Binding enumeration in reduced mode is engine-backed: the positive EDB
// literals of each rule become one conjunctive "binding rule" over a
// derived program, the whole batch is evaluated by the relational engine
// (columnar relations, compiled/cached join plans, vectorized join
// kernels — see engine/evaluation.h) through the borrowed-EDB entry point
// (the flat fact arenas of the EDB relations some binding rule reads are
// handed to the engine as FactSpans, no intermediate Database copy; the
// binding program copies the source vocabulary wholesale instead of
// re-interning it, so a small cone over a large Δ pays for the relations
// it reads, not for Δ or U), and the grounder then streams the
// materialized binding rows out of the columnar result Database, emitting
// rule instances straight into the CSR graph arenas with zero per-instance
// heap allocation. A rule without positive EDB literals streams one
// zero-arity virtual row through the same pipeline. Emission is
// block-batched: the substituted atoms of a block of binding rows are
// hashed ahead and their dedupe slot lines prefetched before any intern
// touches them (the Relation::InsertBatch trick), and with num_threads > 1
// per-rule emission jobs (row-sharded for large binding relations) fan out
// over a thread pool into per-worker graph shards that merge with an
// atom-id remap. The engine's probe masks cap the arity of a positive EDB
// literal at kEngineMaxArity; IDB predicates and the number of variables a
// rule's generators bind have no cap.
#ifndef TIEBREAK_GROUND_GROUNDER_H_
#define TIEBREAK_GROUND_GROUNDER_H_

#include <cstdint>
#include <vector>

#include "ground/ground_graph.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Grounding knobs.
struct GroundingOptions {
  /// Apply the EDB reduction (see file comment). Default on.
  bool reduce_edb = true;
  /// Faithful mode only: also intern every ground atom over U for every
  /// predicate, exactly matching the paper's VP.
  bool include_all_atoms = false;
  /// Worker threads for reduced-mode grounding: the engine evaluation of
  /// the binding program and instance emission both fan out (the engine
  /// constructs its own pool for the evaluation phase; emission uses the
  /// grounder's — the phases are sequential, so at most one set of
  /// workers is running). Emission parallelizes as per-rule jobs (large
  /// binding relations additionally split into row shards); each worker
  /// emits into a private GroundGraph shard with no synchronization, and
  /// the shards merge into the final CSR arenas with an atom-id remap
  /// (GroundGraph::MergeFrom). 1 = the serial reference (the arenas it
  /// produces are bit-identical to pre-parallel grounding; parallel runs
  /// agree on atom sets and rule-instance multisets but may order them
  /// differently), 0 = hardware concurrency. Faithful mode ignores this
  /// and always grounds serially.
  int32_t num_threads = 1;
  /// Record each instance's variable binding in the graph
  /// (GroundGraph::BindingOf). Off by default: no interpreter reads
  /// bindings, and on million-instance graphs the binding arena costs more
  /// memory traffic than the rest of the rule arenas combined. Debug tools
  /// that want `rule_index + binding -> instance` provenance turn it on.
  bool record_bindings = false;
  /// Abort with RESOURCE_EXHAUSTED beyond this many rule instances /
  /// explored bindings (guards |U|^k blowups).
  int64_t max_instances = 10'000'000;
  /// Resource governance for this grounding (not owned; null = none).
  /// Checkpoints fire per emission block (serial) / per budget-flush block
  /// (parallel shards), and the context threads through to the engine
  /// evaluation of the binding program. On a trip, Ground returns the
  /// context's Status (kResourceExhausted / kDeadlineExceeded /
  /// kCancelled); parallel shards abandon cleanly at the merge barrier.
  /// Independent of max_instances — both limits apply.
  ExecutionContext* context = nullptr;
};

/// A finalized ground graph plus the universe it was built over.
struct GroundingResult {
  GroundGraph graph;
  std::vector<ConstId> universe;  // ascending ConstIds of Π and Δ
};

/// Computes U: all constants appearing in `program`'s rules or `database`.
std::vector<ConstId> ComputeUniverse(const Program& program,
                                     const Database& database);

/// Builds G(Π, Δ). IDB atoms of Δ are always interned (they carry initial
/// truth); EDB atoms become nodes only in faithful mode. Returns
/// INVALID_ARGUMENT, without grounding, when `program` fails Validate(),
/// when `database` was built for a program with other predicate arities,
/// or (reduced mode) when a rule has a positive EDB literal of arity above
/// kEngineMaxArity; RESOURCE_EXHAUSTED past max_instances; the context's
/// Status on a trip.
Result<GroundingResult> Ground(const Program& program,
                               const Database& database,
                               const GroundingOptions& options = {});

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUNDER_H_
