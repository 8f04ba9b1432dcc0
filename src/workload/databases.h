// Database generators: random digraphs, chains, cycles and grids for the
// binary relations the program families consume (move/e/up/down/...).
//
// All generators validate their arguments and return
// Result<Database>: kInvalidArgument on nonsensical sizes (including ones
// whose node count would overflow int32) or when `relation` is already
// declared with a different arity — the driver-facing entry points
// (benchmarks, tools, future RPC surfaces) must not be able to abort the
// process with user-supplied parameters.
#ifndef TIEBREAK_WORKLOAD_DATABASES_H_
#define TIEBREAK_WORKLOAD_DATABASES_H_

#include <cstdint>
#include <string>

#include "lang/database.h"
#include "lang/program.h"
#include "util/random.h"

namespace tiebreak {

/// Node constants are named "n0", "n1", ... and interned into `program`.

/// A database whose binary relation `relation` is a random digraph with
/// `num_nodes` nodes and `num_edges` edges (duplicates collapse). Shares
/// LargeRandomDigraphDatabase's body: the same draws give the same
/// database, bulk loaded in one pass.
Result<Database> RandomDigraphDatabase(Program* program,
                                       const std::string& relation,
                                       int32_t num_nodes, int32_t num_edges,
                                       Rng* rng);

/// relation = the path n0 -> n1 -> ... -> n_{k-1}.
Result<Database> ChainDatabase(Program* program, const std::string& relation,
                               int32_t length);

/// relation = the directed cycle over k nodes.
Result<Database> CycleDatabase(Program* program, const std::string& relation,
                               int32_t length);

/// Unary relation `relation` = {n0, ..., n_{k-1}} (for the tower programs).
Result<Database> UnarySetDatabase(Program* program,
                                  const std::string& relation, int32_t size);

/// relation = the directed width x height grid: edges point right and down,
/// so transitive closure reaches every cell south-east of the source. The
/// many alternative paths between cell pairs stress tuple deduplication.
Result<Database> GridDatabase(Program* program, const std::string& relation,
                              int32_t width, int32_t height);

/// Million-tuple variant of RandomDigraphDatabase: generates all edges into
/// one flat row-major buffer and publishes it through
/// Database::BulkLoadFlat (one packed-key sort + linear set build, no
/// per-edge Tuple) instead of one ordered insert per edge, so building the
/// EDB scales to millions of tuples. `num_edges` counts draws; duplicate
/// draws collapse.
Result<Database> LargeRandomDigraphDatabase(Program* program,
                                            const std::string& relation,
                                            int32_t num_nodes,
                                            int64_t num_edges, Rng* rng);

/// relation = the directed width x height grid (edges right and down), bulk
/// loaded like LargeRandomDigraphDatabase. Wide, shallow aspect ratios
/// (width >> height) keep transitive closure in the millions rather than
/// quadrillions: each cell reaches only the cells south-east of it.
Result<Database> WideGridDatabase(Program* program,
                                  const std::string& relation, int32_t width,
                                  int32_t height);

/// The EDB of the same-generation family: a balanced binary tree of
/// `depth` levels below the root, with `up(child, parent)`,
/// `down(parent, child)`, and `sibling` in both directions between the two
/// children of each internal node. Declares all three binary relations on
/// `program`. `depth` is capped at 29 (the node count must fit int32).
Result<Database> BalancedTreeDatabase(Program* program, int32_t depth);

/// A random database over `universe_size` node constants for *every* EDB
/// predicate of the program: each possible fact is included with
/// probability `density` (which must lie in [0, 1]). Zero-ary EDB
/// predicates are included with the same probability.
Result<Database> RandomEdbDatabase(Program* program, int32_t universe_size,
                                   double density, Rng* rng);

}  // namespace tiebreak

#endif  // TIEBREAK_WORKLOAD_DATABASES_H_
