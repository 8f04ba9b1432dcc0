// The initial database Δ: a finite set of ground facts for the predicates of
// one Program. Following the paper, Δ may contain facts for EDB *and* IDB
// predicates (uniform case); the nonuniform case simply uses a Δ whose IDB
// relations are empty.
#ifndef TIEBREAK_LANG_DATABASE_H_
#define TIEBREAK_LANG_DATABASE_H_

#include <cstdint>
#include <vector>

#include "lang/program.h"
#include "lang/symbols.h"

namespace tiebreak {

/// A borrowed, read-only view of one relation's flat fact arena: `rows`
/// row-major facts (each arity consecutive ConstIds) at `data`. The
/// engine's borrowed-EDB entry point (the Span<const FactSpan> overload of
/// EvaluateStratified) consumes these directly, so callers that already
/// hold a Database — the grounder above all — hand its arenas to the
/// engine with zero copies. Valid until the owning storage mutates. For
/// arity-0 relations `data` is meaningless and `rows` is 0 or 1.
struct FactSpan {
  const ConstId* data = nullptr;
  int64_t rows = 0;
};

/// A set of ground tuples per predicate in flat columnar storage: each
/// relation is one contiguous ConstId arena holding its rows back-to-back
/// (row r of an arity-k relation occupies entries [r*k, (r+1)*k)), kept
/// sorted lexicographically and duplicate-free. Set semantics with
/// deterministic iteration order, zero per-tuple heap vectors: bulk loads
/// of sorted data are O(n) moves of one flat buffer, membership is a
/// binary search over rows, and consumers (the grounder, the engine's EDB
/// loader) read the arena directly without materializing a Tuple per fact.
/// Per-tuple Insert shifts the arena tail (O(n)); callers building large
/// relations use BulkLoad / BulkLoadFlat.
///
/// Thread safety: const access (FactData, Contains, TotalFacts, ...) is
/// safe from multiple threads; any mutation requires exclusive access.
class Database {
 public:
  /// Creates an empty database shaped after `program`'s predicates. Only the
  /// arity vector is captured; the program may intern more constants later.
  explicit Database(const Program& program);

  /// Storage restore path (src/storage/): reconstructs a database from
  /// arenas read off disk, treating every input as untrusted. Validates
  /// the full invariant set — matching vector sizes, nonnegative arities
  /// and row counts, `rows[p].size() == num_rows[p] * arity[p]` (zero-arity
  /// relations carry no data and 0 or 1 row), every ConstId in
  /// [0, num_constants), and every relation sorted lexicographically with
  /// no duplicate rows — and returns kDataLoss instead of constructing on
  /// any violation. A database this returns is indistinguishable from one
  /// built through Insert/BulkLoadFlat of the same facts.
  static Result<Database> FromArenas(std::vector<int32_t> arities,
                                     std::vector<int64_t> num_rows,
                                     std::vector<std::vector<ConstId>> rows,
                                     int32_t num_constants);

  /// Inserts a fact; duplicate inserts are no-ops. Arity is CHECKed.
  /// Remains O(relation size) per call (it shifts the sorted arena's tail),
  /// so n inserts cost O(n²): meant for small/interactive loads only. Bulk
  /// sources — the text parser, the generators — go through BulkLoadFlat.
  void Insert(PredId predicate, Tuple tuple);

  /// Streaming-append path for large relations: takes the rows in one flat
  /// row-major buffer (count × arity ids), sorts them lexicographically
  /// (skipped when already sorted; arity ≤ 2 sorts packed machine words
  /// instead of permuting rows), drops duplicates, and loads them in one
  /// pass — a plain buffer move when the relation is empty, a linear merge
  /// otherwise. No Tuple is ever allocated. Million-tuple EDB generators
  /// and the engine's result materialization use this; the resulting
  /// database is identical to per-tuple Insert of the same facts. Arity 0
  /// is rejected (use InsertProposition).
  void BulkLoadFlat(PredId predicate, std::vector<ConstId>&& values);

  /// Tuple-vector convenience wrapper around BulkLoadFlat (flattens, then
  /// delegates); kept for callers that naturally hold std::vector<Tuple>.
  void BulkLoad(PredId predicate, std::vector<Tuple>&& tuples);

  /// Convenience for zero-arity predicates.
  void InsertProposition(PredId predicate) { Insert(predicate, Tuple{}); }

  /// Removes every fact of `predicate`'s relation (arity unchanged), making
  /// the next BulkLoadFlat a plain buffer move — the clear-and-reload cycle
  /// the query planner runs on a plan's magic relations per request.
  void ClearRelation(PredId predicate) {
    CheckPredicate(predicate);
    num_rows_[predicate] = 0;
    rows_[predicate].clear();
  }

  /// True iff the fact is present (binary search over the flat rows).
  bool Contains(PredId predicate, const Tuple& tuple) const;

  /// Contains() for a borrowed row of arity(predicate) consecutive ids —
  /// the no-allocation form hot loops use (scratch buffers, arena rows).
  bool ContainsRow(PredId predicate, const ConstId* row) const;

  /// Declared arity of `predicate`'s relation.
  int32_t arity(PredId predicate) const {
    CheckPredicate(predicate);
    return arities_[predicate];
  }

  /// Number of facts in `predicate`'s relation.
  int64_t NumFacts(PredId predicate) const {
    CheckPredicate(predicate);
    return num_rows_[predicate];
  }

  /// The relation's flat row-major arena: NumFacts() rows of arity() ids,
  /// sorted lexicographically, duplicate-free. Valid until the next
  /// mutation of this predicate's relation. Empty (possibly null) for
  /// zero-arity predicates — presence is NumFacts() ∈ {0, 1}.
  const ConstId* FactData(PredId predicate) const {
    CheckPredicate(predicate);
    return rows_[predicate].data();
  }

  /// The relation's arena as a borrowed FactSpan — the zero-copy handle
  /// the engine's borrowed-EDB evaluation path consumes (see FactSpan).
  FactSpan Facts(PredId predicate) const {
    return FactSpan{FactData(predicate), NumFacts(predicate)};
  }

  /// Pointer to fact `row`'s arity() consecutive ids.
  const ConstId* FactRow(PredId predicate, int64_t row) const {
    return FactData(predicate) +
           row * static_cast<int64_t>(arities_[predicate]);
  }

  /// Materializes fact `row` as an owned Tuple (convenience; allocates).
  Tuple FactTuple(PredId predicate, int64_t row) const;

  /// Materializes the whole relation as owned Tuples, in sorted order
  /// (convenience for tests and printing; allocates one vector per fact).
  std::vector<Tuple> Tuples(PredId predicate) const;

  /// Number of relations (one per predicate of the shaping program).
  int32_t num_predicates() const {
    return static_cast<int32_t>(arities_.size());
  }

  /// Total fact count across all relations.
  int64_t TotalFacts() const;

  /// All constants mentioned by some fact, deduplicated ascending.
  std::vector<ConstId> ReferencedConstants() const;

  friend bool operator==(const Database&, const Database&) = default;

 private:
  // Uninitialized shell for FromArenas, which fills the members directly.
  Database() = default;

  void CheckPredicate(PredId predicate) const {
    TIEBREAK_CHECK_GE(predicate, 0);
    TIEBREAK_CHECK_LT(predicate, num_predicates());
  }
  // Index of the first row >= `row` in sorted order (= num rows when all
  // are smaller).
  int64_t LowerBound(PredId predicate, const ConstId* row) const;

  std::vector<int32_t> arities_;
  // Rows per relation. Tracked separately from the arena size because
  // arity-0 relations carry no ids at all (0 or 1 row, no data).
  std::vector<int64_t> num_rows_;
  // One flat row-major arena per relation; see FactData().
  std::vector<std::vector<ConstId>> rows_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_DATABASE_H_
