// Shared resource governance for one evaluation request: a wall-clock
// deadline, a cooperative cancellation flag, and unified step/byte budgets,
// observed by every long-running layer (engine fixpoint rounds and join
// kernels, grounder emission, the ground-graph interpreters, the SAT
// solver) through cheap amortized checkpoints.
//
// Contract:
//  * Checkpoints are amortized — once per 64-row kernel block, per stratum
//    round, per grounder emission block, per interpreter worklist drain
//    batch, per SAT restart — never per tuple. A checkpoint is one relaxed
//    atomic load on the already-tripped path and one relaxed fetch_add
//    otherwise; the wall clock is read only when the accumulated step count
//    crosses a stride boundary (kDeadlineStrideSteps), so deadline polling
//    costs amortize over real work.
//  * One context serves a whole parallel fan-out: worker shards charge the
//    same atomics, and the first trip (budget, deadline or Cancel()) sets a
//    shared stop flag that every subsequent checkpoint — on any thread —
//    observes. Layers unwind to a valid state and surface the trip as
//    Status{kResourceExhausted|kDeadlineExceeded|kCancelled} through the
//    normal Result<T> plumbing; the TruncationReport records which layer
//    tripped and how much work was charged by then.
//  * Budget trips are deterministic where the layer's total work is
//    deterministic (the grounder's job list fixes its instance count; the
//    engine's derived-tuple total is fixed by set semantics), independent
//    of thread count or interleaving: the trip decision depends only on
//    the total charge crossing the limit.
//
// Checkpoints also carry the test-only fault-injection hook
// (util/fault_injection.h): when armed, the N-th checkpoint observed
// process-wide cancels its context, which is how the sweep test exercises
// clean unwinding at every checkpoint of a workload.
#ifndef TIEBREAK_UTIL_EXECUTION_CONTEXT_H_
#define TIEBREAK_UTIL_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/status.h"

namespace tiebreak {

/// Limits for one ExecutionContext. Zero means "no limit" everywhere.
struct ResourceLimits {
  /// Wall-clock budget in seconds, measured from context construction.
  /// Values so small the deadline is already past at the first checkpoint
  /// trip deterministically (used by tests).
  double deadline_seconds = 0;
  /// Unified step budget. Steps are the layers' natural work units: rows
  /// scanned by the join kernels, instances emitted by the grounder, atoms
  /// drained by close, rule sweeps by the naive interpreters, SAT
  /// conflicts.
  int64_t max_steps = 0;
  /// Byte budget, charged where allocation sizes are known (engine
  /// relation growth and result materialization, interpreter state).
  int64_t max_bytes = 0;
};

/// Which layer tripped and how much work had been charged by then.
struct TruncationReport {
  StatusCode code = StatusCode::kOk;  ///< kOk = no trip happened.
  std::string layer;                  ///< checkpoint tag, e.g. "engine".
  int64_t steps = 0;                  ///< steps charged at trip time
  int64_t bytes = 0;                  ///< bytes charged at trip time

  /// "" when no trip; "CANCELLED at engine after 4096 steps, 0 bytes"
  /// otherwise.
  std::string ToString() const;
};

/// Deadline + cancellation + unified budgets for one request. Thread-safe:
/// one context may be shared by every worker of a fan-out. All methods are
/// safe to call concurrently; Cancel() may be called from any thread (e.g.
/// a request timeout handler) while an evaluation is running.
class ExecutionContext {
 public:
  /// Steps between wall-clock reads on checkpoints (power of two).
  static constexpr int64_t kDeadlineStrideSteps = 1024;

  /// No limits: checkpoints only observe Cancel().
  ExecutionContext() : ExecutionContext(ResourceLimits{}) {}
  explicit ExecutionContext(const ResourceLimits& limits);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Requests cooperative cancellation; the next checkpoint on any thread
  /// observes it. Idempotent, thread-safe, and callable concurrently with
  /// a running evaluation.
  void Cancel();

  /// True once the context has tripped (cancelled, past deadline, or out
  /// of budget). One relaxed load — cheap enough for between-shard polls.
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// The amortized checkpoint: charges `steps` units of work for `layer`,
  /// then checks the budgets, the cancellation flag and (every
  /// kDeadlineStrideSteps of accumulated charge) the deadline. Returns OK
  /// or the trip Status; after the first trip every call returns the same
  /// Status without further charging.
  Status Checkpoint(const char* layer, int64_t steps);

  /// Charges allocation bytes (no clock read). Returns OK or the trip
  /// Status.
  Status ChargeBytes(const char* layer, int64_t bytes);

  /// Reads the wall clock unconditionally and checks cancellation; for
  /// naturally infrequent boundaries (SAT restarts) where stride-based
  /// decimation would be too coarse.
  Status CheckNow(const char* layer);

  /// OK before any trip; afterwards the Status the tripping checkpoint
  /// returned.
  Status status() const;

  /// Snapshot of the trip (code == kOk when none happened).
  TruncationReport truncation() const;

  int64_t steps_charged() const {
    return steps_.load(std::memory_order_relaxed);
  }
  int64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Records the first trip (later callers keep the original report) and
  /// returns its Status.
  Status Trip(StatusCode code, const char* layer);
  /// The Status for the recorded trip; callable only once tripped.
  Status TrippedStatus() const;

  const int64_t max_steps_;
  const int64_t max_bytes_;
  const bool has_deadline_;
  std::chrono::steady_clock::time_point deadline_;

  std::atomic<int64_t> steps_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<bool> stop_{false};

  // First-trip report; `mu_` orders the write against readers, the
  // `tripped_` flag lets Trip() race safely (first writer wins).
  mutable std::mutex mu_;
  std::atomic<bool> tripped_{false};
  TruncationReport report_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_UTIL_EXECUTION_CONTEXT_H_
