// Shared knobs for the ground-graph interpreters in src/core/.
#ifndef TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
#define TIEBREAK_CORE_INTERPRETER_OPTIONS_H_

#include <cstdint>

namespace tiebreak {

class ExecutionContext;

/// Options accepted by every interpreter entry point that evaluates a
/// ground graph. `num_threads == 1` (the default) runs the serial
/// reference implementation; `> 1` fans the alternating fixpoint's
/// rule-block sweeps and the completion encoder's clause blocks out over a
/// thread pool; `<= 0` means hardware concurrency. `WellFounded`,
/// `TieBreaking` and `PerfectModelGoverned` run serially at every thread
/// count. Every thread count gives bit-identical results. The context,
/// when non-null, governs the run through amortized checkpoints exactly as
/// the serial paths do — the truncation contract (decided atoms agree with
/// the full model, the rest are kUndef) is thread-count independent.
struct InterpreterOptions {
  int32_t num_threads = 1;
  ExecutionContext* context = nullptr;
};

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
