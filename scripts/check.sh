#!/usr/bin/env bash
# Tier-1 verification: configure + build (-Wall -Wextra, warnings as
# errors) + full ctest suite + docs checks. Run from anywhere; builds into
# build-check/.
#
#   scripts/check.sh [--bench]    --bench additionally runs bench_engine
#                                 and refreshes BENCH_engine.json
#   scripts/check.sh --tsan       builds with -DTIEBREAK_SANITIZE=thread
#                                 into build-tsan/ and runs the concurrency
#                                 surface — the engine (engine_test,
#                                 engine_parallel_test, engine_kernel_test),
#                                 the parallel grounder (ground_test,
#                                 ground_csr_test) and the interpreters'
#                                 fan-outs — the alternating fixpoint's
#                                 rule-block sweeps and the completion
#                                 encoder's clause blocks at {2, 8}
#                                 threads (interpreter_parallel_test) —
#                                 under ThreadSanitizer
#   scripts/check.sh --asan       builds with -DTIEBREAK_SANITIZE=address
#                                 into build-asan/ and runs the grounding
#                                 pipeline surface (ground_test,
#                                 ground_csr_test, core_semantics_test)
#                                 plus the fault-injection sweep
#                                 (fault_injection_test) and the
#                                 thread-count agreement matrix
#                                 (interpreter_parallel_test) under
#                                 AddressSanitizer — the CSR arenas and
#                                 span accessors live or die by their
#                                 offset arithmetic, and every truncation
#                                 unwind path must stay leak-free — plus
#                                 the snapshot corruption-injection sweep
#                                 (storage_test, storage_corruption_test,
#                                 workload_test): hostile bytes must fail
#                                 with a Status, never an overread — plus
#                                 the CDCL clause arena (sat_test): watch
#                                 rewiring, compacting GC and the
#                                 preprocessor all index raw arena words —
#                                 plus the demand-driven query path
#                                 (query_test, query_demand_test): the
#                                 per-predicate atom index and the
#                                 planner's prepared-database reloads are
#                                 raw offset arithmetic over flat arrays —
#                                 plus the text parser (lang_test,
#                                 fuzz_test): the streaming tokenizer
#                                 indexes raw bytes of untrusted text —
#                                 plus the engine (engine_test,
#                                 engine_kernel_test): the sorted EDB load
#                                 and the prefix runs binary-search raw
#                                 column memory, and hostile fact spans
#                                 must fail with a Status, never an
#                                 overread — plus the util substrate
#                                 (util_test): the CRC32C paths do
#                                 alignment arithmetic and 8-byte loads
#                                 at every start offset
#   scripts/check.sh --ubsan      builds with -DTIEBREAK_SANITIZE=undefined
#                                 into build-ubsan/ and runs the resource-
#                                 governance surface (fault sweep, context
#                                 unit tests, engine, grounding, the
#                                 interpreter agreement matrix, reductions)
#                                 and the snapshot corruption sweep under
#                                 UndefinedBehaviorSanitizer — the bytewise
#                                 codec must stay free of misaligned loads
#                                 and shift/overflow UB on hostile input —
#                                 plus the CDCL core (sat_test): the arena
#                                 header bit-packing, float activity
#                                 punning and literal casts must stay
#                                 UB-free — plus the demand-driven query
#                                 path (query_test, query_demand_test),
#                                 the text parser (lang_test, fuzz_test)
#                                 and the engine's access paths
#                                 (engine_test, engine_kernel_test): the
#                                 prefix runs' binary searches and the
#                                 sorted load's row arithmetic must stay
#                                 free of overflow and out-of-range UB —
#                                 plus the util substrate (util_test):
#                                 the CRC32C head/body/tail loops and the
#                                 combine's shifts must stay UB-free
#   scripts/check.sh --docs       only the docs checks: broken relative
#                                 links in *.md, and public-header
#                                 declarations without a doc comment
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

# --------------------------------------------------------------------------
# Docs checks (grep/awk based; no build needed).
# --------------------------------------------------------------------------
check_docs() {
  local failed=0

  # 1. Relative links in markdown must point at existing files. Matches
  #    inline links `](target)`; external (scheme://), mailto and pure
  #    anchor targets are skipped; `path#anchor` checks only the path.
  local md
  while IFS= read -r md; do
    local dir target path
    dir="$(dirname "$md")"
    while IFS= read -r target; do
      [[ -z "$target" ]] && continue
      case "$target" in
        *://*|mailto:*|\#*) continue ;;
      esac
      path="${target%%#*}"
      [[ -z "$path" ]] && continue
      if [[ ! -e "$dir/$path" && ! -e "$repo/$path" ]]; then
        echo "check.sh: broken link in $md -> $target"
        failed=1
      fi
    done < <(grep -oE '\]\([^)[:space:]]+\)' "$md" | sed 's/^](\(.*\))$/\1/')
  done < <(find "$repo" -maxdepth 2 -name '*.md' \
             -not -path "$repo/build*" -not -path "$repo/.git/*")

  # 2. Public headers: every public declaration carries a doc comment.
  #    Grep-based approximation: inside the public section of a class (or at
  #    namespace scope), a declaration line must be directly preceded by a
  #    comment line, a continuation, or another declaration in the same
  #    comment-covered group.
  local header
  for header in src/engine/relation.h src/engine/evaluation.h \
                src/util/thread_pool.h src/lang/database.h \
                src/ground/ground_graph.h src/ground/grounder.h \
                src/ground/close.h src/ground/ground_scc.h \
                src/ground/truth.h src/storage/snapshot.h \
                src/storage/snapshot_store.h src/util/file_io.h; do
    if ! awk -v file="$header" '
      BEGIN { in_private = 0; prev_commented = 0; prev_decl = 0; bad = 0 }
      /^ *private:/ { in_private = 1 }
      /^ *public:/  { in_private = 0; prev_commented = 0; prev_decl = 0; next }
      # Comment lines (and blank lines inside comment runs) arm the flag.
      /^ *\/\// { prev_commented = 1; prev_decl = 0; next }
      /^ *$/ { prev_decl = 0; next }
      {
        if (in_private) { prev_commented = 0; next }
        # A declaration head: starts a member/type at 2-space indent or a
        # free function/struct at column 0, and is not a continuation,
        # closer, macro or using.
        if ($0 ~ /^(  )?[A-Za-z_][A-Za-z0-9_:<>,*& ]*[ &*]([A-Za-z_][A-Za-z0-9_]*)\(/ ||
            $0 ~ /^(  )?(class|struct|enum class) [A-Z]/) {
          if (!prev_commented && !prev_decl) {
            printf "check.sh: undocumented declaration in %s:%d: %s\n",
                   file, NR, $0
            bad = 1
          }
          prev_decl = 1
          next
        }
        # Anything else (continuations, inline bodies, braces, field defs)
        # keeps the declaration group alive — a blank line ends it — and
        # does not re-arm the comment flag.
        prev_commented = 0
      }
      END { exit bad }' "$repo/$header"; then
      failed=1
    fi
  done

  if [[ "$failed" != 0 ]]; then
    echo "check.sh: docs checks FAILED"
    return 1
  fi
  echo "check.sh: docs green"
}

if [[ "${1:-}" == "--docs" ]]; then
  check_docs
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  build="$repo/build-tsan"
  cmake -B "$build" -S "$repo" -DTIEBREAK_SANITIZE=thread
  cmake --build "$build" -j "$(nproc)" \
    --target engine_test engine_parallel_test engine_kernel_test \
             ground_test ground_csr_test interpreter_parallel_test
  # TSan aborts with a non-zero exit on the first data race; halt_on_error
  # keeps the report readable.
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$build" \
    --output-on-failure \
    -R '^(engine_(parallel_|kernel_)?test|ground_(csr_)?test|interpreter_parallel_test)$'
  echo "check.sh: tsan green"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  build="$repo/build-asan"
  cmake -B "$build" -S "$repo" -DTIEBREAK_SANITIZE=address
  cmake --build "$build" -j "$(nproc)" \
    --target ground_test ground_csr_test core_semantics_test \
             fault_injection_test interpreter_parallel_test storage_test \
             storage_corruption_test workload_test sat_test query_test \
             query_demand_test lang_test fuzz_test engine_test \
             engine_kernel_test util_test
  ASAN_OPTIONS="halt_on_error=1" ctest --test-dir "$build" \
    --output-on-failure \
    -R '^(ground_(csr_)?test|core_semantics_test|fault_injection_test|interpreter_parallel_test|storage_(corruption_)?test|workload_test|sat_test|query_(demand_)?test|lang_test|fuzz_test|engine_(kernel_)?test|util_test)$'
  echo "check.sh: asan green"
  exit 0
fi

if [[ "${1:-}" == "--ubsan" ]]; then
  build="$repo/build-ubsan"
  cmake -B "$build" -S "$repo" -DTIEBREAK_SANITIZE=undefined
  cmake --build "$build" -j "$(nproc)" \
    --target fault_injection_test execution_context_test engine_test \
             ground_test ground_csr_test interpreter_parallel_test \
             reductions_test storage_test storage_corruption_test \
             workload_test sat_test query_test query_demand_test lang_test \
             fuzz_test engine_kernel_test util_test
  UBSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$build" \
    --output-on-failure \
    -R '^(fault_injection_test|execution_context_test|engine_(kernel_)?test|ground_(csr_)?test|interpreter_parallel_test|reductions_test|storage_(corruption_)?test|workload_test|sat_test|query_(demand_)?test|lang_test|fuzz_test|util_test)$'
  echo "check.sh: ubsan green"
  exit 0
fi

build="$repo/build-check"

cmake -B "$build" -S "$repo" -DTIEBREAK_WERROR=ON
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

check_docs

if [[ "${1:-}" == "--bench" ]]; then
  (cd "$repo" && "$build/bench_engine" BENCH_engine.json)
fi

echo "check.sh: all green"
