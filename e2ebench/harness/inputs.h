// Seeded input generators and the independent answer oracles of the three
// workloads. The generators live here, not in the library: the library
// receives only the program and database text they produce, and the same
// seed gives byte-identical text.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/game_solver.h"

namespace e2ebench {

// splitmix64: the benchmark's own generator, so library changes cannot
// change the inputs.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// A random win/move board: `draws` uniform (from, to) pairs over `nodes`
// positions named n0, n1, ...; repeated draws collapse.
struct Board {
  int32_t nodes = 0;
  std::string program_text;
  std::string edb_text;
  // Game value of every position by retrograde analysis (the WF oracle).
  std::vector<tiebreak::GameValue> values;
};
Board MakeBoard(int32_t nodes, int64_t draws, uint64_t seed);

// The Theorem-6 program of the transfer counter machine with `k` pumps,
// over the natural database {0..t}, facts in seeded order.
struct TransferInput {
  int32_t t = 0;
  std::string program_text;
  std::string edb_text;
  // Every (time, state) of the machine's run up to time t, from
  // CounterMachine::Run and the machine's transition table.
  std::vector<std::pair<int32_t, int32_t>> trajectory;
};
TransferInput MakeTransfer(int32_t k, int32_t t, uint64_t seed);

// One program holding win/move and same-generation, over a `chain_nodes`
// move chain c0 -> c1 -> ... and a balanced binary tree of `tree_depth`
// levels below the root, nodes t1 .. t(2^(depth+1) - 1) in heap order with
// up/down/sibling edges. Facts in seeded order.
struct ServeInput {
  int32_t chain_nodes = 0;
  int32_t tree_depth = 0;
  std::string program_text;
  std::string edb_text;
};
ServeInput MakeServe(int32_t chain_nodes, int32_t tree_depth, uint64_t seed);

inline int32_t TreeNodes(int32_t depth) { return (1 << (depth + 1)) - 1; }
// Depth of heap node `i` (root 1 has depth 0).
inline int32_t HeapDepth(int32_t i) { return 31 - __builtin_clz(i); }
// win(c_j) on the chain: the last node has no move and loses, so c_j wins
// iff an odd number of moves separates it from the end.
inline bool ChainWins(int32_t chain_nodes, int32_t j) {
  return (chain_nodes - 1 - j) % 2 == 1;
}

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
