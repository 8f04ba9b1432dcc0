#include "inputs.h"

#include <string>
#include <vector>

#include "lang/printer.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "util/logging.h"

namespace e2ebench {
namespace {

// Joins `lines` in a seeded random order.
std::string ShuffledText(std::vector<std::string> lines, SeededRng* rng) {
  for (size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng->Below(i)]);
  }
  std::string text;
  for (const std::string& line : lines) text += line;
  return text;
}

}  // namespace

Board MakeBoard(int32_t nodes, int64_t draws, uint64_t seed) {
  SeededRng rng(seed);
  Board board;
  board.nodes = nodes;
  board.program_text = "win(X) :- move(X, Y), not win(Y).\n";
  std::vector<std::vector<int32_t>> moves(nodes);
  board.edb_text.reserve(static_cast<size_t>(draws) * 24);
  for (int64_t i = 0; i < draws; ++i) {
    const int32_t from = static_cast<int32_t>(rng.Below(nodes));
    const int32_t to = static_cast<int32_t>(rng.Below(nodes));
    moves[from].push_back(to);
    board.edb_text += "move(n" + std::to_string(from) + ", n" +
                      std::to_string(to) + ").\n";
  }
  board.values = tiebreak::SolveGame(moves);
  return board;
}

TransferInput MakeTransfer(int32_t k, int32_t t, uint64_t seed) {
  SeededRng rng(seed);
  const tiebreak::CounterMachine machine = tiebreak::MakeTransferMachine(k);
  TransferInput input;
  input.t = t;
  input.program_text = tiebreak::ProgramToString(
      tiebreak::CounterMachineToProgram(machine).program);

  std::vector<std::string> facts;
  facts.push_back("zero(0).\n");
  for (int32_t i = 0; i < t; ++i) {
    facts.push_back("succ(" + std::to_string(i) + ", " +
                    std::to_string(i + 1) + ").\n");
  }
  for (int32_t i = 0; i <= t; ++i) {
    for (int32_t j = i + 1; j <= t; ++j) {
      facts.push_back("less(" + std::to_string(i) + ", " + std::to_string(j) +
                      ").\n");
    }
  }
  input.edb_text = ShuffledText(std::move(facts), &rng);

  // The run's configurations at times 0..t, stepped through the machine's
  // transition table and cross-checked against CounterMachine::Run.
  int32_t state = 0;
  int64_t c1 = 0, c2 = 0;
  input.trajectory.emplace_back(0, state);
  for (int32_t time = 0; time < t && state != machine.halt_state(); ++time) {
    const tiebreak::CmAction& action = machine.Action(state, c1 == 0, c2 == 0);
    state = action.next_state;
    c1 += action.delta1;
    c2 += action.delta2;
    input.trajectory.emplace_back(time + 1, state);
  }
  const tiebreak::CounterMachine::RunResult run = machine.Run(t);
  const int64_t steps = static_cast<int64_t>(input.trajectory.size()) - 1;
  TIEBREAK_CHECK_EQ(run.halted, state == machine.halt_state());
  TIEBREAK_CHECK_EQ(run.halted ? run.steps : int64_t{t}, steps);
  TIEBREAK_CHECK_EQ(run.final_c1, c1);
  TIEBREAK_CHECK_EQ(run.final_c2, c2);
  return input;
}

ServeInput MakeServe(int32_t chain_nodes, int32_t tree_depth, uint64_t seed) {
  SeededRng rng(seed);
  ServeInput input;
  input.chain_nodes = chain_nodes;
  input.tree_depth = tree_depth;
  input.program_text =
      "win(X) :- move(X, Y), not win(Y).\n"
      "sg(X, Y) :- sibling(X, Y).\n"
      "sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).\n";
  std::vector<std::string> facts;
  for (int32_t j = 0; j + 1 < chain_nodes; ++j) {
    facts.push_back("move(c" + std::to_string(j) + ", c" +
                    std::to_string(j + 1) + ").\n");
  }
  const int32_t tree_nodes = TreeNodes(tree_depth);
  for (int32_t child = 2; child <= tree_nodes; ++child) {
    const std::string c = "t" + std::to_string(child);
    const std::string p = "t" + std::to_string(child / 2);
    facts.push_back("up(" + c + ", " + p + ").\n");
    facts.push_back("down(" + p + ", " + c + ").\n");
    const std::string s = "t" + std::to_string(child ^ 1);
    facts.push_back("sibling(" + c + ", " + s + ").\n");
  }
  input.edb_text = ShuffledText(std::move(facts), &rng);
  return input;
}

}  // namespace e2ebench
