// Test oracle: the reduced ground graph G(Π, Δ) built by a tuple-at-a-time
// backtracking join of each rule's positive EDB literals against Δ, with the
// variables they leave free enumerated over the universe. It shares no code
// with the grounder's engine-backed pipeline: it computes its own universe,
// builds the graph only through GroundGraph's public Intern / AppendRule /
// Finalize, and has no budget, context, thread count or arity cap. The
// agreement tests compare Ground's graph at every thread count against it by
// atom key and rule-instance multiset.
#ifndef TIEBREAK_TESTS_REFERENCE_GROUNDER_H_
#define TIEBREAK_TESTS_REFERENCE_GROUNDER_H_

#include <cstdint>
#include <set>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {
namespace testing_util {

/// Reduced grounding of `program` over `database` (GroundingOptions
/// defaults, bindings not recorded).
class ReferenceGrounder {
 public:
  ReferenceGrounder(const Program& program, const Database& database)
      : program_(program), database_(database) {}

  /// Builds and finalizes the graph.
  GroundingResult Run() {
    GroundingResult result;
    std::set<ConstId> constants;
    for (PredId p = 0; p < database_.num_predicates(); ++p) {
      for (int64_t row = 0; row < database_.NumFacts(p); ++row) {
        const Tuple tuple = database_.FactTuple(p, row);
        constants.insert(tuple.begin(), tuple.end());
      }
    }
    for (const Rule& rule : program_.rules()) {
      AddConstants(rule.head, &constants);
      for (const Literal& literal : rule.body) {
        AddConstants(literal.atom, &constants);
      }
    }
    universe_.assign(constants.begin(), constants.end());
    graph_ = &result.graph;
    // Δ's IDB atoms are nodes: they carry initial truth values.
    for (PredId p = 0; p < database_.num_predicates(); ++p) {
      if (program_.IsEdb(p)) continue;
      for (int64_t row = 0; row < database_.NumFacts(p); ++row) {
        graph_->atoms().Intern(p, database_.FactTuple(p, row));
      }
    }
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      const Rule& rule = program_.rule(r);
      std::vector<int32_t> generators;
      for (int32_t b = 0; b < static_cast<int32_t>(rule.body.size()); ++b) {
        if (rule.body[b].positive &&
            program_.IsEdb(rule.body[b].atom.predicate)) {
          generators.push_back(b);
        }
      }
      binding_.assign(rule.num_variables, -1);
      Match(r, generators, 0);
    }
    result.graph.Finalize();
    result.universe = universe_;
    return result;
  }

 private:
  static void AddConstants(const Atom& atom, std::set<ConstId>* constants) {
    for (const Term& term : atom.args) {
      if (term.is_constant()) constants->insert(term.index);
    }
  }

  // Unifies generator `g` onward with every fact of Δ under binding_.
  void Match(int32_t r, const std::vector<int32_t>& generators, size_t g) {
    if (g == generators.size()) {
      EnumerateFree(r);
      return;
    }
    const Atom& atom = program_.rule(r).body[generators[g]].atom;
    for (int64_t row = 0; row < database_.NumFacts(atom.predicate); ++row) {
      const Tuple fact = database_.FactTuple(atom.predicate, row);
      std::vector<int32_t> bound_here;
      bool match = true;
      for (size_t i = 0; match && i < atom.args.size(); ++i) {
        const Term& term = atom.args[i];
        if (term.is_constant()) {
          match = term.index == fact[i];
        } else if (binding_[term.index] >= 0) {
          match = binding_[term.index] == fact[i];
        } else {
          binding_[term.index] = fact[i];
          bound_here.push_back(term.index);
        }
      }
      if (match) Match(r, generators, g + 1);
      for (int32_t var : bound_here) binding_[var] = -1;
    }
  }

  // Emits one instance per assignment of the still-unbound variables over
  // the universe (one instance when none is unbound).
  void EnumerateFree(int32_t r) {
    std::vector<int32_t> free_vars;
    for (int32_t v = 0; v < static_cast<int32_t>(binding_.size()); ++v) {
      if (binding_[v] < 0) free_vars.push_back(v);
    }
    if (!free_vars.empty() && universe_.empty()) return;
    std::vector<size_t> odometer(free_vars.size(), 0);
    while (true) {
      for (size_t i = 0; i < free_vars.size(); ++i) {
        binding_[free_vars[i]] = universe_[odometer[i]];
      }
      Emit(r);
      int32_t pos = static_cast<int32_t>(free_vars.size()) - 1;
      while (pos >= 0 && ++odometer[pos] == universe_.size()) {
        odometer[pos--] = 0;
      }
      if (pos < 0) break;
    }
    for (int32_t var : free_vars) binding_[var] = -1;
  }

  Tuple Substitute(const Atom& atom) const {
    Tuple tuple;
    for (const Term& term : atom.args) {
      tuple.push_back(term.is_constant() ? term.index
                                         : binding_[term.index]);
    }
    return tuple;
  }

  // A true negated EDB literal drops the instance (atoms interned before it
  // stay); satisfied EDB literals leave no edge.
  void Emit(int32_t r) {
    const Rule& rule = program_.rule(r);
    std::vector<AtomId> positive;
    std::vector<AtomId> negative;
    for (const Literal& literal : rule.body) {
      const PredId pred = literal.atom.predicate;
      if (program_.IsEdb(pred)) {
        if (!literal.positive &&
            database_.Contains(pred, Substitute(literal.atom))) {
          return;
        }
        continue;
      }
      const AtomId atom =
          graph_->atoms().Intern(pred, Substitute(literal.atom));
      (literal.positive ? positive : negative).push_back(atom);
    }
    const AtomId head =
        graph_->atoms().Intern(rule.head.predicate, Substitute(rule.head));
    graph_->AppendRule(r, head, positive.data(),
                       static_cast<int32_t>(positive.size()), negative.data(),
                       static_cast<int32_t>(negative.size()), nullptr, 0);
  }

  const Program& program_;
  const Database& database_;
  std::vector<ConstId> universe_;
  GroundGraph* graph_ = nullptr;
  Tuple binding_;
};

/// The reference reduced grounding of `program` over `database`.
inline GroundingResult ReferenceGround(const Program& program,
                                       const Database& database) {
  return ReferenceGrounder(program, database).Run();
}

}  // namespace testing_util
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_GROUNDER_H_
