#include "lang/program.h"

#include <sstream>
#include <string>

namespace tiebreak {

PredId Program::DeclarePredicate(std::string_view name, int32_t arity) {
  const int32_t existing = predicate_names_.Lookup(name);
  if (existing >= 0) return existing;
  const PredId id = predicate_names_.Intern(name);
  predicates_.push_back(PredicateInfo{std::string(name), arity});
  head_index_valid_ = false;
  return id;
}

Program Program::VocabularyCopy() const {
  Program copy;
  copy.predicates_ = predicates_;
  copy.predicate_names_ = predicate_names_;
  copy.constants_ = constants_;
  return copy;
}

void Program::AddRule(Rule rule) {
  rules_.push_back(std::move(rule));
  head_index_valid_ = false;
}

namespace {

Status CheckAtomShape(const Program& program, const Atom& atom,
                      int32_t num_variables, const char* where,
                      int32_t rule_index) {
  // The context text is built only on failure: Ground validates on every
  // call, so the success path stays allocation-free.
  auto ctx = [&] {
    return std::string(where) + " of rule " + std::to_string(rule_index);
  };
  if (atom.predicate < 0 || atom.predicate >= program.num_predicates()) {
    return Status::InvalidArgument("undeclared predicate in " + ctx());
  }
  const PredicateInfo& info = program.predicate(atom.predicate);
  if (static_cast<int32_t>(atom.args.size()) != info.arity) {
    std::ostringstream msg;
    msg << "predicate " << info.name << " declared with arity " << info.arity
        << " but used with " << atom.args.size() << " arguments in "
        << ctx();
    return Status::InvalidArgument(msg.str());
  }
  for (const Term& term : atom.args) {
    if (term.is_variable()) {
      if (term.index < 0 || term.index >= num_variables) {
        return Status::InvalidArgument("variable index out of range in " +
                                       ctx());
      }
    } else {
      if (term.index < 0 || term.index >= program.num_constants()) {
        return Status::InvalidArgument("constant index out of range in " +
                                       ctx());
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status Program::Validate() const {
  for (int32_t r = 0; r < num_rules(); ++r) {
    const Rule& rule = rules_[r];
    if (rule.num_variables < 0) {
      return Status::InvalidArgument("negative variable count");
    }
    if (static_cast<int32_t>(rule.variable_names.size()) !=
        rule.num_variables) {
      return Status::InvalidArgument("variable_names size mismatch in rule " +
                                     std::to_string(r));
    }
    Status s = CheckAtomShape(*this, rule.head, rule.num_variables, "head", r);
    if (!s.ok()) return s;
    for (const Literal& lit : rule.body) {
      s = CheckAtomShape(*this, lit.atom, rule.num_variables, "body", r);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

void Program::EnsureHeadIndex() const {
  if (head_index_valid_) return;
  rules_by_head_.assign(predicates_.size(), {});
  for (int32_t r = 0; r < num_rules(); ++r) {
    const PredId head = rules_[r].head.predicate;
    TIEBREAK_CHECK_GE(head, 0);
    TIEBREAK_CHECK_LT(head, num_predicates());
    rules_by_head_[head].push_back(r);
  }
  head_index_valid_ = true;
}

bool Program::IsEdb(PredId p) const {
  EnsureHeadIndex();
  TIEBREAK_CHECK_GE(p, 0);
  TIEBREAK_CHECK_LT(p, num_predicates());
  return rules_by_head_[p].empty();
}

const std::vector<int32_t>& Program::RulesWithHead(PredId p) const {
  EnsureHeadIndex();
  TIEBREAK_CHECK_GE(p, 0);
  TIEBREAK_CHECK_LT(p, num_predicates());
  return rules_by_head_[p];
}

std::vector<PredId> Program::EdbPredicates() const {
  std::vector<PredId> result;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (IsEdb(p)) result.push_back(p);
  }
  return result;
}

std::vector<PredId> Program::IdbPredicates() const {
  std::vector<PredId> result;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (!IsEdb(p)) result.push_back(p);
  }
  return result;
}

}  // namespace tiebreak
