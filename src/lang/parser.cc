#include "lang/parser.h"

#include <sstream>
#include <string>
#include <vector>

namespace tiebreak {

namespace {

// A token is a view into the source text: copying one allocates nothing.
struct Token {
  enum class Kind {
    kIdent,
    kLParen,
    kRParen,
    kComma,
    kPeriod,
    kImplies,  // ":-"
    kBang,     // "!"
    kEnd,
    kError,  // a lexical error; the message is Parser::lex_error_
  };
  Kind kind = Kind::kEnd;
  std::string_view text;  // the identifier's bytes (kIdent only)
  int line = 0;
};

std::string Describe(const Token& token) {
  switch (token.kind) {
    case Token::Kind::kIdent:
      return "identifier '" + std::string(token.text) + "'";
    case Token::Kind::kLParen:
      return "'('";
    case Token::Kind::kRParen:
      return "')'";
    case Token::Kind::kComma:
      return "','";
    case Token::Kind::kPeriod:
      return "'.'";
    case Token::Kind::kImplies:
      return "':-'";
    case Token::Kind::kBang:
      return "'!'";
    case Token::Kind::kEnd:
      return "end of input";
    case Token::Kind::kError:
      return "invalid input";
  }
  return "?";
}

// ASCII letters, digits and '_' (what <cctype> accepts in the C locale).
bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool IsVariableName(std::string_view name) {
  return !name.empty() &&
         (name[0] == '_' || (name[0] >= 'A' && name[0] <= 'Z'));
}

// Shared recursive-descent machinery for programs, databases and patterns.
// The tokenizer is a cursor over the text that scans one token ahead, so a
// parse holds one token at a time whatever the input size. A lexical error
// becomes a kError token that the parser reports when it reaches it: the
// earliest error in the text wins, lexical or syntactic.
class Parser {
 public:
  Parser(std::string_view text, Program* program)
      : text_(text), program_(program) {
    Scan();
  }

  const Token& Peek() const { return token_; }
  // At the end of the text or at a lexical error, scanning again yields the
  // same token.
  Token Take() {
    const Token token = token_;
    Scan();
    return token;
  }

  Status Fail(const std::string& expected) const {
    if (Peek().kind == Token::Kind::kError) {
      return Status::InvalidArgument(lex_error_);
    }
    return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                   ": expected " + expected + ", found " +
                                   Describe(Peek()));
  }

  Status Expect(Token::Kind kind, const std::string& what) {
    if (Peek().kind != kind) return Fail(what);
    Take();
    return Status::Ok();
  }

  // Parses `pred` or `pred(t1, ..., tn)` into `*predicate` and `*args`
  // (cleared first, so callers may reuse one scratch row). Declares the
  // predicate on first use. Variables are numbered by first occurrence in
  // `*variable_names`; when it is null the atom must be ground.
  Status ParseAtom(PredId* predicate, std::vector<Term>* args,
                   std::vector<std::string>* variable_names) {
    if (Peek().kind != Token::Kind::kIdent) return Fail("a predicate name");
    const Token name = Take();
    if (name.text == "not") {
      return Status::InvalidArgument("line " + std::to_string(name.line) +
                                     ": 'not' is a keyword, not a predicate");
    }
    args->clear();
    if (Peek().kind == Token::Kind::kLParen) {
      Take();
      while (true) {
        if (Peek().kind != Token::Kind::kIdent) return Fail("a term");
        const Token term = Take();
        if (!IsVariableName(term.text)) {
          args->push_back(Term::Constant(program_->InternConstant(term.text)));
        } else if (variable_names == nullptr) {
          return Status::InvalidArgument(
              "line " + std::to_string(term.line) + ": variable '" +
              std::string(term.text) + "' not allowed in a ground fact");
        } else {
          // Rules have a handful of variables: a linear scan beats a map.
          std::vector<std::string>& names = *variable_names;
          size_t v = 0;
          while (v < names.size() && names[v] != term.text) ++v;
          if (v == names.size()) names.emplace_back(term.text);
          args->push_back(Term::Variable(static_cast<int32_t>(v)));
        }
        if (Peek().kind == Token::Kind::kComma) {
          Take();
          continue;
        }
        break;
      }
      Status s = Expect(Token::Kind::kRParen, "')'");
      if (!s.ok()) return s;
    }

    const int32_t arity = static_cast<int32_t>(args->size());
    // Declares with this arity, or finds the predicate with its first one.
    *predicate = program_->DeclarePredicate(name.text, arity);
    const int32_t declared = program_->predicate(*predicate).arity;
    if (declared != arity) {
      std::ostringstream msg;
      msg << "line " << name.line << ": predicate " << name.text
          << " used with arity " << arity << " but previously had arity "
          << declared;
      return Status::InvalidArgument(msg.str());
    }
    return Status::Ok();
  }

  // Parses one `head [:- body].` statement into `rule`.
  Status ParseRule(Rule* rule) {
    rule->variable_names.clear();
    Status s = ParseAtom(&rule->head.predicate, &rule->head.args,
                         &rule->variable_names);
    if (!s.ok()) return s;
    if (Peek().kind == Token::Kind::kImplies) {
      Take();
      while (true) {
        Literal literal;
        literal.positive = true;
        if (Peek().kind == Token::Kind::kBang) {
          Take();
          literal.positive = false;
        } else if (Peek().kind == Token::Kind::kIdent &&
                   Peek().text == "not") {
          Take();
          literal.positive = false;
        }
        s = ParseAtom(&literal.atom.predicate, &literal.atom.args,
                      &rule->variable_names);
        if (!s.ok()) return s;
        rule->body.push_back(std::move(literal));
        if (Peek().kind == Token::Kind::kComma) {
          Take();
          continue;
        }
        break;
      }
    }
    rule->num_variables = static_cast<int32_t>(rule->variable_names.size());
    return Expect(Token::Kind::kPeriod, "'.' at end of rule");
  }

 private:
  // Skips whitespace and comments, then scans the next token into token_.
  void Scan() {
    const size_t size = text_.size();
    while (pos_ < size) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c == '%') {  // comment to end of line
        const size_t newline = text_.find('\n', pos_);
        pos_ = newline == std::string_view::npos ? size : newline;
        continue;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
      ++pos_;
    }
    token_.line = line_;
    token_.text = {};
    if (pos_ == size) {
      token_.kind = Token::Kind::kEnd;
      return;
    }
    const char c = text_[pos_];
    switch (c) {
      case '(':
        return Punctuation(Token::Kind::kLParen, 1);
      case ')':
        return Punctuation(Token::Kind::kRParen, 1);
      case ',':
        return Punctuation(Token::Kind::kComma, 1);
      case '.':
        return Punctuation(Token::Kind::kPeriod, 1);
      case '!':
        return Punctuation(Token::Kind::kBang, 1);
      case ':':
        if (pos_ + 1 < size && text_[pos_ + 1] == '-') {
          return Punctuation(Token::Kind::kImplies, 2);
        }
        return LexError("expected ':-'");
      default:
        break;
    }
    if (!IsIdentChar(c)) {
      return LexError("unexpected character '" + std::string(1, c) + "'");
    }
    const size_t start = pos_;
    while (pos_ < size && IsIdentChar(text_[pos_])) ++pos_;
    token_.kind = Token::Kind::kIdent;
    token_.text = text_.substr(start, pos_ - start);
  }

  void Punctuation(Token::Kind kind, size_t length) {
    token_.kind = kind;
    pos_ += length;
  }

  void LexError(const std::string& message) {
    token_.kind = Token::Kind::kError;
    lex_error_ = "line " + std::to_string(line_) + ": " + message;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Token token_;
  std::string lex_error_;
  Program* program_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  Program program;
  Parser parser(text, &program);
  while (parser.Peek().kind != Token::Kind::kEnd) {
    Rule rule;
    Status s = parser.ParseRule(&rule);
    if (!s.ok()) return s;
    program.AddRule(std::move(rule));
  }
  Status s = program.Validate();
  if (!s.ok()) return s;
  return program;
}

Result<Database> ParseDatabase(std::string_view text, Program* program) {
  Parser parser(text, program);
  // Each fact's ids go to a flat row-major bucket of its predicate; the
  // buckets are bulk loaded once at the end, where BulkLoadFlat sorts and
  // dedupes each in one pass (per-fact Insert would shift the relation's
  // tail on every fact). Loading last also lets every implicit predicate
  // declaration land in `program` before the Database takes its arities.
  std::vector<std::vector<ConstId>> buckets(program->num_predicates());
  std::vector<bool> has_facts(program->num_predicates());
  std::vector<Term> row;  // scratch, reused by every fact
  while (parser.Peek().kind != Token::Kind::kEnd) {
    PredId pred;
    Status s = parser.ParseAtom(&pred, &row, /*variable_names=*/nullptr);
    if (!s.ok()) return s;
    s = parser.Expect(Token::Kind::kPeriod, "'.' at end of fact");
    if (!s.ok()) return s;
    if (pred >= static_cast<PredId>(buckets.size())) {
      buckets.resize(pred + 1);
      has_facts.resize(pred + 1);
    }
    has_facts[pred] = true;
    for (const Term& term : row) buckets[pred].push_back(term.index);
  }

  Database database(*program);
  for (PredId p = 0; p < static_cast<PredId>(buckets.size()); ++p) {
    if (!has_facts[p]) continue;
    if (database.arity(p) == 0) {
      database.InsertProposition(p);
    } else {
      database.BulkLoadFlat(p, std::move(buckets[p]));
    }
  }
  return database;
}

Result<AtomPattern> ParseAtomPattern(std::string_view text,
                                     Program* program) {
  Parser parser(text, program);
  // Reject unknown predicates before ParseAtom runs: ParseAtom declares
  // predicates on first use (the program-parsing behavior), and a pattern
  // must never mutate the caller's predicate table — especially not on an
  // error path.
  if (parser.Peek().kind == Token::Kind::kError) {
    return parser.Fail("a predicate name");
  }
  if (parser.Peek().kind != Token::Kind::kIdent) {
    return Status::InvalidArgument("expected a predicate name in pattern: " +
                                   std::string(text));
  }
  if (program->LookupPredicate(parser.Peek().text) < 0) {
    return Status::InvalidArgument("unknown predicate '" +
                                   std::string(parser.Peek().text) +
                                   "' in query pattern: " + std::string(text));
  }
  AtomPattern pattern;
  Status s = parser.ParseAtom(&pattern.atom.predicate, &pattern.atom.args,
                              &pattern.variable_names);
  if (!s.ok()) return s;
  if (parser.Peek().kind == Token::Kind::kPeriod) parser.Take();
  if (parser.Peek().kind != Token::Kind::kEnd) {
    return parser.Fail("end of pattern");
  }
  return pattern;
}

}  // namespace tiebreak
