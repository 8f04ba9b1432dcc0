// Tests for the language layer: parsing, printing (round-trips), program
// validation, EDB/IDB classification, databases, skeletons / alphabetic
// variants, and the program graph G(Π).
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/program.h"
#include "lang/program_graph.h"
#include "lang/skeleton.h"
#include "util/random.h"

namespace tiebreak {
namespace {

Program MustParse(const std::string& text) {
  Result<Program> result = ParseProgram(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << text;
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

TEST(ParserTest, WinMoveProgram) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  EXPECT_EQ(p.num_rules(), 1);
  EXPECT_EQ(p.num_predicates(), 2);
  const PredId win = p.LookupPredicate("win");
  const PredId move = p.LookupPredicate("move");
  ASSERT_GE(win, 0);
  ASSERT_GE(move, 0);
  EXPECT_EQ(p.predicate(win).arity, 1);
  EXPECT_EQ(p.predicate(move).arity, 2);
  EXPECT_FALSE(p.IsEdb(win));
  EXPECT_TRUE(p.IsEdb(move));

  const Rule& rule = p.rule(0);
  EXPECT_EQ(rule.num_variables, 2);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_TRUE(rule.body[0].positive);
  EXPECT_FALSE(rule.body[1].positive);
  EXPECT_EQ(rule.head.predicate, win);
  EXPECT_TRUE(rule.head.args[0].is_variable());
}

TEST(ParserTest, ZeroArityAtomsAndBangNegation) {
  Program p = MustParse("p :- !q, r.\nq :- not p.");
  EXPECT_EQ(p.num_predicates(), 3);
  EXPECT_EQ(p.rule(0).body[0].positive, false);
  EXPECT_EQ(p.rule(0).body[1].positive, true);
  EXPECT_TRUE(p.IsEdb(p.LookupPredicate("r")));
}

TEST(ParserTest, ConstantsAndVariablesDistinguishedByCase) {
  Program p = MustParse("P(a) :- not P(X), E(b).");  // paper's program (1)
  const Rule& rule = p.rule(0);
  EXPECT_TRUE(rule.head.args[0].is_constant());
  EXPECT_TRUE(rule.body[0].atom.args[0].is_variable());
  EXPECT_TRUE(rule.body[1].atom.args[0].is_constant());
  EXPECT_EQ(p.constant_name(rule.head.args[0].index), "a");
  EXPECT_EQ(p.constant_name(rule.body[1].atom.args[0].index), "b");
}

TEST(ParserTest, UnderscorePrefixedIdentifierIsVariable) {
  Program p = MustParse("q(_x, _x) :- e(_x).");
  EXPECT_EQ(p.rule(0).num_variables, 1);
}

TEST(ParserTest, NumericConstants) {
  Program p = MustParse("succ_used(X) :- succ(0, X).");
  EXPECT_GE(p.LookupConstant("0"), 0);
}

TEST(ParserTest, CommentsAndWhitespace) {
  Program p = MustParse(
      "% a comment line\n"
      "p :- q.   % trailing comment\n"
      "\n"
      "q.\n");
  EXPECT_EQ(p.num_rules(), 2);
  EXPECT_TRUE(p.rule(1).body.empty());
}

TEST(ParserTest, EmptyBodyRuleIsFact) {
  Program p = MustParse("seed(a).");
  EXPECT_EQ(p.num_rules(), 1);
  EXPECT_TRUE(p.rule(0).body.empty());
  EXPECT_FALSE(p.IsEdb(p.LookupPredicate("seed")));  // head of a rule
}

TEST(ParserTest, RepeatedVariablesShareIndex) {
  Program p = MustParse("diag(X, X) :- e(X, Y), e(Y, X).");
  const Rule& rule = p.rule(0);
  EXPECT_EQ(rule.num_variables, 2);
  EXPECT_EQ(rule.head.args[0], rule.head.args[1]);
}

TEST(ParserErrorTest, ArityMismatchRejected) {
  Result<Program> r = ParseProgram("p(a). q :- p(a, b).");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("arity"), std::string::npos);
}

TEST(ParserErrorTest, MissingPeriodRejected) {
  EXPECT_FALSE(ParseProgram("p :- q").ok());
}

TEST(ParserErrorTest, NotAsPredicateRejected) {
  EXPECT_FALSE(ParseProgram("not :- p.").ok());
}

TEST(ParserErrorTest, UnexpectedCharacterRejected) {
  Result<Program> r = ParseProgram("p :- q & r.");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserErrorTest, DanglingColonRejected) {
  EXPECT_FALSE(ParseProgram("p : q.").ok());
}

// ---------------------------------------------------------------------------
// Databases.
// ---------------------------------------------------------------------------

TEST(DatabaseTest, ParseAndQuery) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  Result<Database> db = ParseDatabase("move(a, b). move(b, c).", &p);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const PredId move = p.LookupPredicate("move");
  const ConstId a = p.LookupConstant("a");
  const ConstId b = p.LookupConstant("b");
  const ConstId c = p.LookupConstant("c");
  EXPECT_TRUE(db->Contains(move, {a, b}));
  EXPECT_TRUE(db->Contains(move, {b, c}));
  EXPECT_FALSE(db->Contains(move, {a, c}));
  EXPECT_EQ(db->TotalFacts(), 2);
  EXPECT_EQ(db->ReferencedConstants().size(), 3u);
}

TEST(DatabaseTest, ImplicitPredicateDeclaration) {
  Program p = MustParse("p :- q.");
  Result<Database> db = ParseDatabase("extra(a, b).", &p);
  ASSERT_TRUE(db.ok());
  const PredId extra = p.LookupPredicate("extra");
  ASSERT_GE(extra, 0);
  EXPECT_TRUE(p.IsEdb(extra));
  EXPECT_EQ(p.predicate(extra).arity, 2);
}

TEST(DatabaseTest, VariablesInFactsRejected) {
  Program p = MustParse("p :- q.");
  EXPECT_FALSE(ParseDatabase("e(X).", &p).ok());
}

TEST(DatabaseTest, ZeroArityFacts) {
  Program p = MustParse("p :- q, not r.");
  Result<Database> db = ParseDatabase("q. r.", &p);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->Contains(p.LookupPredicate("q"), {}));
  EXPECT_TRUE(db->Contains(p.LookupPredicate("r"), {}));
}

TEST(DatabaseTest, DuplicateInsertIsNoOp) {
  Program p = MustParse("p(X) :- e(X).");
  Database db(p);
  const ConstId a = p.InternConstant("a");
  const PredId e = p.LookupPredicate("e");
  db.Insert(e, {a});
  db.Insert(e, {a});
  EXPECT_EQ(db.TotalFacts(), 1);
}

TEST(DatabaseTest, BulkLoadMatchesPerTupleInsert) {
  // BulkLoad promises the same database as per-tuple Insert of the same
  // facts — including the merge-into-non-empty branch: load two
  // overlapping batches (with internal duplicates, unsorted) into one
  // predicate and compare against the insert-built twin.
  Program p = MustParse("p(X, Y) :- e(X, Y).");
  const PredId e = p.LookupPredicate("e");
  std::vector<ConstId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(p.InternConstant("c" + std::to_string(i)));
  }
  std::vector<Tuple> batch1, batch2;
  for (int i = 39; i >= 0; --i) {
    batch1.push_back({ids[i], ids[(i * 7) % 40]});
    batch1.push_back({ids[i], ids[(i * 7) % 40]});  // in-batch duplicate
  }
  for (int i = 0; i < 40; i += 3) {
    batch2.push_back({ids[i], ids[(i * 7) % 40]});   // overlaps batch1
    batch2.push_back({ids[(i * 11) % 40], ids[i]});  // mostly new
  }

  Database bulk(p);
  Database reference(p);
  for (const Tuple& t : batch1) reference.Insert(e, t);
  for (const Tuple& t : batch2) reference.Insert(e, t);
  bulk.BulkLoad(e, std::move(batch1));
  bulk.BulkLoad(e, std::move(batch2));  // second load merges into non-empty
  EXPECT_TRUE(bulk == reference);
  EXPECT_EQ(bulk.TotalFacts(), reference.TotalFacts());
}

// Differential test of ParseDatabase against one Insert per fact: seeded
// random texts over arities 0-3 with duplicate facts, interleaved and
// out-of-order predicates, '%' comments, CRLF line ends, and predicates
// first seen in the database. The expected ids are computed here from
// first occurrence, independently of the symbol table.
TEST(DatabaseTest, ParseMatchesPerFactInsert) {
  struct Pred {
    const char* name;
    int arity;
  };
  // e/2, q/3 and s/0 are declared by the program; the rest are new.
  const std::vector<Pred> preds = {{"e", 2}, {"q", 3}, {"s", 0}, {"u", 1},
                                   {"w", 3}, {"r", 0}, {"v", 2}};
  const std::vector<std::string> gaps = {" ", "\n", "\r\n", "\t",
                                         " % note (a, b).\r\n", "\n%\n"};
  Rng rng(0xDB5E);
  for (int round = 0; round < 60; ++round) {
    Program program = MustParse("p(X) :- e(X, Y), not q(X, Y, Y), s.");
    const int32_t base_constants = program.num_constants();
    const int32_t base_predicates = program.num_predicates();

    std::string text;
    std::vector<std::pair<const Pred*, std::vector<std::string>>> facts;
    const int count = 1 + static_cast<int>(rng.Below(120));
    for (int f = 0; f < count; ++f) {
      const Pred& pred = preds[rng.Below(preds.size())];
      std::vector<std::string> args;
      text += pred.name;
      if (pred.arity > 0) text += "(";
      for (int a = 0; a < pred.arity; ++a) {
        args.push_back((rng.Below(2) ? "c" : "") +
                       std::to_string(rng.Below(15)));
        text += (a > 0 ? ", " : "") + args.back();
      }
      if (pred.arity > 0) text += ")";
      text += "." + gaps[rng.Below(gaps.size())];
      facts.emplace_back(&pred, std::move(args));
    }

    Result<Database> parsed = ParseDatabase(text, &program);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;

    // Ids in order of first occurrence: constants after the program's own,
    // new predicates after the program's own.
    std::map<std::string, ConstId> constant_ids;
    std::map<std::string, PredId> pred_ids = {{"p", 0}, {"e", 1},
                                              {"q", 2}, {"s", 3}};
    for (const auto& [pred, args] : facts) {
      for (const std::string& arg : args) {
        const ConstId next = base_constants +
                             static_cast<ConstId>(constant_ids.size());
        constant_ids.emplace(arg, next);
      }
      pred_ids.emplace(pred->name, static_cast<PredId>(pred_ids.size()));
    }
    ASSERT_EQ(base_predicates, 4);
    ASSERT_EQ(program.num_constants(),
              base_constants + static_cast<int32_t>(constant_ids.size()));
    ASSERT_EQ(program.num_predicates(), static_cast<int32_t>(pred_ids.size()));

    Database reference(program);
    for (const auto& [pred, args] : facts) {
      Tuple tuple;
      for (const std::string& arg : args) tuple.push_back(constant_ids[arg]);
      reference.Insert(pred_ids[pred->name], std::move(tuple));
    }
    EXPECT_TRUE(*parsed == reference) << text;

    // A copy must resolve every name on its own once the original is gone:
    // the symbol index may not point into the source program's strings.
    Program copy = program;
    program = Program();
    for (const auto& [name, id] : constant_ids) {
      EXPECT_EQ(copy.LookupConstant(name), id) << name;
      EXPECT_EQ(copy.constant_name(id), name);
    }
    for (const auto& [name, id] : pred_ids) {
      EXPECT_EQ(copy.LookupPredicate(name), id) << name;
    }
    EXPECT_EQ(copy.LookupConstant("absent"), -1);
  }
}

// Every malformed database fails with kInvalidArgument and the line of the
// first error in the text, never an abort.
void ExpectDatabaseErrorAtLine(const std::string& text, int line) {
  Program program = MustParse("p(X) :- e(X, Y).");
  Result<Database> db = ParseDatabase(text, &program);
  ASSERT_FALSE(db.ok()) << text;
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument) << text;
  const std::string prefix = "line " + std::to_string(line) + ":";
  EXPECT_EQ(db.status().message().rfind(prefix, 0), 0u)
      << db.status().message() << "\n" << text;
}

TEST(DatabaseErrorTest, EarliestErrorWins) {
  // A syntax error on line 2 is reported before a bad character on line 5.
  ExpectDatabaseErrorAtLine("e(a, b).\ne(c, .\n\n\ne(d & f).\n", 2);
  Result<Program> program = ParseProgram("p :- q.\nr :- .\n\n\ns & t.\n");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().message().rfind("line 2:", 0), 0u)
      << program.status().message();
  // A bad character before any syntax error still wins.
  ExpectDatabaseErrorAtLine("e(a, b).\ne(c & d).\ne(c, .\n", 2);
}

TEST(DatabaseErrorTest, MalformedFactsReportTheirLine) {
  ExpectDatabaseErrorAtLine("e(a, b).\ne(X, b).\n", 2);  // variable
  ExpectDatabaseErrorAtLine("e(a, b).\ne(b, c).\ne(c).\ne(d, e).\n", 3);
  ExpectDatabaseErrorAtLine("e(a, b)\r\ne(c, d).\n", 2);  // missing '.'
  ExpectDatabaseErrorAtLine("e(a, b).\ne(c, d)", 2);      // ... at the end
  ExpectDatabaseErrorAtLine("e(a, b).\ne(c, d) :\n", 2);  // dangling ':'
  ExpectDatabaseErrorAtLine("e(a, b).\nnot(c).\n", 2);
  std::string nul = "e(a, b).\n% comment\ne(b";
  nul += '\0';
  nul += ", c).\n";
  ExpectDatabaseErrorAtLine(nul, 3);
  ExpectDatabaseErrorAtLine("move(a,", 1);  // text ends mid-fact
  ExpectDatabaseErrorAtLine("e(a, b).\n\nmove(a,", 3);
  ExpectDatabaseErrorAtLine("e(a, b).\n\nmove(", 3);
}

// ---------------------------------------------------------------------------
// Printing round-trips.
// ---------------------------------------------------------------------------

TEST(PrinterTest, RoundTripPreservesProgram) {
  const std::string text =
      "win(X) :- move(X, Y), not win(Y).\n"
      "p :- not q.\n"
      "seed(a).\n"
      "t(X, X, b) :- e(X), not f(X, X).\n";
  Program p1 = MustParse(text);
  const std::string printed = ProgramToString(p1);
  Program p2 = MustParse(printed);
  EXPECT_EQ(printed, ProgramToString(p2));
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(PrinterTest, GroundAtomRendering) {
  Program p = MustParse("p(X) :- e(X).");
  const ConstId a = p.InternConstant("a");
  EXPECT_EQ(GroundAtomToString(p, p.LookupPredicate("e"), {a}), "e(a)");
}

TEST(PrinterTest, DatabaseRendering) {
  Program p = MustParse("p :- e(X).");
  Result<Database> db = ParseDatabase("e(a). p.", &p);
  ASSERT_TRUE(db.ok());
  const std::string printed = DatabaseToString(p, *db);
  EXPECT_NE(printed.find("e(a).\n"), std::string::npos);
  EXPECT_NE(printed.find("p.\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Skeletons and alphabetic variants.
// ---------------------------------------------------------------------------

TEST(SkeletonTest, PaperPrograms1And2AreAlphabeticVariants) {
  // Program (1): P(a) <- not P(x), E(b).  Program (2): P(x,y) <- not P(y,y), E(x).
  Program p1 = MustParse("P(a) :- not P(X), E(b).");
  Program p2 = MustParse("P(X, Y) :- not P(Y, Y), E(X).");
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, DifferentSignsAreDifferentSkeletons) {
  Program p1 = MustParse("p :- q.");
  Program p2 = MustParse("p :- not q.");
  EXPECT_FALSE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, BodyOrderDoesNotMatter) {
  Program p1 = MustParse("p(X) :- e(X), not q(X).");
  Program p2 = MustParse("p(Y, Y) :- not q(Y), e(Y, Y).");
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, RuleMultiplicityMatters) {
  Program p1 = MustParse("p :- q.\np :- q.");
  Program p2 = MustParse("p :- q.");
  EXPECT_FALSE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, ToStringMentionsSigns) {
  Program p = MustParse("p(X) :- e(X), not q(X).");
  const std::string s = SkeletonToString(SkeletonOf(p));
  EXPECT_NE(s.find("not q"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Program graph.
// ---------------------------------------------------------------------------

TEST(ProgramGraphTest, WinMoveGraphShape) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  const ProgramGraph pg = BuildProgramGraph(p);
  EXPECT_EQ(pg.graph.num_nodes(), 2);
  ASSERT_EQ(pg.graph.num_edges(), 2);
  const PredId win = p.LookupPredicate("win");
  const PredId move = p.LookupPredicate("move");
  bool saw_move_edge = false, saw_win_loop = false;
  for (int e = 0; e < pg.graph.num_edges(); ++e) {
    const SignedEdge& edge = pg.graph.edge(e);
    if (edge.from == move) {
      EXPECT_EQ(edge.to, win);
      EXPECT_FALSE(edge.negative);
      saw_move_edge = true;
    }
    if (edge.from == win) {
      EXPECT_EQ(edge.to, win);
      EXPECT_TRUE(edge.negative);
      saw_win_loop = true;
    }
  }
  EXPECT_TRUE(saw_move_edge);
  EXPECT_TRUE(saw_win_loop);
}

TEST(ProgramGraphTest, ProvenancePointsBackToOccurrences) {
  Program p = MustParse("a :- b, not c.\nb :- a.");
  const ProgramGraph pg = BuildProgramGraph(p);
  ASSERT_EQ(pg.provenance.size(), 3u);
  for (int e = 0; e < pg.graph.num_edges(); ++e) {
    const auto& occ = pg.provenance[e];
    const Rule& rule = p.rule(occ.rule_index);
    const Literal& lit = rule.body[occ.body_index];
    EXPECT_EQ(lit.atom.predicate, pg.graph.edge(e).from);
    EXPECT_EQ(rule.head.predicate, pg.graph.edge(e).to);
    EXPECT_EQ(!lit.positive, pg.graph.edge(e).negative);
  }
}

TEST(ProgramGraphTest, ParallelEdgesForBothSigns) {
  Program p = MustParse("q :- p, not p.");
  const ProgramGraph pg = BuildProgramGraph(p);
  EXPECT_EQ(pg.graph.num_edges(), 2);
  EXPECT_EQ(pg.graph.CountNegativeEdges(), 1);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(ValidateTest, HandBuiltProgramValidates) {
  Program p;
  const PredId e = p.DeclarePredicate("e", 1);
  const PredId q = p.DeclarePredicate("q", 1);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(0)}};
  rule.body.push_back(Literal{Atom{e, {Term::Variable(0)}}, true});
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ValidateTest, OutOfRangeVariableRejected) {
  Program p;
  const PredId q = p.DeclarePredicate("q", 1);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(3)}};  // no such variable
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ValidateTest, WrongArityRejected) {
  Program p;
  const PredId q = p.DeclarePredicate("q", 2);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(0)}};  // arity 2 used with 1 arg
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_FALSE(p.Validate().ok());
}

}  // namespace
}  // namespace tiebreak
