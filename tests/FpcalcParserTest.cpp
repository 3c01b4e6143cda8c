//===- FpcalcParserTest.cpp - Calculus text front-end and nu tests --------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the MUCKE-style textual front-end (print/parse round-trips —
/// including the full generated algorithm formulae — and diagnostics) and
/// for greatest-fixed-point (`nu`) evaluation semantics.
///
//===----------------------------------------------------------------------===//

#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "fpcalc/Evaluator.h"
#include "fpcalc/Parser.h"
#include "reach/SeqReach.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace getafix;
using namespace getafix::fpc;

namespace {

std::unique_ptr<System> parseOk(const std::string &Text) {
  DiagnosticEngine Diags;
  auto Sys = parseSystem(Text, Diags);
  EXPECT_TRUE(Sys != nullptr) << Diags.str();
  return Sys;
}

std::string firstError(const std::string &Text) {
  DiagnosticEngine Diags;
  auto Sys = parseSystem(Text, Diags);
  EXPECT_TRUE(Sys == nullptr) << "expected a parse failure";
  EXPECT_TRUE(Diags.hasErrors());
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Kind == DiagKind::Error)
      return D.Message;
  return "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(FpcalcParserTest, RoundTripBasicSystem) {
  const char *Src = R"(
domain PC [5];
input bool Trans(PC x, PC y);
input bool Init(PC u);
mu bool Reach(PC u) :=
  (Init(u) | exists PC x. ((Reach(x) & Trans(x, u))));
)";
  auto Sys = parseOk(Src);
  std::string Printed = Sys->print();
  auto Sys2 = parseOk(Printed);
  EXPECT_EQ(Printed, Sys2->print());
}

TEST(FpcalcParserTest, RoundTripPreservesBitDomains) {
  const char *Src = R"(
domain Wide [bits 70];
input bool P(Wide v);
mu bool Q(Wide v) := (P(v) | Q(v));
)";
  auto Sys = parseOk(Src);
  EXPECT_NE(Sys->print().find("domain Wide [bits 70];"), std::string::npos);
  auto Sys2 = parseOk(Sys->print());
  EXPECT_EQ(Sys->print(), Sys2->print());
}

TEST(FpcalcParserTest, RoundTripPreservesNu) {
  const char *Src = R"(
domain PC [4];
input bool Bad(PC u);
input bool Trans(PC x, PC y);
nu bool Safe(PC u) :=
  (!(Bad(u)) & forall PC y. (!(Trans(u, y)) | Safe(y)));
)";
  auto Sys = parseOk(Src);
  EXPECT_TRUE(Sys->relation(Sys->relId("Safe")).IsNu);
  auto Sys2 = parseOk(Sys->print());
  EXPECT_TRUE(Sys2->relation(Sys2->relId("Safe")).IsNu);
  EXPECT_EQ(Sys->print(), Sys2->print());
}

TEST(FpcalcParserTest, ForwardReferencesBetweenEquationsParse) {
  // `A` references `B` declared after it: requires the two-pass scheme.
  const char *Src = R"(
domain D [3];
input bool Seed(D u);
mu bool A(D u) := (Seed(u) | B(u));
mu bool B(D u) := (A(u));
)";
  auto Sys = parseOk(Src);
  DependencyGraph G(*Sys);
  EXPECT_TRUE(G.reaches(Sys->relId("A"), Sys->relId("B")));
  EXPECT_TRUE(G.reaches(Sys->relId("B"), Sys->relId("A")));
}

TEST(FpcalcParserTest, ConstantsAndZeroArityRelations) {
  const char *Src = R"(
domain D [4];
input bool P(D u);
mu bool Hit() := exists D u. (P(u) & u = 3);
mu bool Q(D u) := (Hit() & u = 0);
)";
  auto Sys = parseOk(Src);
  EXPECT_EQ(Sys->relation(Sys->relId("Hit")).arity(), 0u);
  auto Sys2 = parseOk(Sys->print());
  EXPECT_EQ(Sys->print(), Sys2->print());
}

TEST(FpcalcParserTest, DottedIdentifiersBeforeQuantifierSeparator) {
  // `s.pc` is one identifier; the dot before the body is the separator.
  const char *Src = R"(
domain PC [4];
input bool Step(PC s.pc, PC v.pc);
mu bool R(PC v.pc) := exists PC s.pc. (Step(s.pc, v.pc) | R(s.pc));
)";
  auto Sys = parseOk(Src);
  auto Sys2 = parseOk(Sys->print());
  EXPECT_EQ(Sys->print(), Sys2->print());
}

namespace {

/// The generated algorithm formulae must survive a print -> parse -> print
/// round trip (they are exactly what Getafix would hand to MUCKE as text).
class FormulaRoundTripTest
    : public ::testing::TestWithParam<reach::SeqAlgorithm> {};

} // namespace

TEST_P(FormulaRoundTripTest, GeneratedAlgorithmFormulaRoundTrips) {
  const char *Src = R"(
decl g;
main() begin
  decl a;
  a := inc(g);
  if (a) then ERR: skip; else skip; fi
  return;
end
inc(x) begin
  g := x;
  return !x;
end
)";
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(Src, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  auto Cfg = bp::buildCfg(*Prog);

  std::string Text = reach::formulaText(Cfg, GetParam());
  auto Sys = parseOk(Text);
  ASSERT_TRUE(Sys != nullptr);
  EXPECT_EQ(Text, Sys->print());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FormulaRoundTripTest,
                         ::testing::Values(
                             reach::SeqAlgorithm::SummarySimple,
                             reach::SeqAlgorithm::EntryForward,
                             reach::SeqAlgorithm::EntryForwardSplit,
                             reach::SeqAlgorithm::EntryForwardOpt,
                             reach::SeqAlgorithm::SummaryScc));

//===----------------------------------------------------------------------===//
// Parse-then-evaluate equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Solves single-source reachability of a text-defined system and returns
/// per-node membership, for comparison with the programmatic fixture.
std::vector<bool>
solveTextReachability(const std::string &Text, unsigned InitNode,
                      const std::vector<std::pair<unsigned, unsigned>> &Edges,
                      unsigned NumNodes) {
  auto Sys = parseOk(Text);
  BddManager Mgr;
  Evaluator Ev(*Sys, Mgr, Layout::sequential(*Sys, Mgr));
  VarId U = 0, X = 1; // Declaration order: formals of Trans then Init.

  // Find the variables by name instead of relying on ids.
  for (VarId V = 0; V < Sys->numVars(); ++V) {
    if (Sys->var(V).Name == "u")
      U = V;
    if (Sys->var(V).Name == "x")
      X = V;
  }

  Ev.bindInput(Sys->relId("Init"), Ev.encodeEqConst(U, InitNode));
  Bdd TransBdd = Mgr.zero();
  for (auto [From, To] : Edges)
    TransBdd |= Ev.encodeEqConst(X, From) & Ev.encodeEqConst(U, To);
  Ev.bindInput(Sys->relId("Trans"), TransBdd);

  Bdd Result = Ev.evaluate(Sys->relId("Reach")).Value;
  std::vector<bool> Out;
  for (unsigned N = 0; N < NumNodes; ++N)
    Out.push_back(!(Result & Ev.encodeEqConst(U, N)).isZero());
  return Out;
}

} // namespace

TEST(FpcalcParserTest, ParsedSystemEvaluatesLikeProgrammaticOne) {
  const char *Text = R"(
domain Node [8];
input bool Trans(Node x, Node u);
input bool Init(Node u);
mu bool Reach(Node u) :=
  (Init(u) | exists Node x. (Reach(x) & Trans(x, u)));
)";
  std::vector<std::pair<unsigned, unsigned>> Edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 1}, {5, 6}};
  auto Got = solveTextReachability(Text, 0, Edges, 8);
  std::vector<bool> Expected{true, true, true, true,
                             false, false, false, false};
  EXPECT_EQ(Got, Expected);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(FpcalcParserTest, ReportsUnknownDomain) {
  EXPECT_NE(firstError("input bool P(Nope u);").find("unknown domain"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsDuplicateDomain) {
  EXPECT_NE(firstError("domain D [2]; domain D [3];")
                .find("duplicate domain"),
            std::string::npos);
}

TEST(FpcalcParserTest, ToleratesRedeclaredBoolDomain) {
  // The printer always lists the built-in `bool [2]`.
  parseOk("domain bool [2]; input bool P(bool b);");
}

TEST(FpcalcParserTest, ReportsDuplicateRelation) {
  EXPECT_NE(firstError("domain D [2]; input bool P(D u); input bool P(D v);")
                .find("duplicate relation"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsUnknownRelation) {
  EXPECT_NE(firstError("domain D [2]; mu bool R(D u) := (Q(u));")
                .find("unknown relation"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsArityMismatch) {
  EXPECT_NE(firstError("domain D [2]; input bool P(D u, D v); "
                       "mu bool R(D u) := (P(u));")
                .find("expects 2 arguments"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsUnboundVariable) {
  EXPECT_NE(firstError("domain D [2]; input bool P(D u); "
                       "mu bool R(D u) := (P(w));")
                .find("unbound variable"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsDomainMismatchOnRebinding) {
  EXPECT_NE(firstError("domain D [2]; domain E [3]; input bool P(D u); "
                       "input bool Q(E u);")
                .find("rebound at a different domain"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsConstantOutsideDomain) {
  // Caught by System::validate after parsing.
  EXPECT_NE(firstError("domain D [2]; mu bool R(D u) := (u = 5);")
                .find("outside domain"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsUnterminatedComment) {
  EXPECT_NE(firstError("domain D [2]; /* oops").find("unterminated comment"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsUnexpectedCharacter) {
  EXPECT_NE(firstError("domain D [2]; $").find("unexpected character"),
            std::string::npos);
}

TEST(FpcalcParserTest, ReportsMissingSemicolon) {
  EXPECT_FALSE(firstError("domain D [2]").empty());
}

TEST(FpcalcParserTest, ReportsZeroSizedDomain) {
  EXPECT_NE(firstError("domain D [0];").find("non-empty"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Greatest fixed-points
//===----------------------------------------------------------------------===//

namespace {

/// Explicit graph fixture for mu/nu comparisons: node domain, edge and bad
/// input relations, EF(bad) as a mu and AG(!bad) as a nu.
struct MuNuFixture {
  System Sys;
  DomainId Node;
  VarId U, X;
  RelId Bad, Edge, EfBad, Safe;

  explicit MuNuFixture(uint64_t NumNodes) {
    Node = Sys.addDomain("Node", NumNodes);
    U = Sys.addVar("u", Node);
    X = Sys.addVar("x", Node);
    Bad = Sys.declareRel("Bad", {U});
    Edge = Sys.declareRel("Edge", {U, X});

    // EfBad(u) = Bad(u) | exists x. Edge(u, x) & EfBad(x).
    EfBad = Sys.declareRel("EfBad", {U});
    Sys.define(
        EfBad,
        Sys.mkOr({Sys.applyVars(Bad, {U}),
                  Sys.exists({X}, Sys.mkAnd({Sys.applyVars(Edge, {U, X}),
                                             Sys.apply(EfBad,
                                                       {Term::var(X)})}))}));

    // Safe(u) = !Bad(u) & forall x. (!Edge(u, x) | Safe(x)) — AG(!Bad).
    Safe = Sys.declareRel("Safe", {U});
    Sys.defineNu(
        Safe,
        Sys.mkAnd({Sys.mkNot(Sys.applyVars(Bad, {U})),
                   Sys.forall({X}, Sys.mkOr({Sys.mkNot(Sys.applyVars(
                                                 Edge, {U, X})),
                                             Sys.apply(Safe,
                                                       {Term::var(X)})}))}));
  }
};

class NuDualityTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST(NuSemanticsTest, GreatestFixpointOnChain) {
  // 0 -> 1 -> 2 -> 3(bad); 4 -> 4 (safe loop).
  MuNuFixture F(6);
  BddManager Mgr;
  Evaluator Ev(F.Sys, Mgr, Layout::sequential(F.Sys, Mgr));
  Ev.bindInput(F.Bad, Ev.encodeEqConst(F.U, 3));
  Bdd Edges = Mgr.zero();
  for (auto [A, B] : std::vector<std::pair<unsigned, unsigned>>{
           {0, 1}, {1, 2}, {2, 3}, {4, 4}})
    Edges |= Ev.encodeEqConst(F.U, A) & Ev.encodeEqConst(F.X, B);
  Ev.bindInput(F.Edge, Edges);

  Bdd Safe = Ev.evaluate(F.Safe).Value;
  std::vector<bool> Got, Expected{false, false, false, false, true, true};
  for (unsigned N = 0; N < 6; ++N)
    Got.push_back(!(Safe & Ev.encodeEqConst(F.U, N)).isZero());
  EXPECT_EQ(Got, Expected);
}

TEST(NuSemanticsTest, NuOfTautologyIsDomainConstrained) {
  // nu R(u) := R(u) stays at top, which must exclude padding values of a
  // non-power-of-two domain.
  System Sys;
  DomainId D = Sys.addDomain("D", 5); // 3 bits, values 5..7 invalid.
  VarId U = Sys.addVar("u", D);
  RelId R = Sys.declareRel("R", {U});
  Sys.defineNu(R, Sys.applyVars(R, {U}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bdd Value = Ev.evaluate(R).Value;
  EXPECT_EQ(Value.satCount(Mgr.numVars()), 5.0);
}

TEST(NuSemanticsTest, NuOfContradictionIsEmpty) {
  System Sys;
  DomainId D = Sys.addDomain("D", 4);
  VarId U = Sys.addVar("u", D);
  RelId R = Sys.declareRel("R", {U});
  Sys.defineNu(R, Sys.mkAnd({Sys.applyVars(R, {U}), Sys.bottom()}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  EXPECT_TRUE(Ev.evaluate(R).Value.isZero());
}

TEST_P(NuDualityTest, SafeIsComplementOfEfBadOnRandomGraphs) {
  const unsigned NumNodes = 10;
  Rng Rand(GetParam());

  MuNuFixture F(NumNodes);
  BddManager Mgr;
  Evaluator Ev(F.Sys, Mgr, Layout::sequential(F.Sys, Mgr));

  // Random edges and a random non-empty bad set.
  Bdd Edges = Mgr.zero();
  for (unsigned E = 0; E < 18; ++E)
    Edges |= Ev.encodeEqConst(F.U, Rand.below(NumNodes)) &
             Ev.encodeEqConst(F.X, Rand.below(NumNodes));
  Bdd BadSet = Ev.encodeEqConst(F.U, Rand.below(NumNodes));
  if (Rand.below(2) == 0)
    BadSet |= Ev.encodeEqConst(F.U, Rand.below(NumNodes));
  Ev.bindInput(F.Edge, Edges);
  Ev.bindInput(F.Bad, BadSet);

  Bdd EfBad = Ev.evaluate(F.EfBad).Value;
  Bdd Safe = Ev.evaluate(F.Safe).Value;

  // nu-mu duality: AG(!bad) is exactly the complement of EF(bad).
  for (unsigned N = 0; N < NumNodes; ++N) {
    bool CanReachBad = !(EfBad & Ev.encodeEqConst(F.U, N)).isZero();
    bool IsSafe = !(Safe & Ev.encodeEqConst(F.U, N)).isZero();
    EXPECT_NE(CanReachBad, IsSafe) << "node " << N << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NuDualityTest,
                         ::testing::Range(uint64_t(1), uint64_t(13)));

//===----------------------------------------------------------------------===//
// Facts and the standalone-solver path
//===----------------------------------------------------------------------===//

namespace {

/// Parses text with facts, binds them, and solves one relation.
struct SolvedSystem {
  std::unique_ptr<System> Sys;
  std::unique_ptr<BddManager> Mgr;
  std::unique_ptr<Evaluator> Ev;
  Bdd Value;
};

SolvedSystem solveWithFacts(const std::string &Text,
                            const std::string &Rel) {
  SolvedSystem S;
  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  S.Sys = parseSystem(Text, Diags, &Facts);
  EXPECT_TRUE(S.Sys != nullptr) << Diags.str();
  if (!S.Sys)
    return S;
  S.Mgr = std::make_unique<BddManager>();
  S.Ev = std::make_unique<Evaluator>(*S.Sys, *S.Mgr,
                                     Layout::sequential(*S.Sys, *S.Mgr));
  bindFacts(*S.Ev, *S.Sys, Facts);
  S.Value = S.Ev->evaluate(S.Sys->relId(Rel)).Value;
  return S;
}

const char *FactGraph = R"(
domain Node [8];
input bool Edge(Node x, Node y);
input bool Init(Node u);
fact Init(0);
fact Edge(0, 1);
fact Edge(1, 2);
fact Edge(5, 6);
mu bool Reach(Node u) :=
  (Init(u) | exists Node x. (Reach(x) & Edge(x, u)));
)";

} // namespace

TEST(FactTest, SelfContainedSystemSolves) {
  SolvedSystem S = solveWithFacts(FactGraph, "Reach");
  ASSERT_TRUE(S.Sys != nullptr);
  VarId U = S.Sys->relation(S.Sys->relId("Reach")).Formals[0];
  std::vector<bool> Got, Expected{true, true, true, false,
                                  false, false, false, false};
  for (unsigned N = 0; N < 8; ++N)
    Got.push_back(!(S.Value & S.Ev->encodeEqConst(U, N)).isZero());
  EXPECT_EQ(Got, Expected);
}

TEST(FactTest, InputRelationWithoutFactsIsEmpty) {
  // No Init facts: nothing is reachable.
  std::string Text = FactGraph;
  Text.erase(Text.find("fact Init(0);"), strlen("fact Init(0);"));
  SolvedSystem S = solveWithFacts(Text, "Reach");
  ASSERT_TRUE(S.Sys != nullptr);
  EXPECT_TRUE(S.Value.isZero());
}

TEST(FactTest, FactsMayPrecedeTheRelationDeclaration) {
  // Facts resolve in the second pass, like relation references.
  SolvedSystem S = solveWithFacts(R"(
domain D [4];
fact Seed(2);
input bool Seed(D u);
mu bool Copy(D u) := (Seed(u));
)",
                                  "Copy");
  ASSERT_TRUE(S.Sys != nullptr);
  VarId U = S.Sys->relation(S.Sys->relId("Copy")).Formals[0];
  EXPECT_FALSE((S.Value & S.Ev->encodeEqConst(U, 2)).isZero());
  EXPECT_TRUE((S.Value & S.Ev->encodeEqConst(U, 1)).isZero());
}

TEST(FactTest, RejectsFactsWhenCallerDisallowsThem) {
  DiagnosticEngine Diags;
  auto Sys = parseSystem("domain D [2]; input bool P(D u); fact P(1);",
                         Diags); // No facts vector.
  EXPECT_TRUE(Sys == nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(FactTest, RejectsFactOnDefinedRelation) {
  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  auto Sys = parseSystem(
      "domain D [2]; mu bool R(D u) := (u = 1); fact R(1);", Diags, &Facts);
  EXPECT_TRUE(Sys == nullptr);
}

TEST(FactTest, RejectsFactArityMismatch) {
  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  auto Sys = parseSystem("domain D [2]; input bool P(D u); fact P(1, 0);",
                         Diags, &Facts);
  EXPECT_TRUE(Sys == nullptr);
}

TEST(FactTest, RejectsFactConstantOutsideDomain) {
  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  auto Sys = parseSystem("domain D [3]; input bool P(D u); fact P(3);",
                         Diags, &Facts);
  EXPECT_TRUE(Sys == nullptr);
}

//===----------------------------------------------------------------------===//
// Ring recording (the witness extractor's hook)
//===----------------------------------------------------------------------===//

TEST(RingRecordingTest, RingsGrowMonotonicallyToTheFixpoint) {
  DiagnosticEngine Diags;
  std::vector<Fact> Facts;
  auto Sys = parseSystem(R"(
domain Node [8];
input bool Edge(Node x, Node y);
input bool Init(Node u);
fact Init(0);
fact Edge(0, 1);
fact Edge(1, 2);
fact Edge(2, 3);
mu bool Reach(Node u) :=
  (Init(u) | exists Node x. (Reach(x) & Edge(x, u)));
)",
                         Diags, &Facts);
  ASSERT_TRUE(Sys != nullptr) << Diags.str();
  BddManager Mgr;
  Evaluator Ev(*Sys, Mgr, Layout::sequential(*Sys, Mgr));
  bindFacts(Ev, *Sys, Facts);

  RingLog Rings;
  EvalOptions Opts;
  Opts.Rings = &Rings;
  EvalResult R = Ev.evaluate(Sys->relId("Reach"), Opts);

  // One new node per round: rings 0..3, converging at the fixpoint.
  ASSERT_EQ(Rings.size(), 4u);
  EXPECT_EQ(Rings.last(), R.Value);
  EXPECT_EQ(Rings.ring(Rings.size() - 1), R.Value);
  for (size_t I = 1; I < Rings.size(); ++I) {
    // Ring I contains ring I-1 strictly (until convergence).
    EXPECT_TRUE((Rings.ring(I - 1) & !Rings.ring(I)).isZero());
    EXPECT_NE(Rings.ring(I - 1), Rings.ring(I));
  }
}
