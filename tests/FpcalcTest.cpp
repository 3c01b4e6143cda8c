//===- FpcalcTest.cpp - Fixed-point calculus tests -------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "fpcalc/Calculus.h"
#include "fpcalc/Evaluator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>

using namespace getafix;
using namespace getafix::fpc;

namespace {

/// Fixture with a small graph-reachability system: the Section-3 example
///   Reach(u) = Init(u) | exists x. (Reach(x) & Trans(x, u)).
struct GraphFixture {
  System Sys;
  DomainId Node;
  VarId U, X;
  RelId Init, Trans, Reach;

  explicit GraphFixture(uint64_t NumNodes = 8) {
    Node = Sys.addDomain("Node", NumNodes);
    U = Sys.addVar("u", Node);
    X = Sys.addVar("x", Node);
    Init = Sys.declareRel("Init", {U});
    Trans = Sys.declareRel("Trans", {X, U});
    Reach = Sys.declareRel("Reach", {U});
    Sys.define(Reach,
               Sys.mkOr({Sys.applyVars(Init, {U}),
                         Sys.exists({X}, Sys.mkAnd({
                                             Sys.applyVars(Reach, {X}),
                                             Sys.applyVars(Trans, {X, U}),
                                         }))}));
  }

  /// Solves reachability for the given edge list and initial node.
  std::vector<bool> solve(const std::vector<std::pair<unsigned, unsigned>>
                              &Edges,
                          unsigned InitNode, uint64_t NumNodes = 8) {
    BddManager Mgr;
    Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
    Ev.bindInput(Init, Ev.encodeEqConst(U, InitNode));
    Bdd TransBdd = Mgr.zero();
    for (auto [From, To] : Edges)
      TransBdd |= Ev.encodeEqConst(X, From) & Ev.encodeEqConst(U, To);
    Ev.bindInput(Trans, TransBdd);
    Bdd Result = Ev.evaluate(Reach).Value;
    std::vector<bool> Out;
    for (unsigned N = 0; N < NumNodes; ++N)
      Out.push_back(!(Result & Ev.encodeEqConst(U, N)).isZero());
    return Out;
  }
};

} // namespace

TEST(CalculusTest, DomainBits) {
  Domain D1{"d", 1, 0};
  EXPECT_EQ(D1.numBits(), 1u);
  Domain D2{"d", 2, 0};
  EXPECT_EQ(D2.numBits(), 1u);
  Domain D5{"d", 5, 0};
  EXPECT_EQ(D5.numBits(), 3u);
  Domain Wide{"d", ~uint64_t(0), 100};
  EXPECT_EQ(Wide.numBits(), 100u);
}

TEST(CalculusTest, ValidateCatchesArityAndDomainErrors) {
  System Sys;
  DomainId D3 = Sys.addDomain("three", 3);
  VarId A = Sys.addVar("a", D3);
  VarId B = Sys.addVar("b", Sys.boolDomain());
  RelId R = Sys.declareRel("R", {A});

  // Wrong arity.
  RelId Bad1 = Sys.declareRel("Bad1", {B});
  Sys.define(Bad1, Sys.apply(R, {Term::var(A), Term::var(A)}));
  // Wrong argument domain.
  RelId Bad2 = Sys.declareRel("Bad2", {B});
  Sys.define(Bad2, Sys.apply(R, {Term::var(B)}));
  // Constant outside the domain.
  RelId Bad3 = Sys.declareRel("Bad3", {A});
  Sys.define(Bad3, Sys.apply(R, {Term::constant(7)}));
  // Equality across domains.
  RelId Bad4 = Sys.declareRel("Bad4", {A, B});
  Sys.define(Bad4, Sys.eqVar(A, B));

  DiagnosticEngine Diags;
  EXPECT_FALSE(Sys.validate(Diags));
  EXPECT_GE(Diags.errorCount(), 4u);
}

TEST(DependencyGraphTest, ReachesIsTransitive) {
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId A = Sys.declareRel("A", {X});
  RelId B = Sys.declareRel("B", {X});
  RelId C = Sys.declareRel("C", {X});
  RelId In = Sys.declareRel("In", {X});
  Sys.define(A, Sys.applyVars(B, {X}));
  Sys.define(B, Sys.applyVars(C, {X}));
  Sys.define(C, Sys.applyVars(In, {X}));
  DependencyGraph G(Sys);
  EXPECT_TRUE(G.reaches(A, C));
  EXPECT_FALSE(G.reaches(C, A));
  EXPECT_FALSE(G.reaches(A, A)) << "A is not recursive";
  // Inputs are constants, not dependencies: C applies In, yet depends on
  // nothing.
  EXPECT_FALSE(G.reaches(A, In));
  EXPECT_FALSE(G.reaches(C, In));
  EXPECT_TRUE(G.directDeps(C).empty());
}

TEST(CalculusTest, PrintRendersMuckeStyle) {
  GraphFixture G;
  std::string Text = G.Sys.print();
  EXPECT_NE(Text.find("mu bool Reach(Node u)"), std::string::npos);
  EXPECT_NE(Text.find("input bool Trans(Node x, Node u)"),
            std::string::npos);
  EXPECT_NE(Text.find("exists Node x."), std::string::npos);
}

TEST(EvaluatorTest, GraphReachabilityChain) {
  GraphFixture G;
  // 0 -> 1 -> 2 -> 3, plus an unreachable component 5 -> 6.
  auto R = G.solve({{0, 1}, {1, 2}, {2, 3}, {5, 6}}, 0);
  std::vector<bool> Expected{true, true, true, true,
                             false, false, false, false};
  EXPECT_EQ(R, Expected);
}

TEST(EvaluatorTest, GraphReachabilityCycle) {
  GraphFixture G;
  auto R = G.solve({{1, 2}, {2, 3}, {3, 1}}, 2);
  EXPECT_FALSE(R[0]);
  EXPECT_TRUE(R[1] && R[2] && R[3]);
}

TEST(EvaluatorTest, EarlyStopTerminatesBeforeFullFixpoint) {
  GraphFixture G;
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  Ev.bindInput(G.Init, Ev.encodeEqConst(G.U, 0));
  // A long chain 0 -> 1 -> ... -> 7.
  Bdd TransBdd = Mgr.zero();
  for (unsigned N = 0; N + 1 < 8; ++N)
    TransBdd |= Ev.encodeEqConst(G.X, N) & Ev.encodeEqConst(G.U, N + 1);
  Ev.bindInput(G.Trans, TransBdd);

  Bdd Stop = Ev.encodeEqConst(G.U, 2);
  EvalOptions Opts;
  Opts.EarlyStop = &Stop;
  EvalResult R = Ev.evaluate(G.Reach, Opts);
  EXPECT_TRUE(R.EarlyStopped);
  EXPECT_FALSE((R.Value & Stop).isZero());
  // Node 7 must not have been computed yet.
  EXPECT_TRUE((R.Value & Ev.encodeEqConst(G.U, 7)).isZero());
}

TEST(EvaluatorTest, ConstantRelationArguments) {
  System Sys;
  DomainId D4 = Sys.addDomain("four", 4);
  VarId A = Sys.addVar("a", D4);
  VarId B = Sys.addVar("b", D4);
  RelId Pair = Sys.declareRel("Pair", {A, B});
  RelId Sel = Sys.declareRel("Sel", {B});
  Sys.define(Sel, Sys.apply(Pair, {Term::constant(2), Term::var(B)}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bdd PairBdd = (Ev.encodeEqConst(A, 2) & Ev.encodeEqConst(B, 3)) |
                (Ev.encodeEqConst(A, 1) & Ev.encodeEqConst(B, 0));
  Ev.bindInput(Pair, PairBdd);
  Bdd R = Ev.evaluate(Sel).Value;
  EXPECT_EQ(R, Ev.encodeEqConst(B, 3));
}

TEST(EvaluatorTest, RepeatedArgumentDiagonal) {
  System Sys;
  DomainId D4 = Sys.addDomain("four", 4);
  VarId A = Sys.addVar("a", D4);
  VarId B = Sys.addVar("b", D4);
  RelId Pair = Sys.declareRel("Pair", {A, B});
  RelId Diag = Sys.declareRel("Diag", {A});
  Sys.define(Diag, Sys.apply(Pair, {Term::var(A), Term::var(A)}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bdd PairBdd = (Ev.encodeEqConst(A, 2) & Ev.encodeEqConst(B, 2)) |
                (Ev.encodeEqConst(A, 1) & Ev.encodeEqConst(B, 3));
  Ev.bindInput(Pair, PairBdd);
  EXPECT_EQ(Ev.evaluate(Diag).Value, Ev.encodeEqConst(A, 2));
}

TEST(EvaluatorTest, NestedRelationsReEvaluatedPerOuterRound) {
  // Frontier-style system: Outer iterates; Inner depends on Outer and is
  // re-solved every round (the Section-3 algorithmic semantics). Checks
  // the non-monotone "newly discovered" idiom used by EF-opt.
  System Sys;
  DomainId Node = Sys.addDomain("Node", 8);
  VarId U = Sys.addVar("u", Node);
  VarId X = Sys.addVar("x", Node);
  RelId Trans = Sys.declareRel("Trans", {X, U});
  RelId Init = Sys.declareRel("Init", {U});
  RelId Outer = Sys.declareRel("Outer", {U});
  RelId Step = Sys.declareRel("Step", {U});
  // Step(u) = exists x. Outer(x) & Trans(x,u); Outer = Init | Step.
  Sys.define(Step, Sys.exists({X}, Sys.mkAnd({Sys.applyVars(Outer, {X}),
                                              Sys.applyVars(Trans, {X, U})})));
  Sys.define(Outer, Sys.mkOr({Sys.applyVars(Init, {U}),
                              Sys.applyVars(Step, {U})}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Ev.bindInput(Init, Ev.encodeEqConst(U, 0));
  Bdd TransBdd = Mgr.zero();
  for (unsigned N = 0; N + 1 < 5; ++N)
    TransBdd |= Ev.encodeEqConst(X, N) & Ev.encodeEqConst(U, N + 1);
  Ev.bindInput(Trans, TransBdd);

  Bdd R = Ev.evaluate(Outer).Value;
  for (unsigned N = 0; N < 5; ++N)
    EXPECT_FALSE((R & Ev.encodeEqConst(U, N)).isZero()) << N;
  EXPECT_TRUE((R & Ev.encodeEqConst(U, 6)).isZero());
  // Step must have been re-evaluated once per outer round.
  EXPECT_GE(Ev.stats().at("Step").Evaluations, 5u);
}

TEST(EvaluatorTest, NonMonotoneNegationUnderAlgorithmicSemantics) {
  // Fresh(u) = Outer(u) & !Done(u); Done tracks the previous round via a
  // second relation. Not a least fixed-point — but the operational
  // semantics assigns it a meaning, which we pin here: with Done == Init,
  // Fresh is exactly Outer \ Init once Outer converges.
  System Sys;
  DomainId Node = Sys.addDomain("Node", 8);
  VarId U = Sys.addVar("u", Node);
  VarId X = Sys.addVar("x", Node);
  RelId Trans = Sys.declareRel("Trans", {X, U});
  RelId Init = Sys.declareRel("Init", {U});
  RelId Outer = Sys.declareRel("Outer", {U});
  RelId Fresh = Sys.declareRel("Fresh", {U});
  Sys.define(Outer,
             Sys.mkOr({Sys.applyVars(Init, {U}),
                       Sys.exists({X}, Sys.mkAnd({
                                           Sys.applyVars(Outer, {X}),
                                           Sys.applyVars(Trans, {X, U}),
                                       }))}));
  Sys.define(Fresh, Sys.mkAnd({Sys.applyVars(Outer, {U}),
                               Sys.mkNot(Sys.applyVars(Init, {U}))}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Ev.bindInput(Init, Ev.encodeEqConst(U, 3));
  Ev.bindInput(Trans,
               Ev.encodeEqConst(X, 3) & Ev.encodeEqConst(U, 4));
  Bdd R = Ev.evaluate(Fresh).Value;
  EXPECT_EQ(R, Ev.encodeEqConst(U, 4));
}

TEST(EvaluatorTest, DomainConstraintExcludesPadding) {
  System Sys;
  DomainId D5 = Sys.addDomain("five", 5); // 3 bits, values 0..4.
  VarId A = Sys.addVar("a", D5);
  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bdd Valid = Ev.domainConstraint(A);
  EXPECT_DOUBLE_EQ(Valid.satCount(Mgr.numVars()), 5.0);
  for (uint64_t V = 0; V < 5; ++V)
    EXPECT_FALSE((Valid & Ev.encodeEqConst(A, V)).isZero());
}

TEST(EvaluatorTest, InterleavedLayoutKeepsCopiesAdjacent) {
  System Sys;
  DomainId D16 = Sys.addDomain("d16", 16);
  VarId A = Sys.addVar("a", D16);
  VarId B = Sys.addVar("b", D16);
  BddManager Mgr;
  Layout L = Layout::interleaved(Sys, Mgr, {{A, B}});
  for (unsigned Bit = 0; Bit < 4; ++Bit) {
    EXPECT_EQ(L.bits(A)[Bit] + 1, L.bits(B)[Bit])
        << "copies must sit on adjacent levels";
  }
}

//===----------------------------------------------------------------------===//
// Dependency analysis and equation planning
//===----------------------------------------------------------------------===//

namespace {

/// Three-SCC system: Low (self-recursive) <- {MidA <-> MidB} <- Top, plus
/// an input leaf.
struct MultiSccFixture {
  System Sys;
  VarId X;
  RelId In, Low, MidA, MidB, Top;

  MultiSccFixture() {
    X = Sys.addVar("x", Sys.boolDomain());
    In = Sys.declareRel("In", {X});
    Low = Sys.declareRel("Low", {X});
    MidA = Sys.declareRel("MidA", {X});
    MidB = Sys.declareRel("MidB", {X});
    Top = Sys.declareRel("Top", {X});
    Sys.define(Low, Sys.mkOr({Sys.applyVars(In, {X}),
                              Sys.applyVars(Low, {X})}));
    Sys.define(MidA, Sys.mkOr({Sys.applyVars(Low, {X}),
                               Sys.applyVars(MidB, {X})}));
    Sys.define(MidB, Sys.applyVars(MidA, {X}));
    Sys.define(Top, Sys.applyVars(MidA, {X}));
  }
};

} // namespace

TEST(DependencyGraphTest, SccCondensationIsCalleesFirst) {
  MultiSccFixture F;
  DependencyGraph G(F.Sys);

  // Same SCC for the mutual pair; distinct SCCs otherwise.
  EXPECT_EQ(G.sccOf(F.MidA), G.sccOf(F.MidB));
  EXPECT_NE(G.sccOf(F.Low), G.sccOf(F.MidA));
  EXPECT_NE(G.sccOf(F.MidA), G.sccOf(F.Top));

  // Callees-first numbering: callees get smaller SCC indices.
  EXPECT_LT(G.sccOf(F.Low), G.sccOf(F.MidA));
  EXPECT_LT(G.sccOf(F.MidA), G.sccOf(F.Top));

  EXPECT_TRUE(G.isRecursive(F.Low));   // Self-loop.
  EXPECT_TRUE(G.isRecursive(F.MidA));  // Two-cycle.
  EXPECT_TRUE(G.isRecursive(F.MidB));
  EXPECT_FALSE(G.isRecursive(F.Top));

  EXPECT_TRUE(G.reaches(F.Top, F.Low));
  EXPECT_FALSE(G.reaches(F.Low, F.Top));

  // Top's schedule pre-solves Low before the Mid SCC.
  std::vector<RelId> Sched = G.scheduleFor(F.Top);
  auto LowPos = std::find(Sched.begin(), Sched.end(), F.Low);
  auto MidPos = std::find(Sched.begin(), Sched.end(), F.MidA);
  ASSERT_NE(LowPos, Sched.end());
  ASSERT_NE(MidPos, Sched.end());
  EXPECT_LT(LowPos - Sched.begin(), MidPos - Sched.begin());
}

TEST(DependencyGraphTest, NegationOnACycleKillsMonotonicity) {
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId In = Sys.declareRel("In", {X});
  RelId A = Sys.declareRel("A", {X});
  RelId B = Sys.declareRel("B", {X});
  // A = B; B = !A — the negation sits on the A/B cycle.
  Sys.define(A, Sys.applyVars(B, {X}));
  Sys.define(B, Sys.mkNot(Sys.applyVars(A, {X})));
  // C = A | !In — negation on an input, not on a cycle.
  RelId C = Sys.declareRel("C", {X});
  Sys.define(C, Sys.mkOr({Sys.applyVars(C, {X}),
                          Sys.mkNot(Sys.applyVars(In, {X}))}));

  DependencyGraph G(Sys);
  EXPECT_FALSE(G.isMonotoneSelf(A));
  EXPECT_FALSE(G.isMonotoneSelf(B));
  EXPECT_TRUE(G.isMonotoneSelf(C));
}

TEST(PlanEquationTest, ClassifiesDisjunctKinds) {
  GraphFixture G;
  DependencyGraph Deps(G.Sys);
  EquationPlan P = planEquation(G.Sys, Deps, G.Reach);
  ASSERT_TRUE(P.SemiNaive);
  ASSERT_EQ(P.Disjuncts.size(), 2u);
  EXPECT_FALSE(P.Disjuncts[0].Recursive);
  EXPECT_TRUE(P.Disjuncts[1].Recursive);

  // A disjunct that reaches the iterated relation only through another
  // defined relation is recursive too; one over inputs alone is not.
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId In = Sys.declareRel("In", {X});
  RelId A = Sys.declareRel("A", {X});
  RelId B = Sys.declareRel("B", {X});
  Sys.define(A, Sys.mkOr({Sys.applyVars(In, {X}), Sys.applyVars(B, {X})}));
  Sys.define(B, Sys.applyVars(A, {X}));
  DependencyGraph BG(Sys);
  EquationPlan AP = planEquation(Sys, BG, A);
  ASSERT_EQ(AP.Disjuncts.size(), 2u);
  EXPECT_FALSE(AP.Disjuncts[0].Recursive);
  EXPECT_TRUE(AP.Disjuncts[1].Recursive);
}

TEST(PlanEquationTest, NuAndNonMonotoneFallBackToNaive) {
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId N = Sys.declareRel("N", {X});
  Sys.defineNu(N, Sys.applyVars(N, {X}));
  // Occurrence under a negation inside its own cycle.
  RelId M = Sys.declareRel("M", {X});
  Sys.define(M, Sys.mkNot(Sys.applyVars(M, {X})));
  // Occurrence under a forall: monotone, so semi-naive still applies.
  RelId Q = Sys.declareRel("Q", {X});
  VarId Y = Sys.addVar("y", Sys.boolDomain());
  Sys.define(Q, Sys.forall({Y}, Sys.applyVars(Q, {Y})));

  DependencyGraph G(Sys);
  EXPECT_FALSE(planEquation(Sys, G, N).SemiNaive);
  EXPECT_FALSE(planEquation(Sys, G, M).SemiNaive);
  EquationPlan QP = planEquation(Sys, G, Q);
  EXPECT_TRUE(QP.SemiNaive);
  ASSERT_EQ(QP.Disjuncts.size(), 1u);
  EXPECT_TRUE(QP.Disjuncts[0].Recursive);
}

//===----------------------------------------------------------------------===//
// Semi-naive rounds against an explicit-set oracle
//===----------------------------------------------------------------------===//

namespace {

using NodeSet = std::set<unsigned>;

/// One fixpoint run over a one-variable node relation: every changed
/// round's value, the rounds evaluated, and how the run stopped.
struct NodeRun {
  std::vector<NodeSet> Rounds;
  /// Each round's sat count over the relation's own bits (the symbolic
  /// run's other variables are don't-care).
  std::vector<double> Counts;
  uint64_t Iterations = 0;
  bool EarlyStopped = false;
};

/// The paper's Section-3 `Evaluate` of `R = Body(R)` over explicit node
/// sets: S_0 = {}, S_r = Body(S_{r-1}), stopping at saturation or at the
/// first changed round that holds \p StopAt (when set). It shares no code
/// with the evaluator, so the evaluator's semi-naive rounds are checked
/// against the semantics they claim to compute.
NodeRun iterateExplicit(const std::function<NodeSet(const NodeSet &)> &Body,
                        std::optional<unsigned> StopAt) {
  NodeRun Out;
  NodeSet S;
  while (true) {
    NodeSet Next = Body(S);
    ++Out.Iterations;
    if (Next == S)
      break;
    S = std::move(Next);
    Out.Rounds.push_back(S);
    Out.Counts.push_back(double(S.size()));
    if (StopAt && S.count(*StopAt)) {
      Out.EarlyStopped = true;
      break;
    }
  }
  return Out;
}

/// Solves \p Rel (over the single variable \p U of \p NumNodes values)
/// with the evaluator under a cache of `tableSlots() >> CacheShift`
/// entries, recording rings, and decodes every ring into its node set.
/// \p Bind binds the inputs. Returns the run and its delta rounds.
NodeRun runSymbolic(const System &Sys, RelId Rel, VarId U,
                    unsigned NumNodes, unsigned CacheShift,
                    const std::function<void(Evaluator &)> &Bind,
                    std::optional<unsigned> StopAt, uint64_t &DeltaRounds) {
  BddManager Mgr(0, CacheShift);
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bind(Ev);
  RingLog Rings;
  Bdd Stop = StopAt ? Ev.encodeEqConst(U, *StopAt) : Mgr.zero();
  EvalOptions Opts;
  Opts.Rings = &Rings;
  if (StopAt)
    Opts.EarlyStop = &Stop;
  EvalResult R = Ev.evaluate(Rel, Opts);

  NodeRun Out;
  Out.EarlyStopped = R.EarlyStopped;
  double DontCare = std::pow(
      2.0, double(Mgr.numVars() - Ev.layout().bits(U).size()));
  for (size_t I = 0; I < Rings.size(); ++I) {
    Bdd Ring = Rings.ring(I);
    NodeSet Nodes;
    for (unsigned N = 0; N < NumNodes; ++N)
      if (!(Ring & Ev.encodeEqConst(U, N)).isZero())
        Nodes.insert(N);
    Out.Rounds.push_back(std::move(Nodes));
    Out.Counts.push_back(Ring.satCount(Mgr.numVars()) / DontCare);
  }
  const RelStats &RS = Ev.stats().at(Sys.relation(Rel).Name);
  Out.Iterations = RS.Iterations;
  DeltaRounds = RS.DeltaRounds;
  return Out;
}

void expectSameRun(const NodeRun &Sym, const NodeRun &Oracle,
                   uint64_t DeltaRounds, const std::string &Where) {
  EXPECT_EQ(Sym.Rounds, Oracle.Rounds) << Where;
  EXPECT_EQ(Sym.Counts, Oracle.Counts) << Where;
  EXPECT_EQ(Sym.Iterations, Oracle.Iterations) << Where;
  EXPECT_EQ(Sym.EarlyStopped, Oracle.EarlyStopped) << Where;
  // Both equations are monotone mu equations: every round after the
  // first is a semi-naive delta round, however the run stops.
  EXPECT_EQ(DeltaRounds, Sym.Iterations - 1) << Where;
}

} // namespace

TEST(SemiNaiveOracleTest, RandomGraphsMatchExplicitIteration) {
  // Reach(u) = Init(u) | exists x. Reach(x) & Trans(x, u) on random
  // graphs with a chain backbone (so fixpoints take many rounds), under
  // caches from one entry per 4096 table slots to one per slot: the full
  // fixpoint and an early stop at the chain's end.
  const unsigned NumNodes = 64;
  GraphFixture G(NumNodes);
  for (uint64_t Seed : {3u, 17u, 51u}) {
    Rng R(Seed);
    std::vector<std::pair<unsigned, unsigned>> Edges;
    for (unsigned E = 0; E < 96; ++E)
      Edges.emplace_back(unsigned(R.below(NumNodes)),
                         unsigned(R.below(NumNodes)));
    for (unsigned N = 0; N + 1 < NumNodes; ++N)
      Edges.emplace_back(N, N + 1);

    auto Body = [&](const NodeSet &S) {
      NodeSet Next{0};
      for (auto [From, To] : Edges)
        if (S.count(From))
          Next.insert(To);
      return Next;
    };
    auto Bind = [&](Evaluator &Ev) {
      Ev.bindInput(G.Init, Ev.encodeEqConst(G.U, 0));
      Bdd Trans = Ev.manager().zero();
      for (auto [From, To] : Edges)
        Trans |= Ev.encodeEqConst(G.X, From) & Ev.encodeEqConst(G.U, To);
      Ev.bindInput(G.Trans, Trans);
    };
    for (std::optional<unsigned> StopAt :
         {std::optional<unsigned>(), std::optional<unsigned>(NumNodes - 1)}) {
      NodeRun Oracle = iterateExplicit(Body, StopAt);
      // Each mode stops the way it says.
      EXPECT_EQ(Oracle.EarlyStopped, StopAt.has_value());
      for (unsigned CacheShift : {12u, 6u, 0u}) {
        uint64_t DeltaRounds = 0;
        NodeRun Sym = runSymbolic(G.Sys, G.Reach, G.U, NumNodes, CacheShift,
                                  Bind, StopAt, DeltaRounds);
        expectSameRun(Sym, Oracle, DeltaRounds,
                      "seed " + std::to_string(Seed) + " stop " +
                          std::to_string(StopAt.value_or(~0u)) + " shift " +
                          std::to_string(CacheShift));
      }
    }
  }
}

TEST(SemiNaiveOracleTest, BilinearJoinMatchesExplicitIteration) {
  // R(u) = Init(u) | exists x, y. R(x) & R(y) & Join(x, y, u): two
  // occurrences in one disjunct. Join(x, y, u) holds for u = min(x + y,
  // 15) over 1 <= x <= y < 8, and Init = {1}.
  System Sys;
  DomainId Node = Sys.addDomain("Node", 16);
  VarId U = Sys.addVar("u", Node);
  VarId X = Sys.addVar("x", Node);
  VarId Y = Sys.addVar("y", Node);
  RelId Init = Sys.declareRel("Init", {U});
  RelId Join = Sys.declareRel("Join", {X, Y, U});
  RelId R = Sys.declareRel("R", {U});
  Sys.define(R, Sys.mkOr({Sys.applyVars(Init, {U}),
                          Sys.exists({X, Y},
                                     Sys.mkAnd({Sys.applyVars(R, {X}),
                                                Sys.applyVars(R, {Y}),
                                                Sys.applyVars(Join,
                                                              {X, Y, U})}))}));
  DependencyGraph G(Sys);
  EquationPlan P = planEquation(Sys, G, R);
  ASSERT_TRUE(P.SemiNaive);
  ASSERT_EQ(P.Disjuncts.size(), 2u);
  EXPECT_TRUE(P.Disjuncts[1].Recursive);

  auto Body = [](const NodeSet &S) {
    NodeSet Next{1};
    for (unsigned A : S)
      for (unsigned B : S)
        if (1 <= A && A <= B && B < 8)
          Next.insert(std::min(A + B, 15u));
    return Next;
  };
  auto Bind = [&](Evaluator &Ev) {
    Ev.bindInput(Init, Ev.encodeEqConst(U, 1));
    Bdd JoinBdd = Ev.manager().zero();
    for (unsigned A = 1; A < 8; ++A)
      for (unsigned B = A; B < 8; ++B)
        JoinBdd |= Ev.encodeEqConst(X, A) & Ev.encodeEqConst(Y, B) &
                   Ev.encodeEqConst(U, std::min(A + B, 15u));
    Ev.bindInput(Join, JoinBdd);
  };
  // {1}, {1,2}, {1..4}, {1..8}, {1..14}, then no change: six rounds,
  // so the early stop at 8 lands on round 4.
  ASSERT_EQ(iterateExplicit(Body, std::nullopt).Iterations, 6u);
  ASSERT_EQ(iterateExplicit(Body, 8u).Iterations, 4u);
  for (std::optional<unsigned> StopAt :
       {std::optional<unsigned>(), std::optional<unsigned>(8u)}) {
    NodeRun Oracle = iterateExplicit(Body, StopAt);
    for (unsigned CacheShift : {12u, 6u, 0u}) {
      uint64_t DeltaRounds = 0;
      NodeRun Sym =
          runSymbolic(Sys, R, U, 16, CacheShift, Bind, StopAt, DeltaRounds);
      expectSameRun(Sym, Oracle, DeltaRounds,
                    "stop " + std::to_string(StopAt.value_or(~0u)) +
                        " shift " + std::to_string(CacheShift));
    }
  }
}

TEST(DependencyScheduleTest, SccScheduledDependenciesSolveOnce) {
  MultiSccFixture F;
  BddManager Mgr;
  Evaluator Ev(F.Sys, Mgr, Layout::sequential(F.Sys, Mgr));
  Ev.bindInput(F.In, Ev.encodeEqConst(F.X, 1));
  Bdd Top = Ev.evaluate(F.Top).Value;
  EXPECT_EQ(Top, Ev.encodeEqConst(F.X, 1));
  // The bottom SCC is pre-solved exactly once (members of the mutual Mid
  // SCC legitimately re-solve each other while iterating — that is the
  // paper's algorithmic semantics — but nothing below them is repeated,
  // and the pre-solved memos mean Top itself converges without any lazy
  // mid-round solves).
  EXPECT_EQ(Ev.stats().at("Low").Evaluations, 1u);
  EXPECT_EQ(Ev.stats().at("Top").Evaluations, 1u);
  uint64_t MidSolves = Ev.stats().at("MidA").Evaluations;
  // Solving Top again is pure memo lookup: no relation is re-solved.
  EXPECT_EQ(Ev.evaluate(F.Top).Value, Ev.encodeEqConst(F.X, 1));
  EXPECT_EQ(Ev.stats().at("Low").Evaluations, 1u);
  EXPECT_EQ(Ev.stats().at("MidA").Evaluations, MidSolves);
}

//===----------------------------------------------------------------------===//
// Rebind and invalidation
//===----------------------------------------------------------------------===//

TEST(EvaluatorTest, RebindingAnInputDropsStaleMemos) {
  // Regression: StaticCache/Completed used to survive a rebind, serving
  // BDDs computed from the previous binding. The static subformula here
  // (!In) makes the staleness observable without touching internals.
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId In = Sys.declareRel("In", {X});
  RelId NotIn = Sys.declareRel("NotIn", {X});
  RelId Helper = Sys.declareRel("Helper", {X});
  Sys.define(Helper, Sys.mkNot(Sys.applyVars(In, {X})));
  Sys.define(NotIn, Sys.mkOr({Sys.applyVars(Helper, {X}),
                              Sys.mkNot(Sys.applyVars(In, {X}))}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Ev.bindInput(In, Ev.encodeEqConst(X, 1));
  EXPECT_EQ(Ev.evaluate(NotIn).Value, Ev.encodeEqConst(X, 0));

  // Rebind WITHOUT calling invalidate(): the evaluator must drop both the
  // static-formula cache and the completed Helper relation by itself.
  Ev.bindInput(In, Ev.encodeEqConst(X, 0));
  EXPECT_EQ(Ev.evaluate(NotIn).Value, Ev.encodeEqConst(X, 1));
}

TEST(EvaluatorTest, ReadingAnUnboundInputIsALogicError) {
  // Round 1 reads only Init (the in-flight Reach is empty, so the
  // conjunction with Trans stops early); round 2 reads the unbound Trans.
  GraphFixture G;
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  Ev.bindInput(G.Init, Ev.encodeEqConst(G.U, 0));
  EXPECT_FALSE(Ev.hasInput(G.Trans));
  try {
    Ev.evaluate(G.Reach);
    ADD_FAILURE() << "evaluating over an unbound input did not throw";
  } catch (const std::logic_error &E) {
    EXPECT_NE(std::string(E.what()).find("'Trans'"), std::string::npos)
        << E.what();
  }
  EXPECT_THROW(Ev.input(G.Trans), std::logic_error);

  // A first binding keeps the memos (no completed round read Trans), and
  // the solve carries on to the right answer.
  Ev.bindInput(G.Trans, Ev.encodeEqConst(G.X, 0) & Ev.encodeEqConst(G.U, 1));
  EXPECT_TRUE(Ev.hasInput(G.Trans));
  EXPECT_EQ(Ev.evaluate(G.Reach).Value,
            Ev.encodeEqConst(G.U, 0) | Ev.encodeEqConst(G.U, 1));
  EXPECT_EQ(Ev.stats().at("Reach").Iterations, 3u);
}

TEST(EvaluatorTest, RebindingSameValueKeepsMemos) {
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId In = Sys.declareRel("In", {X});
  RelId Copy = Sys.declareRel("Copy", {X});
  Sys.define(Copy, Sys.applyVars(In, {X}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Bdd V = Ev.encodeEqConst(X, 1);
  Ev.bindInput(In, V);
  (void)Ev.evaluate(Copy);
  uint64_t Before = Ev.stats().at("Copy").Evaluations;
  Ev.bindInput(In, V); // Identical value: memos must survive.
  (void)Ev.evaluate(Copy);
  // The memoized Completed value answers the second evaluate's nested
  // uses; the top-level evaluate itself recounts, so allow exactly one
  // more solve but verify the value survived (same BDD, no extra rounds).
  EXPECT_LE(Ev.stats().at("Copy").Evaluations, Before + 1);
}

TEST(EvaluatorTest, ZeroArityRelation) {
  System Sys;
  VarId X = Sys.addVar("x", Sys.boolDomain());
  RelId In = Sys.declareRel("In", {X});
  RelId Any = Sys.declareRel("Any", {});
  Sys.define(Any, Sys.exists({X}, Sys.applyVars(In, {X})));
  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Ev.bindInput(In, Mgr.zero());
  EXPECT_TRUE(Ev.evaluate(Any).Value.isZero());
  Ev.invalidate();
  Ev.bindInput(In, Ev.encodeEqConst(X, 1));
  EXPECT_TRUE(Ev.evaluate(Any).Value.isOne());
}

//===----------------------------------------------------------------------===//
// RingLog: delta-compressed round retention
//===----------------------------------------------------------------------===//

namespace {

/// A monotone chain of "first N nodes" sets over one variable, the shape
/// fixpoint rounds actually take.
std::vector<Bdd> monotoneChain(Evaluator &Ev, VarId U, unsigned Rounds) {
  std::vector<Bdd> Chain;
  Bdd S = Ev.encodeEqConst(U, 0);
  Chain.push_back(S);
  for (unsigned R = 1; R < Rounds; ++R) {
    S |= Ev.encodeEqConst(U, R);
    Chain.push_back(S);
  }
  return Chain;
}

} // namespace

TEST(RingLogTest, ReconstitutesExactRingsAtEveryKeyframeInterval) {
  GraphFixture G(32);
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  std::vector<Bdd> Full = monotoneChain(Ev, G.U, 17);
  for (uint64_t K : {uint64_t(1), uint64_t(4), uint64_t(8), uint64_t(0)}) {
    RingLog Rings;
    Rings.setKeyframeInterval(K);
    for (const Bdd &R : Full)
      Rings.append(R);
    ASSERT_EQ(Rings.size(), Full.size()) << "K=" << K;
    // Canonicity: the reconstituted OR chain lands on the *same* BDD node
    // the full log would hold, not merely an equal set.
    for (size_t I = 0; I < Full.size(); ++I)
      EXPECT_EQ(Rings.ring(I), Full[I]) << "K=" << K << " ring " << I;
    EXPECT_EQ(Rings.last(), Full.back()) << "K=" << K;
    if (K == 1)
      EXPECT_EQ(Rings.keyframes(), Full.size());
    else if (K == 0)
      EXPECT_EQ(Rings.keyframes(), 1u);
    else
      EXPECT_EQ(Rings.keyframes(), (Full.size() + K - 1) / K);
  }
}

TEST(RingLogTest, FirstIntersectingMatchesFullRingScan) {
  GraphFixture G(32);
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  std::vector<Bdd> Full = monotoneChain(Ev, G.U, 24);
  RingLog Rings;
  Rings.setKeyframeInterval(5);
  for (const Bdd &R : Full)
    Rings.append(R);
  for (unsigned N = 0; N < 32; ++N) {
    Bdd T = Ev.encodeEqConst(G.U, N);
    size_t Expect = Full.size();
    for (size_t I = 0; I < Full.size(); ++I)
      if (!(Full[I] & T).isZero()) {
        Expect = I;
        break;
      }
    EXPECT_EQ(Rings.firstIntersecting(T), Expect) << "target " << N;
  }
}

TEST(RingLogTest, NonMonotoneRoundForcesAKeyframeAndStaysExact) {
  // Delta-compression assumes nothing about monotonicity: a round that
  // *drops* tuples (the ef-opt Relevant shape) cannot be stored as
  // `R & !Last`, so the log must detect it and store the round whole.
  GraphFixture G(16);
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  auto Set = [&](std::initializer_list<unsigned> Ns) {
    Bdd S = Mgr.zero();
    for (unsigned N : Ns)
      S |= Ev.encodeEqConst(G.U, N);
    return S;
  };
  std::vector<Bdd> Rounds = {Set({0}), Set({0, 1}), Set({1, 2}),
                             Set({1, 2, 3}), Set({0, 3})};
  RingLog Rings;
  Rings.setKeyframeInterval(100); // Interval alone would never keyframe.
  for (const Bdd &R : Rounds)
    Rings.append(R);
  for (size_t I = 0; I < Rounds.size(); ++I)
    EXPECT_EQ(Rings.ring(I), Rounds[I]) << "ring " << I;
  // Rounds 2 and 4 are non-monotone steps, each forced full.
  EXPECT_EQ(Rings.keyframes(), 3u);
}

TEST(RingLogTest, DeltaStorageRetainsFewerNodesThanFullRings) {
  // Scattered accumulation order, so intermediate rings are irregular
  // sets with real dag size (an in-order chain degenerates to interval
  // BDDs, which are as small as their deltas).
  GraphFixture G(64);
  BddManager Mgr;
  Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
  std::vector<unsigned> Order(64);
  for (unsigned N = 0; N < 64; ++N)
    Order[N] = N;
  Rng R(7);
  for (unsigned N = 63; N > 0; --N)
    std::swap(Order[N], Order[R.below(N + 1)]);
  std::vector<Bdd> Full;
  Bdd S = Mgr.zero();
  for (unsigned N = 0; N < 48; ++N) {
    S |= Ev.encodeEqConst(G.U, Order[N]);
    Full.push_back(S);
  }
  size_t FullNodes = 0;
  for (const Bdd &R : Full)
    FullNodes += R.nodeCount();
  RingLog Rings;
  Rings.setKeyframeInterval(8);
  for (const Bdd &R : Full)
    Rings.append(R);
  EXPECT_LT(Rings.storedNodes(), FullNodes);
}

TEST(IncrementalFixpointTest, ReplayStaysExactAfterComputedCacheClear) {
  // Regression (satellite of the session memory diet): reconstituting a
  // ring is an OR fold over live BDDs, so clearing the computed cache
  // between recording and replay must change nothing — neither verdicts
  // nor the reconstituted values. A stale-cache dependence here would
  // break the server's cache-clear valve.
  GraphFixture G(32);
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned N = 0; N + 1 < 32; ++N)
    Edges.emplace_back(N, N + 1);

  auto run = [&](bool ClearBetween) {
    BddManager Mgr;
    Evaluator Ev(G.Sys, Mgr, Layout::sequential(G.Sys, Mgr));
    Ev.bindInput(G.Init, Ev.encodeEqConst(G.U, 0));
    Bdd TransBdd = Mgr.zero();
    for (auto [From, To] : Edges)
      TransBdd |= Ev.encodeEqConst(G.X, From) & Ev.encodeEqConst(G.U, To);
    Ev.bindInput(G.Trans, TransBdd);

    IncrementalFixpoint Fix;
    // Record rounds up to node 20's discovery; at the log's default
    // keyframe interval of 8, ring 10 is a keyframe plus two deltas.
    IncrementalFixpoint::Answer First = Fix.query(
        Ev, G.Reach, Ev.encodeEqConst(G.U, 20), /*EarlyStop=*/true);
    EXPECT_TRUE(First.Reachable);
    if (ClearBetween)
      Mgr.clearComputedCache();
    // Replayed from recorded rings (no new rounds), reconstitution live.
    IncrementalFixpoint::Answer Second = Fix.query(
        Ev, G.Reach, Ev.encodeEqConst(G.U, 10), /*EarlyStop=*/true);
    EXPECT_EQ(Second.RoundsComputed, 0u);
    return std::make_tuple(Second.Iterations, Second.Reachable,
                           Second.Value.nodeCount(),
                           uint64_t(Second.Value.satCount(Mgr.numVars())));
  };

  EXPECT_EQ(run(false), run(true));
}
