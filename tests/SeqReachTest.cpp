//===- SeqReachTest.cpp - Sequential reachability engine tests ------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests: every symbolic engine and both baselines must agree
/// with the explicit tabulation oracle on the regression suite and on
/// randomly generated driver-shaped programs. All engines are dispatched
/// by registry name through the `Solver` facade, so this is the main
/// correctness net for the whole pipeline (parser -> CFG -> encoder ->
/// calculus -> solver) *and* for the facade's dispatch.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "interp/SummaryOracle.h"
#include "reach/SeqReach.h"

#include <gtest/gtest.h>

using namespace getafix;

namespace {

bp::ProgramCfg parseCfg(const std::string &Src,
                        std::unique_ptr<bp::Program> &Keep) {
  DiagnosticEngine Diags;
  Keep = bp::parseProgram(Src, Diags);
  EXPECT_TRUE(Keep != nullptr) << Diags.str() << "\nsource:\n" << Src;
  if (!Keep) // Keep the runner alive; the EXPECT above already failed.
    Keep = bp::parseProgram("main() begin end", Diags);
  return bp::buildCfg(*Keep);
}

/// The four fixed-point engines of Sections 4.1–4.3, by registry name.
const char *AllEngines[] = {"summary", "ef", "ef-split", "ef-opt"};

SolveResult solveVia(const bp::ProgramCfg &Cfg, const std::string &Label,
                     const char *Engine, bool EarlyStop = true) {
  SolverOptions Opts;
  Opts.Engine = Engine;
  Opts.EarlyStop = EarlyStop;
  return Solver::solve(Query::fromCfg(Cfg).target(Label), Opts);
}

/// Regression workload x engine.
class RegressionTest
    : public ::testing::TestWithParam<std::tuple<size_t, const char *>> {};

/// Seed for random-program differential testing.
class DriverDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RegressionTest, MatchesExpectation) {
  auto [Index, Engine] = GetParam();
  gen::Workload W = gen::regressionSuite()[Index];
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);

  SolveResult R = solveVia(Cfg, W.TargetLabel, Engine);
  ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
  EXPECT_EQ(R.Reachable, W.ExpectReachable) << W.Name << " via " << Engine;

  // The oracle must concur (guards the expectations themselves).
  interp::OracleResult O =
      interp::summaryReachabilityOfLabel(Cfg, W.TargetLabel);
  EXPECT_EQ(O.Reachable, W.ExpectReachable) << W.Name << " (oracle)";
}

namespace {

std::string regressionCaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, const char *>>
        &Info) {
  size_t Index = std::get<0>(Info.param);
  std::string Name = gen::regressionSuite()[Index].Name + "_" +
                     std::get<1>(Info.param);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Suite, RegressionTest,
    ::testing::Combine(::testing::Range<size_t>(
                           0, gen::regressionSuite().size()),
                       ::testing::ValuesIn(AllEngines)),
    regressionCaseName);

TEST(RegressionBaselinesTest, BaselinesMatchExpectations) {
  for (const gen::Workload &W : gen::regressionSuite()) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
    EXPECT_EQ(solveVia(Cfg, W.TargetLabel, "moped").Reachable,
              W.ExpectReachable)
        << W.Name << " (moped)";
    EXPECT_EQ(solveVia(Cfg, W.TargetLabel, "bebop").Reachable,
              W.ExpectReachable)
        << W.Name << " (bebop)";
  }
}

TEST_P(DriverDifferentialTest, AllEnginesAgreeOnRandomPrograms) {
  uint64_t Seed = GetParam();
  for (bool Reachable : {false, true}) {
    gen::DriverParams P;
    P.NumProcs = 4 + Seed % 3;
    P.NumGlobals = 3;
    P.LocalsPerProc = 3;
    P.StmtsPerProc = 6;
    P.Reachable = Reachable;
    P.Seed = Seed;
    gen::Workload W = gen::driverProgram(P);

    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
    interp::OracleResult O =
        interp::summaryReachabilityOfLabel(Cfg, W.TargetLabel);

    for (const char *Engine : AllEngines) {
      SolveResult R = solveVia(Cfg, W.TargetLabel, Engine);
      ASSERT_TRUE(R.ok()) << R.Error;
      EXPECT_EQ(R.Reachable, O.Reachable)
          << W.Name << " disagreement: " << Engine << "\n" << W.Source;
    }
    EXPECT_EQ(solveVia(Cfg, W.TargetLabel, "moped").Reachable, O.Reachable)
        << W.Name << " (moped)\n" << W.Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverDifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(SeqReachTest, EarlyStopAndFullSearchAgree) {
  gen::DriverParams P;
  P.NumProcs = 5;
  P.Reachable = true;
  P.Seed = 42;
  gen::Workload W = gen::driverProgram(P);
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);

  EXPECT_EQ(solveVia(Cfg, "ERR", "ef-split", /*EarlyStop=*/true).Reachable,
            solveVia(Cfg, "ERR", "ef-split", /*EarlyStop=*/false).Reachable);
}

TEST(SeqReachTest, CopiesFollowTheirFormalsInTheLayout) {
  // Each quantified copy is laid out right after the summary formal it
  // stands in for, so every per-round application of a summary renames
  // without reordering and builds its nodes directly, not with ite.
  // Moving a formal instead of a copy would change the rounds or the
  // relation's node count.
  gen::DriverParams P;
  P.Reachable = true;
  P.Seed = 7;
  gen::Workload W = gen::driverProgram(P);
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
  SolveResult R = solveVia(Cfg, W.TargetLabel, "ef-opt");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Reachable);
  EXPECT_EQ(R.Iterations, 26u);
  EXPECT_EQ(R.SummaryNodes, 14993u);
  uint64_t Ite = R.Bdd.OpLookups[unsigned(BddOp::Ite)];
  uint64_t Rename = R.Bdd.OpLookups[unsigned(BddOp::Rename)];
  ASSERT_GT(Rename, 0u);
  EXPECT_LT(Ite * 10, Rename) << "Ite " << Ite << ", Rename " << Rename;
}

TEST(SeqReachTest, MissingLabelReported) {
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg("main() begin skip; end", Prog);
  SolveResult R = solveVia(Cfg, "NOPE", "ef-opt");
  EXPECT_EQ(R.Status, SolveStatus::TargetNotFound);
}

TEST(SeqReachTest, FormulaTextShowsAlgorithmStructure) {
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg("main() begin skip; end", Prog);
  std::string EF =
      reach::formulaText(Cfg, reach::SeqAlgorithm::EntryForwardSplit);
  EXPECT_NE(EF.find("mu bool SummaryEF"), std::string::npos);
  EXPECT_NE(EF.find("setReturn1"), std::string::npos);
  EXPECT_NE(EF.find("setReturn2"), std::string::npos);

  std::string Opt =
      reach::formulaText(Cfg, reach::SeqAlgorithm::EntryForwardOpt);
  EXPECT_NE(Opt.find("mu bool SummaryEFopt"), std::string::npos);
  EXPECT_NE(Opt.find("mu bool Relevant"), std::string::npos);
  EXPECT_NE(Opt.find("mu bool New1"), std::string::npos);
  // Relevant negates the fr=0 copy: the non-monotone heart of Section 4.3.
  EXPECT_NE(Opt.find("!(SummaryEFopt(0"), std::string::npos);
}

TEST(SeqReachTest, TerminatorParityNegativesAreProven) {
  // The even-parity claim after a full 2^B counter walk is false; the
  // engines must prove it (and the positive twin must be found).
  for (auto Style : {gen::DeadVarStyle::Iterative, gen::DeadVarStyle::Schoose})
    for (bool Reachable : {false, true}) {
      gen::TerminatorParams P;
      P.CounterBits = 3;
      P.NumDeadVars = 2;
      P.Style = Style;
      P.Reachable = Reachable;
      gen::Workload W = gen::terminatorProgram(P);
      std::unique_ptr<bp::Program> Prog;
      bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
      EXPECT_EQ(solveVia(Cfg, "ERR", "ef-opt").Reachable, Reachable)
          << W.Name;
    }
}

TEST(SeqReachTest, RecursiveDepthBeyondExplicitBounds) {
  // Unbounded recursion with a nondet stop: summaries must converge even
  // though the state space of stacks is infinite.
  const char *Src = R"(
decl g;
main() begin
  g := F;
  call dig();
  if (g) then ERR: skip; fi;
end
dig() begin
  if (*) then
    call dig();
  else
    g := T;
  fi;
end
)";
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(Src, Prog);
  for (const char *Engine : AllEngines)
    EXPECT_TRUE(solveVia(Cfg, "ERR", Engine).Reachable) << Engine;
}

//===----------------------------------------------------------------------===//
// Per-procedure summary split vs the monolithic compilation
//===----------------------------------------------------------------------===//

namespace {

/// Programs whose call-graph shapes stress the split: self recursion,
/// mutual recursion (a non-trivial SCC group), and a diamond (a shared
/// callee reached on two paths, where a naive per-caller re-derivation
/// would double work or lose tuples).
struct ShapedProgram {
  const char *Name;
  const char *Source;
  bool ExpectReachable;
};

const ShapedProgram ShapedPrograms[] = {
    {"recursive",
     R"(
decl g;
main() begin
  g := F;
  call dig();
  if (g) then ERR: skip; fi;
end
dig() begin
  if (*) then
    call dig();
  else
    g := T;
  fi;
end
)",
     true},
    {"mutually_recursive",
     R"(
decl g, n0, n1;
main() begin
  g := F;
  n0 := T; n1 := T;
  call even();
  if (g & !n0 & !n1) then ERR: skip; fi;
end
even() begin
  if (n0 | n1) then
    n0, n1 := !n0, n0 & !n1 | !n0 & n1;
    call odd();
  else
    g := T;
  fi;
end
odd() begin
  call even();
end
)",
     true},
    {"call_graph_diamond",
     R"(
decl g, h;
main() begin
  g := F; h := F;
  call a();
  call b();
  if (g & !h) then ERR: skip; fi;
end
a() begin
  call c();
  g := g | h;
end
b() begin
  call c();
end
c() begin
  if (*) then g := T; fi;
  h := g;
end
)",
     false},
};

/// One solve through the facade with the split/monolithic switch and the
/// ablation knobs exposed.
SolveResult solveShaped(const bp::ProgramCfg &Cfg, const char *Engine,
                        bool Monolithic, fpc::EvalStrategy Strategy,
                        bool EarlyStop) {
  SolverOptions Opts;
  Opts.Engine = Engine;
  Opts.MonolithicSummary = Monolithic;
  Opts.Strategy = Strategy;
  Opts.EarlyStop = EarlyStop;
  return Solver::solve(Query::fromCfg(Cfg).target("ERR"), Opts);
}

} // namespace

/// engine x strategy x early stop: the split and monolithic
/// compilations must produce the same verdict everywhere (round counts
/// may differ; the verdict may not).
TEST(SplitSummaryTest, SplitAndMonolithicAgreeAcrossAllKnobs) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    for (const char *Engine : AllEngines)
      for (auto Strategy :
           {fpc::EvalStrategy::SemiNaive, fpc::EvalStrategy::Naive})
        for (bool EarlyStop : {false, true}) {
          SolveResult Split = solveShaped(Cfg, Engine, /*Monolithic=*/false,
                                          Strategy, EarlyStop);
          SolveResult Mono = solveShaped(Cfg, Engine, /*Monolithic=*/true,
                                         Strategy, EarlyStop);
          ASSERT_TRUE(Split.ok() && Mono.ok()) << SP.Name << "/" << Engine;
          EXPECT_EQ(Split.Reachable, SP.ExpectReachable)
              << SP.Name << "/" << Engine << " (split)";
          EXPECT_EQ(Split.Reachable, Mono.Reachable)
              << SP.Name << "/" << Engine;
        }
  }
}

/// The summary engine computes the same all-entries summary either way, so
/// the union of the per-procedure relations must be *bit-identical* to the
/// monolithic relation — same BDD, hence the same node count under the
/// identical variable layout. (The EF flavors legitimately differ: their
/// monolithic relation is entry-forward-pruned while the split keeps the
/// SummarySimple decomposition, so only the verdict is pinned there.)
TEST(SplitSummaryTest, SummaryUnionBitIdenticalToMonolithicRelation) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    SolveResult Split =
        solveShaped(Cfg, "summary", false, fpc::EvalStrategy::SemiNaive,
                    /*EarlyStop=*/false);
    SolveResult Mono =
        solveShaped(Cfg, "summary", true, fpc::EvalStrategy::SemiNaive,
                    /*EarlyStop=*/false);
    ASSERT_TRUE(Split.ok() && Mono.ok()) << SP.Name;
    EXPECT_EQ(Split.SummaryNodes, Mono.SummaryNodes) << SP.Name;
  }
}

/// The reported condensation width must equal the program's call-graph
/// SCC count under the split and collapse back to the narrow monolithic
/// band (1-4 defined relations) under the escape hatch.
TEST(SplitSummaryTest, CondensationWidthMatchesCallGraph) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    bp::CallGraph CG = bp::buildCallGraph(Cfg);
    for (const char *Engine : AllEngines) {
      SolveResult Split =
          solveShaped(Cfg, Engine, false, fpc::EvalStrategy::SemiNaive,
                      true);
      EXPECT_EQ(Split.CondensationWidth, CG.numSccs())
          << SP.Name << "/" << Engine;
      EXPECT_EQ(Split.SummaryRelations, CG.numSccs())
          << SP.Name << "/" << Engine;
      SolveResult Mono =
          solveShaped(Cfg, Engine, true, fpc::EvalStrategy::SemiNaive,
                      true);
      EXPECT_GE(Mono.CondensationWidth, 1u) << SP.Name << "/" << Engine;
      EXPECT_LE(Mono.CondensationWidth, 4u) << SP.Name << "/" << Engine;
      EXPECT_EQ(Mono.SummaryRelations, 1u) << SP.Name << "/" << Engine;
    }
  }
}

/// Terminator workloads carry one procedure per dead-variable phase, so
/// the split's width clears the acceptance bar (> 4) while the verdict
/// stays pinned to the parity argument.
TEST(SplitSummaryTest, TerminatorWidthExceedsFour) {
  gen::TerminatorParams P;
  P.CounterBits = 3;
  P.NumDeadVars = 3;
  P.Reachable = false;
  gen::Workload W = gen::terminatorProgram(P);
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
  bp::CallGraph CG = bp::buildCallGraph(Cfg);
  EXPECT_GT(CG.numSccs(), 4u);
  SolveResult R = solveShaped(Cfg, "summary", false,
                              fpc::EvalStrategy::SemiNaive,
                              true);
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.Reachable);
  EXPECT_EQ(R.CondensationWidth, CG.numSccs());
  EXPECT_GT(R.CondensationWidth, 4u);
}

/// Witness extraction must yield the identical trace whether the solve
/// side runs split or monolithic (the extractor's ring walk is shared).
TEST(SplitSummaryTest, WitnessesBitIdenticalAcrossCompilations) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    if (!SP.ExpectReachable)
      continue;
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    for (const char *Engine : AllEngines) {
      SolverOptions Opts;
      Opts.Engine = Engine;
      Query Q = Query::fromCfg(Cfg).target("ERR").witness(true);
      Opts.MonolithicSummary = false;
      SolveResult Split = Solver::solve(Q, Opts);
      Opts.MonolithicSummary = true;
      SolveResult Mono = Solver::solve(Q, Opts);
      ASSERT_TRUE(Split.ok() && Mono.ok()) << SP.Name << "/" << Engine;
      ASSERT_TRUE(Split.HasWitness) << SP.Name << "/" << Engine;
      ASSERT_TRUE(Mono.HasWitness) << SP.Name << "/" << Engine;
      EXPECT_EQ(Split.WitnessText, Mono.WitnessText)
          << SP.Name << "/" << Engine;
    }
  }
}

/// Session mode: per-query answers across a target batch must match
/// between the compilations, with reuse both on and off.
TEST(SplitSummaryTest, SessionAnswersMatchMonolithic) {
  gen::TerminatorParams P;
  P.CounterBits = 3;
  P.NumDeadVars = 2;
  P.Reachable = false;
  P.LabeledCheckpoints = 2;
  gen::Workload W = gen::terminatorProgram(P);
  for (const char *Engine : AllEngines)
    for (bool Reuse : {true, false}) {
      SolverOptions Opts;
      Opts.Engine = Engine;
      Opts.SessionReuse = Reuse;
      std::vector<Query> Qs;
      for (const char *Label : {"CP0", "DEAD0", "ERR", "CP1", "DEAD1"})
        Qs.push_back(Query::fromSource("").target(Label));

      Opts.MonolithicSummary = false;
      auto SplitSession = Solver::open(Query::fromSource(W.Source), Opts);
      Opts.MonolithicSummary = true;
      auto MonoSession = Solver::open(Query::fromSource(W.Source), Opts);
      ASSERT_TRUE(SplitSession->ok() && MonoSession->ok()) << Engine;
      for (const Query &Q : Qs) {
        SolveResult S = SplitSession->solve(Q);
        SolveResult M = MonoSession->solve(Q);
        ASSERT_TRUE(S.ok() && M.ok()) << Engine << "/" << Q.Label;
        EXPECT_EQ(S.Reachable, M.Reachable) << Engine << "/" << Q.Label;
      }
    }
}
