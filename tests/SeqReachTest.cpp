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
const char *PaperEngines[] = {"summary", "ef", "ef-split", "ef-opt"};
/// Those plus the per-SCC split of Section 4.1's summaries.
const char *AllEngines[] = {"summary", "ef", "ef-split", "ef-opt",
                            "summary-scc"};

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
  // relation's node count (pinned here for the default engine's system).
  gen::DriverParams P;
  P.Reachable = true;
  P.Seed = 7;
  gen::Workload W = gen::driverProgram(P);
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg = parseCfg(W.Source, Prog);
  SolveResult R = solveVia(Cfg, W.TargetLabel, "summary-scc");
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

  // summary-scc: one Summary_/ReachEntry_ pair per call-graph SCC under
  // the Hits and SummaryAll roots, returning through the Appendix clause.
  std::string Scc = reach::formulaText(Cfg, reach::SeqAlgorithm::SummaryScc);
  EXPECT_NE(Scc.find("mu bool Summary_main"), std::string::npos);
  EXPECT_NE(Scc.find("mu bool ReachEntry_main"), std::string::npos);
  EXPECT_NE(Scc.find("mu bool Hits"), std::string::npos);
  EXPECT_NE(Scc.find("mu bool SummaryAll"), std::string::npos);
  EXPECT_EQ(Scc.find("mu bool SummaryEF"), std::string::npos);
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
// summary-scc (the per-SCC split) against the paper's engines
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

/// One solve through the facade with the ablation knobs exposed.
SolveResult solveShaped(const bp::ProgramCfg &Cfg, const char *Engine,
                        bool EarlyStop = true, bool Witness = false) {
  SolverOptions Opts;
  Opts.Engine = Engine;
  Opts.EarlyStop = EarlyStop;
  return Solver::solve(Query::fromCfg(Cfg).target("ERR").witness(Witness),
                       Opts);
}

} // namespace

/// engine x early stop: summary-scc and every paper engine must produce
/// the same verdict everywhere (round counts may differ; the verdict may
/// not).
TEST(SplitSummaryTest, SccAndPaperEnginesAgreeAcrossAllKnobs) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    for (bool EarlyStop : {false, true}) {
      SolveResult Scc = solveShaped(Cfg, "summary-scc", EarlyStop);
      ASSERT_TRUE(Scc.ok()) << SP.Name;
      EXPECT_EQ(Scc.Reachable, SP.ExpectReachable) << SP.Name;
      for (const char *Engine : PaperEngines) {
        SolveResult R = solveShaped(Cfg, Engine, EarlyStop);
        ASSERT_TRUE(R.ok()) << SP.Name << "/" << Engine;
        EXPECT_EQ(R.Reachable, Scc.Reachable) << SP.Name << "/" << Engine;
      }
    }
  }
}

/// summary-scc computes the same all-entries summary as `summary`, so the
/// union of its per-SCC relations must be *bit-identical* to the Section
/// 4.1 relation — same BDD, hence the same node count under the identical
/// variable layout. (The EF engines legitimately differ: their relation
/// is entry-forward-pruned, so only the verdict is pinned there.)
TEST(SplitSummaryTest, SccSummaryUnionBitIdenticalToSummary) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    SolveResult Scc = solveShaped(Cfg, "summary-scc");
    SolveResult Summary = solveShaped(Cfg, "summary");
    ASSERT_TRUE(Scc.ok() && Summary.ok()) << SP.Name;
    EXPECT_EQ(Scc.SummaryNodes, Summary.SummaryNodes) << SP.Name;
  }
}

/// summary-scc reports a condensation width and a summary-relation count
/// equal to the program's call-graph SCC count; every paper engine
/// compiles one summary relation in a narrow (1-4 defined relations)
/// condensation.
TEST(SplitSummaryTest, CondensationWidthMatchesCallGraph) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    bp::CallGraph CG = bp::buildCallGraph(Cfg);
    SolveResult Scc = solveShaped(Cfg, "summary-scc");
    EXPECT_EQ(Scc.CondensationWidth, CG.numSccs()) << SP.Name;
    EXPECT_EQ(Scc.SummaryRelations, CG.numSccs()) << SP.Name;
    for (const char *Engine : PaperEngines) {
      SolveResult R = solveShaped(Cfg, Engine);
      EXPECT_GE(R.CondensationWidth, 1u) << SP.Name << "/" << Engine;
      EXPECT_LE(R.CondensationWidth, 4u) << SP.Name << "/" << Engine;
      EXPECT_EQ(R.SummaryRelations, 1u) << SP.Name << "/" << Engine;
    }
  }
}

/// Terminator workloads carry one procedure per dead-variable phase, so
/// summary-scc's width clears the acceptance bar (> 4) while the verdict
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
  SolveResult R = solveShaped(Cfg, "summary-scc");
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.Reachable);
  EXPECT_EQ(R.CondensationWidth, CG.numSccs());
  EXPECT_GT(R.CondensationWidth, 4u);
}

/// Witness extraction walks one entry-forward solve whichever engine
/// answers the plain query, so summary-scc and every paper engine must
/// yield the identical trace.
TEST(SplitSummaryTest, WitnessesBitIdenticalAcrossEngines) {
  for (const ShapedProgram &SP : ShapedPrograms) {
    if (!SP.ExpectReachable)
      continue;
    std::unique_ptr<bp::Program> Prog;
    bp::ProgramCfg Cfg = parseCfg(SP.Source, Prog);
    SolveResult Scc = solveShaped(Cfg, "summary-scc", true, true);
    ASSERT_TRUE(Scc.ok()) << SP.Name;
    ASSERT_TRUE(Scc.HasWitness) << SP.Name;
    for (const char *Engine : PaperEngines) {
      SolveResult R = solveShaped(Cfg, Engine, true, true);
      ASSERT_TRUE(R.ok()) << SP.Name << "/" << Engine;
      ASSERT_TRUE(R.HasWitness) << SP.Name << "/" << Engine;
      EXPECT_EQ(R.WitnessText, Scc.WitnessText) << SP.Name << "/" << Engine;
    }
  }
}

/// Session mode: per-query answers across a target batch must match
/// between summary-scc and every paper engine.
TEST(SplitSummaryTest, SessionAnswersMatchPaperEngines) {
  gen::TerminatorParams P;
  P.CounterBits = 3;
  P.NumDeadVars = 2;
  P.Reachable = false;
  P.LabeledCheckpoints = 2;
  gen::Workload W = gen::terminatorProgram(P);
  std::vector<Query> Qs;
  for (const char *Label : {"CP0", "DEAD0", "ERR", "CP1", "DEAD1"})
    Qs.push_back(Query::fromSource("").target(Label));

  SolverOptions Opts;
  Opts.Engine = "summary-scc";
  auto SccSession = Solver::open(Query::fromSource(W.Source), Opts);
  ASSERT_TRUE(SccSession->ok());
  std::vector<SolveResult> Want;
  for (const Query &Q : Qs) {
    Want.push_back(SccSession->solve(Q));
    ASSERT_TRUE(Want.back().ok()) << Q.Label;
  }
  for (const char *Engine : PaperEngines) {
    Opts.Engine = Engine;
    auto Session = Solver::open(Query::fromSource(W.Source), Opts);
    ASSERT_TRUE(Session->ok()) << Engine;
    for (size_t I = 0; I < Qs.size(); ++I) {
      SolveResult R = Session->solve(Qs[I]);
      ASSERT_TRUE(R.ok()) << Engine << "/" << Qs[I].Label;
      EXPECT_EQ(R.Reachable, Want[I].Reachable)
          << Engine << "/" << Qs[I].Label;
    }
  }
}
