//===- ConcurrentTest.cpp - Bounded context-switching tests ---------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "bp/Parser.h"
#include "concurrent/ConcReach.h"
#include "gen/Workloads.h"
#include "interp/ConcurrentOracle.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace getafix;

namespace {

struct ParsedConc {
  std::unique_ptr<bp::ConcurrentProgram> Conc;
  std::vector<bp::ProgramCfg> Cfgs;
};

ParsedConc parseConc(const std::string &Src) {
  DiagnosticEngine Diags;
  ParsedConc P;
  P.Conc = bp::parseConcurrentProgram(Src, Diags);
  EXPECT_TRUE(P.Conc != nullptr) << Diags.str() << "\nsource:\n" << Src;
  if (P.Conc)
    P.Cfgs = conc::buildThreadCfgs(*P.Conc);
  return P;
}

SolveResult solveConc(const ParsedConc &P, const std::string &Label,
                      unsigned K, const char *Engine = "conc",
                      bool EarlyStop = true) {
  SolverOptions Opts;
  Opts.Engine = Engine;
  Opts.ContextBound = K;
  Opts.EarlyStop = EarlyStop;
  return Solver::solve(
      Query::fromConcurrent(*P.Conc, &P.Cfgs).target(Label), Opts);
}

/// Generates a small random concurrent program: straight-line and branchy
/// threads over a few shared flags, with an ERR guarded by a shared
/// condition. Ground truth comes from the explicit oracle.
std::string randomConcurrentSource(uint64_t Seed) {
  Rng R(Seed * 0x2545F4914F6CDD1Dull + 1);
  unsigned NumShared = 2 + unsigned(R.below(2));
  std::string Src = "shared decl s0";
  for (unsigned I = 1; I < NumShared; ++I)
    Src += ", s" + std::to_string(I);
  Src += ";\n";

  auto Var = [&] { return "s" + std::to_string(R.below(NumShared)); };
  auto Literal = [&]() -> std::string {
    std::string V = Var();
    return R.flip() ? "!" + V : V;
  };

  unsigned NumThreads = 2 + unsigned(R.below(2));
  for (unsigned T = 0; T < NumThreads; ++T) {
    Src += "thread\nmain() begin\n";
    unsigned Stmts = 2 + unsigned(R.below(4));
    for (unsigned S = 0; S < Stmts; ++S) {
      switch (R.below(3)) {
      case 0:
        Src += "  " + Var() + " := " + Literal() + ";\n";
        break;
      case 1:
        Src += "  if (" + Literal() + ") then " + Var() + " := " +
               (R.flip() ? "T" : "F") + "; fi;\n";
        break;
      default:
        Src += "  " + Var() + " := " + Literal() +
               (R.flip() ? " & " : " | ") + Literal() + ";\n";
        break;
      }
    }
    if (T == 0)
      Src += "  if (" + Literal() + " & " + Literal() +
             ") then ERR: skip; fi;\n";
    Src += "end\nend\n";
  }
  return Src;
}

class ConcDifferentialTest : public ::testing::TestWithParam<uint64_t> {};
class LalRepsTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST(ConcurrentTest, TwoPhaseHandshakeNeedsThreeSwitches) {
  // Thread 1 must observe a&!b then b: impossible below 3 switches.
  auto Conc = parseConc(R"(
shared decl a, b;
thread
main() begin
  a := T;
  b := T;
end
end
thread
main() begin
  decl seen;
  seen := F;
  if (a & !b) then seen := T; fi;
  if (seen & b) then ERR: skip; fi;
end
end
)");
  for (unsigned K = 0; K <= 4; ++K) {
    SolveResult R = solveConc(Conc, "ERR", K);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Reachable, K >= 3) << "k=" << K;
  }
}

TEST(ConcurrentTest, ReachSetGrowsWithContextBound) {
  auto Conc = parseConc(gen::bluetoothModel(1, 1));
  double Prev = 0;
  for (unsigned K = 1; K <= 3; ++K) {
    SolveResult R = solveConc(Conc, "ERR", K, "conc", /*EarlyStop=*/false);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_GT(R.ReachStates, Prev) << "k=" << K;
    Prev = R.ReachStates;
  }
}

TEST(ConcurrentTest, MissingLabelReported) {
  auto Conc = parseConc("shared decl s;\nthread\nmain() begin s := T; end\n"
                        "end\n");
  SolveResult R = solveConc(Conc, "NOPE", 2);
  EXPECT_EQ(R.Status, SolveStatus::TargetNotFound);
}

TEST(ConcurrentTest, RecursiveThreadsWithinBound) {
  // The active thread may recurse unboundedly between switches; summaries
  // must still converge.
  auto Conc = parseConc(R"(
shared decl flag, done;
thread
main() begin
  call dig();
  done := T;
end
dig() begin
  if (*) then call dig(); else flag := T; fi;
end
end
thread
main() begin
  if (flag & done) then ERR: skip; fi;
end
end
)");
  EXPECT_TRUE(solveConc(Conc, "ERR", 1).Reachable);
}

TEST_P(ConcDifferentialTest, SymbolicMatchesExplicitOracle) {
  std::string Src = randomConcurrentSource(GetParam());
  auto Conc = parseConc(Src);
  unsigned ProcId = 0, Pc = 0;
  ASSERT_TRUE(Conc.Cfgs[0].findLabelPc("ERR", ProcId, Pc)) << Src;

  for (unsigned K = 0; K <= 3; ++K) {
    interp::ConcurrentQuery Q;
    Q.Thread = 0;
    Q.ProcId = ProcId;
    Q.Pc = Pc;
    Q.MaxContextSwitches = K;
    interp::ConcurrentOracleResult O =
        interp::concurrentReachability(*Conc.Conc, Conc.Cfgs, Q);
    ASSERT_TRUE(O.Exhaustive) << "oracle bound too small\n" << Src;

    // Point query through the facade, against the explicit oracle.
    SolverOptions Opts;
    Opts.Engine = "conc";
    Opts.ContextBound = K;
    SolveResult R = Solver::solve(
        Query::fromConcurrent(*Conc.Conc, &Conc.Cfgs)
            .targetPoint(ProcId, Pc, /*Thread=*/0),
        Opts);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(R.Reachable, O.Reachable) << "k=" << K << "\n" << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcDifferentialTest,
                         ::testing::Range<uint64_t>(1, 26));

TEST_P(LalRepsTest, EagerReductionAgreesWithFixpoint) {
  std::string Src = randomConcurrentSource(GetParam());
  auto Conc = parseConc(Src);
  for (unsigned K = 1; K <= 2; ++K) {
    SolveResult Ours = solveConc(Conc, "ERR", K, "conc");
    SolveResult LR = solveConc(Conc, "ERR", K, "lal-reps");
    ASSERT_TRUE(Ours.ok()) << Ours.Error << "\n" << Src;
    ASSERT_TRUE(LR.ok()) << LR.Error << "\n" << Src;
    EXPECT_EQ(LR.Reachable, Ours.Reachable) << "k=" << K << "\n" << Src;
    // The eager reduction's global-copy blowup is visible in the stats.
    EXPECT_GT(LR.TransformedGlobals, Conc.Conc->SharedGlobals.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LalRepsTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(ConcurrentTest, CopiesFollowTheirFormalsInTheLayout) {
  // Each quantified copy is laid out right after the Reach formal it
  // stands in for, so a per-round application of Reach renames without
  // reordering: only the switch-back diagonal v.CG := g_{R+1} rebuilds
  // nodes with ite. Moving a formal instead of a copy would change the
  // rounds or the relation's node count. The count also pins the domain
  // order (Context, Module, PrCount, Local, Global, Thread, Choice): the
  // same relation took 2588 nodes with Context below the state domains
  // and Global above Local.
  auto Conc = parseConc(gen::bluetoothModel(1, 1));
  SolveResult R = solveConc(Conc, "ERR", 2);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Reachable);
  EXPECT_EQ(R.Iterations, 48u);
  EXPECT_EQ(R.SummaryNodes, 2140u);
  uint64_t Ite = R.Bdd.OpLookups[unsigned(BddOp::Ite)];
  uint64_t Rename = R.Bdd.OpLookups[unsigned(BddOp::Rename)];
  ASSERT_GT(Rename, 0u);
  EXPECT_LT(Ite * 10, Rename) << "Ite " << Ite << ", Rename " << Rename;
}

TEST(BluetoothTest, Figure3Pattern) {
  // The paper's Figure 3 Reach? column: (adders, stoppers) -> first k with
  // a reachable assertion failure (0 = never within the tested bounds).
  // Each row also pins the columns no variable order may move: the
  // fixpoint rounds and the reachable-set size at k = 1..4 (default
  // options, so the rounds stop early once ERR is reached).
  struct Row {
    unsigned Adders, Stoppers, FirstBadK;
    uint64_t Iterations[4];
    double ReachStates[4];
  } Rows[] = {
      {1, 1, 0, {47, 48, 49, 50}, {300, 1174, 3921, 10832}},
      {1, 2, 3, {47, 58, 32, 31}, {748, 5460, 26368, 129630}},
      {2, 1, 4, {47, 66, 76, 38}, {769, 5333, 33889, 155295}},
      {2, 2, 3, {47, 66, 32, 31}, {1470, 15400, 99836, 707046}},
  };

  for (const Row &Cfg : Rows) {
    auto Conc = parseConc(gen::bluetoothModel(Cfg.Adders, Cfg.Stoppers));
    for (unsigned K = 1; K <= 4; ++K) {
      SolveResult R = solveConc(Conc, "ERR", K);
      ASSERT_TRUE(R.ok()) << R.Error;
      bool Expected = Cfg.FirstBadK != 0 && K >= Cfg.FirstBadK;
      std::string Where = std::to_string(Cfg.Adders) + " adders, " +
                          std::to_string(Cfg.Stoppers) + " stoppers, k=" +
                          std::to_string(K);
      EXPECT_EQ(R.Reachable, Expected) << Where;
      EXPECT_EQ(R.Iterations, Cfg.Iterations[K - 1]) << Where;
      EXPECT_EQ(R.ReachStates, Cfg.ReachStates[K - 1]) << Where;
    }
  }
}
