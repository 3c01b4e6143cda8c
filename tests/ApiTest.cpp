//===- ApiTest.cpp - Solver facade and engine registry tests --------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the `getafix::Solver` facade: one fixture program is answered
/// identically by every registered engine (sequential engines on the
/// sequential rendering, concurrent engines on a one-thread concurrent
/// wrapper of the same body), error statuses come back for unknown labels
/// and unknown engines, and the options plumbing (rounds, witness
/// requests, stats alignment) behaves.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "reach/Witness.h"

#include <gtest/gtest.h>

using namespace getafix;

namespace {

/// The fixture body: a recursive lock-discipline model whose ERR label is
/// reachable (a double acquire via the recursive call), plus a SAFE label
/// that is not.
const char *FixtureBody = R"(
main() begin
  locked := F;
  call work(F);
end
work(nested) begin
  if (locked) then
    ERR: skip;
  else
    locked := T;
  fi
  if (!nested) then
    call work(T);
  fi
  if (locked & !locked) then
    SAFE: skip;
  fi
  locked := F;
end
)";

std::string seqFixture() { return std::string("decl locked;\n") + FixtureBody; }

/// The same body as a one-thread concurrent program (`locked` becomes
/// shared), so the concurrent engines answer the same question.
std::string concFixture() {
  return std::string("shared decl locked;\nthread\n") + FixtureBody + "end\n";
}

SolveResult solveWith(const std::string &EngineName, const std::string &Src,
                      const std::string &Label) {
  SolverOptions Opts;
  Opts.Engine = EngineName;
  return Solver::solve(Query::fromSource(Src).target(Label), Opts);
}

} // namespace

TEST(ApiTest, RegistryHasTheEightEngines) {
  for (const char *Name : {"summary", "ef", "ef-split", "ef-opt", "moped",
                           "bebop", "conc", "lal-reps"}) {
    const api::Engine *E = Solver::findEngine(Name);
    ASSERT_NE(E, nullptr) << Name;
    EXPECT_STREQ(E->name(), Name);
    EXPECT_STRNE(E->description(), "");
  }
  EXPECT_EQ(Solver::findEngine("no-such-engine"), nullptr);
  EXPECT_GE(Solver::engines().size(), 8u);
}

TEST(ApiTest, AllEnginesAgreeOnTheFixture) {
  for (const std::string &Label : {std::string("ERR"), std::string("SAFE")}) {
    bool Expected = Label == "ERR";
    for (const api::Engine *E : Solver::engines()) {
      SolveResult R = solveWith(
          E->name(), E->handlesConcurrent() ? concFixture() : seqFixture(),
          Label);
      ASSERT_TRUE(R.ok()) << E->name() << ": " << R.Error;
      EXPECT_EQ(R.Reachable, Expected) << E->name() << " on " << Label;
    }
  }
}

TEST(ApiTest, UnknownLabelReportsTargetNotFound) {
  for (const std::string &Src : {seqFixture(), concFixture()}) {
    SolveResult R = Solver::solve(Query::fromSource(Src).target("NOPE"),
                                  SolverOptions());
    EXPECT_EQ(R.Status, SolveStatus::TargetNotFound);
    EXPECT_NE(R.Error.find("NOPE"), std::string::npos) << R.Error;
  }
}

TEST(ApiTest, UnknownEngineReportsUnknownEngine) {
  SolverOptions Opts;
  Opts.Engine = "mucke-classic";
  SolveResult R =
      Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Opts);
  EXPECT_EQ(R.Status, SolveStatus::UnknownEngine);
  // The message names the engine and lists what is available.
  EXPECT_NE(R.Error.find("mucke-classic"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("ef-split"), std::string::npos) << R.Error;
}

TEST(ApiTest, EngineKindMismatchIsRejected) {
  SolverOptions Opts;
  Opts.Engine = "conc";
  EXPECT_EQ(Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Opts)
                .Status,
            SolveStatus::BadQuery);
  Opts.Engine = "ef-opt";
  EXPECT_EQ(Solver::solve(Query::fromSource(concFixture()).target("ERR"), Opts)
                .Status,
            SolveStatus::BadQuery);
}

TEST(ApiTest, ParseErrorsSurfaceDiagnostics) {
  SolveResult R = Solver::solve(Query::fromSource("main() begin oops"),
                                SolverOptions());
  EXPECT_EQ(R.Status, SolveStatus::ParseError);
  EXPECT_FALSE(R.Error.empty());
}

TEST(ApiTest, DefaultEngineFollowsQueryKind) {
  // Empty engine name: ef-opt for sequential sources, conc for concurrent.
  SolverOptions Auto;
  EXPECT_TRUE(
      Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Auto)
          .ok());
  EXPECT_TRUE(
      Solver::solve(Query::fromSource(concFixture()).target("ERR"), Auto)
          .ok());
}

TEST(ApiTest, PrebuiltProgramsAndPointTargets) {
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(seqFixture(), Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);

  unsigned ProcId = 0, Pc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ProcId, Pc));

  for (const char *Name : {"summary", "ef", "ef-split", "ef-opt", "moped",
                           "bebop"}) {
    SolverOptions Opts;
    Opts.Engine = Name;
    SolveResult R =
        Solver::solve(Query::fromCfg(Cfg).targetPoint(ProcId, Pc), Opts);
    ASSERT_TRUE(R.ok()) << Name << ": " << R.Error;
    EXPECT_TRUE(R.Reachable) << Name;
  }

  // Out-of-range points are rejected, not solved.
  SolveResult Bad = Solver::solve(Query::fromCfg(Cfg).targetPoint(99, 0),
                                  SolverOptions());
  EXPECT_EQ(Bad.Status, SolveStatus::TargetNotFound);
}

TEST(ApiTest, BddEnginesReportPeakLiveNodes) {
  // Stats alignment: every BDD-backed engine reports a nonzero peak;
  // the enumerative bebop stand-in reports 0 by design.
  for (const api::Engine *E : Solver::engines()) {
    SolveResult R = solveWith(
        E->name(), E->handlesConcurrent() ? concFixture() : seqFixture(),
        "ERR");
    ASSERT_TRUE(R.ok()) << E->name() << ": " << R.Error;
    if (std::string(E->name()) == "bebop")
      EXPECT_EQ(R.Bdd.PeakNodes, 0u);
    else
      EXPECT_GT(R.Bdd.PeakNodes, 0u) << E->name();
  }
}

TEST(ApiTest, WitnessRequestYieldsAVerifiedTrace) {
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(seqFixture(), Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);

  SolverOptions Opts;
  Opts.Engine = "ef";
  SolveResult R =
      Solver::solve(Query::fromCfg(Cfg).target("ERR").witness(), Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Reachable);
  ASSERT_TRUE(R.HasWitness);
  ASSERT_FALSE(R.Witness.empty());
  EXPECT_FALSE(R.WitnessText.empty());

  unsigned ProcId = 0, Pc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ProcId, Pc));
  std::string Error;
  EXPECT_TRUE(reach::verifyWitness(Cfg, R.Witness, ProcId, Pc, &Error))
      << Error;
}

TEST(ApiTest, WitnessQueriesReportTheirCondensation) {
  // A witness query solves a fixed-point system too: the monolithic
  // EntryForward one. Under `ef` with the monolithic compilation the
  // plain query solves that same system, so both report the same width
  // and summary-relation count — one-shot and through a session.
  gen::TerminatorParams T;
  T.CounterBits = 3;
  T.NumDeadVars = 3;
  T.Reachable = true;
  gen::Workload W = gen::terminatorProgram(T);
  SolverOptions Opts;
  Opts.Engine = "ef";
  Opts.MonolithicSummary = true;
  Query Plain = Query::fromSource(W.Source).target(W.TargetLabel);
  Query WithWitness = Plain;
  WithWitness.witness();
  SolveResult P = Solver::solve(Plain, Opts);
  SolveResult Wit = Solver::solve(WithWitness, Opts);
  ASSERT_TRUE(P.ok() && Wit.ok()) << P.Error << Wit.Error;
  ASSERT_TRUE(Wit.HasWitness);
  EXPECT_GE(P.CondensationWidth, 1u);
  EXPECT_EQ(P.SummaryRelations, 1u);
  EXPECT_EQ(Wit.CondensationWidth, P.CondensationWidth);
  EXPECT_EQ(Wit.SummaryRelations, P.SummaryRelations);

  std::unique_ptr<SolverSession> S =
      Solver::open(Query::fromSource(W.Source), Opts);
  ASSERT_TRUE(S->ok()) << S->error();
  SolveResult SessWit =
      S->solve(Query::fromSource("").target(W.TargetLabel).witness());
  ASSERT_TRUE(SessWit.ok()) << SessWit.Error;
  EXPECT_EQ(SessWit.CondensationWidth, P.CondensationWidth);
  EXPECT_EQ(SessWit.SummaryRelations, P.SummaryRelations);

  // Under the default split the plain query is as wide as the call
  // graph, while the witness solve still reports its monolithic system.
  Opts.MonolithicSummary = false;
  SolveResult SplitWit = Solver::solve(WithWitness, Opts);
  ASSERT_TRUE(SplitWit.ok()) << SplitWit.Error;
  EXPECT_EQ(SplitWit.CondensationWidth, P.CondensationWidth);
  EXPECT_EQ(SplitWit.SummaryRelations, 1u);
}

TEST(ApiTest, RoundsOptionImpliesRoundRobin) {
  // A three-hop chain: thread 0 raises a flag thread 2 reports. One
  // round-robin round (k = 2) reaches it; a context bound of 1 does not.
  const char *Src = R"(
shared decl flag;
thread
main() begin
  flag := T;
end
end
thread
main() begin
  skip;
end
end
thread
main() begin
  if (flag) then ERR: skip; else skip; fi
end
end
)";
  SolverOptions Opts;
  Opts.Engine = "conc";
  Opts.Rounds = 1; // => k = 2 under round-robin.
  EXPECT_TRUE(Solver::solve(Query::fromSource(Src).target("ERR"), Opts)
                  .Reachable);
  Opts.Rounds = 0;
  Opts.ContextBound = 1;
  Opts.RoundRobin = true;
  EXPECT_FALSE(Solver::solve(Query::fromSource(Src).target("ERR"), Opts)
                   .Reachable);
}

TEST(ApiTest, FormulaTextComesThroughTheFacade) {
  // The printed system tracks the compilation the options select: the
  // per-procedure split by default, the paper's monolithic relation under
  // MonolithicSummary.
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  std::string Error;
  std::string Text = Solver::formulaText(
      Query::fromSource(seqFixture()).target("ERR"), Opts, &Error);
  EXPECT_NE(Text.find("mu bool Summary_"), std::string::npos) << Error;
  EXPECT_EQ(Text.find("mu bool SummaryEF"), std::string::npos);

  Opts.MonolithicSummary = true;
  Text = Solver::formulaText(Query::fromSource(seqFixture()).target("ERR"),
                             Opts, &Error);
  EXPECT_NE(Text.find("mu bool SummaryEF"), std::string::npos) << Error;
  Opts.MonolithicSummary = false;

  // The formula does not depend on the target, so a program without the
  // queried label still prints one.
  Opts.Engine = "ef-split";
  Text = Solver::formulaText(
      Query::fromSource("main() begin skip; end").target("ERR"), Opts,
      &Error);
  EXPECT_NE(Text.find("mu bool Summary_"), std::string::npos) << Error;

  // Natively coded engines have no formula; the error says so.
  Opts.Engine = "moped";
  Text = Solver::formulaText(Query::fromSource(seqFixture()).target("ERR"),
                             Opts, &Error);
  EXPECT_TRUE(Text.empty());
  EXPECT_FALSE(Error.empty());
}

TEST(ApiTest, MaxIterationsSurfacesThroughTheFacade) {
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  Opts.EarlyStop = false;
  Opts.MaxIterations = 1;
  SolveResult R =
      Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.HitIterationLimit);
  EXPECT_EQ(R.Iterations, 1u);
  // The fixture needs more than one round, so the truncated result must
  // not claim reachability.
  EXPECT_FALSE(R.Reachable);

  Opts.MaxIterations = 0; // Unlimited again.
  R = Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.HitIterationLimit);
  EXPECT_TRUE(R.Reachable);
}

TEST(ApiTest, StrategiesAgreeAcrossAllEngines) {
  // The tentpole differential: every registered engine must answer both
  // fixture queries identically under the naive and the semi-naive
  // strategy, with identical iterations-to-fixpoint for the fixed-point
  // engines (the delta core computes the same per-round sequence).
  for (const std::string &Label : {std::string("ERR"), std::string("SAFE")}) {
    for (const api::Engine *E : Solver::engines()) {
      std::string Src =
          E->handlesConcurrent() ? concFixture() : seqFixture();
      SolverOptions Opts;
      Opts.Engine = E->name();
      Opts.Strategy = fpc::EvalStrategy::Naive;
      SolveResult Naive =
          Solver::solve(Query::fromSource(Src).target(Label), Opts);
      Opts.Strategy = fpc::EvalStrategy::SemiNaive;
      SolveResult Semi =
          Solver::solve(Query::fromSource(Src).target(Label), Opts);
      ASSERT_TRUE(Naive.ok()) << E->name() << ": " << Naive.Error;
      ASSERT_TRUE(Semi.ok()) << E->name() << ": " << Semi.Error;
      EXPECT_EQ(Naive.Reachable, Semi.Reachable)
          << E->name() << " on " << Label;
      EXPECT_EQ(Naive.Iterations, Semi.Iterations)
          << E->name() << " on " << Label;
    }
  }
}

TEST(ApiTest, StrategiesAgreeOnWitnesses) {
  // Witness extraction replays the per-round onion rings; the semi-naive
  // core must record the identical ring sequence, hence the identical
  // trace, for every witness-capable engine.
  for (const api::Engine *E : Solver::engines()) {
    if (!E->supportsWitness() || E->handlesConcurrent())
      continue;
    SolverOptions Opts;
    Opts.Engine = E->name();
    Opts.Strategy = fpc::EvalStrategy::Naive;
    SolveResult Naive = Solver::solve(
        Query::fromSource(seqFixture()).target("ERR").witness(), Opts);
    Opts.Strategy = fpc::EvalStrategy::SemiNaive;
    SolveResult Semi = Solver::solve(
        Query::fromSource(seqFixture()).target("ERR").witness(), Opts);
    ASSERT_TRUE(Naive.ok() && Semi.ok()) << E->name();
    ASSERT_TRUE(Naive.HasWitness && Semi.HasWitness) << E->name();
    EXPECT_EQ(Naive.Iterations, Semi.Iterations) << E->name();
    EXPECT_EQ(Naive.WitnessText, Semi.WitnessText) << E->name();
  }
}

TEST(ApiTest, StrategiesAgreeOnRandomizedWorkloads) {
  // Generated driver/terminator programs (known ground truth) through the
  // default sequential engine under both strategies; verdicts, iteration
  // counts, and the expected answer must all line up.
  for (uint64_t Seed : {2u, 5u}) {
    for (bool Reachable : {true, false}) {
      gen::DriverParams P;
      P.NumProcs = 8;
      P.StmtsPerProc = 8;
      P.Reachable = Reachable;
      P.Seed = Seed;
      gen::Workload W = gen::driverProgram(P);
      SolverOptions Opts;
      Opts.Engine = "ef-split";
      Opts.Strategy = fpc::EvalStrategy::Naive;
      SolveResult Naive = Solver::solve(
          Query::fromSource(W.Source).target(W.TargetLabel), Opts);
      Opts.Strategy = fpc::EvalStrategy::SemiNaive;
      SolveResult Semi = Solver::solve(
          Query::fromSource(W.Source).target(W.TargetLabel), Opts);
      ASSERT_TRUE(Naive.ok()) << W.Name << ": " << Naive.Error;
      ASSERT_TRUE(Semi.ok()) << W.Name << ": " << Semi.Error;
      EXPECT_EQ(Naive.Reachable, Semi.Reachable) << W.Name;
      EXPECT_EQ(Naive.Iterations, Semi.Iterations) << W.Name;
      if (W.ExpectKnown) {
        EXPECT_EQ(Semi.Reachable, W.ExpectReachable) << W.Name;
      }
    }
  }
  gen::TerminatorParams T;
  T.CounterBits = 4;
  T.NumDeadVars = 2;
  T.Reachable = false;
  gen::Workload W = gen::terminatorProgram(T);
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  Opts.Strategy = fpc::EvalStrategy::Naive;
  SolveResult Naive =
      Solver::solve(Query::fromSource(W.Source).target(W.TargetLabel), Opts);
  Opts.Strategy = fpc::EvalStrategy::SemiNaive;
  SolveResult Semi =
      Solver::solve(Query::fromSource(W.Source).target(W.TargetLabel), Opts);
  ASSERT_TRUE(Naive.ok() && Semi.ok());
  EXPECT_FALSE(Semi.Reachable);
  EXPECT_EQ(Naive.Reachable, Semi.Reachable);
  EXPECT_EQ(Naive.Iterations, Semi.Iterations);
  // The semi-naive run reports its delta rounds and per-relation stats.
  EXPECT_GT(Semi.DeltaRounds, 0u);
  EXPECT_FALSE(Semi.Relations.empty());
  EXPECT_GT(Semi.Bdd.CacheLookups, 0u);
}

TEST(ApiTest, LalRepsAgreesWithConcOnTransformedStats) {
  SolveResult Ours = solveWith("conc", concFixture(), "ERR");
  SolveResult LR = solveWith("lal-reps", concFixture(), "ERR");
  ASSERT_TRUE(Ours.ok()) << Ours.Error;
  ASSERT_TRUE(LR.ok()) << LR.Error;
  EXPECT_EQ(Ours.Reachable, LR.Reachable);
  // The eager reduction materializes extra shared-variable copies as real
  // program globals; the facade surfaces that cost.
  EXPECT_GT(LR.TransformedGlobals, 1u);
}
