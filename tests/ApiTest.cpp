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
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <climits>

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

TEST(ApiTest, RegistryHasTheNineEngines) {
  for (const char *Name : {"summary", "ef", "ef-split", "ef-opt",
                           "summary-scc", "moped", "bebop", "conc",
                           "lal-reps"}) {
    const api::Engine *E = Solver::findEngine(Name);
    ASSERT_NE(E, nullptr) << Name;
    EXPECT_STREQ(E->name(), Name);
    EXPECT_STRNE(E->description(), "");
  }
  EXPECT_EQ(Solver::findEngine("no-such-engine"), nullptr);
  EXPECT_GE(Solver::engines().size(), 9u);
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
  for (const Query &Q : {Query::fromSource(seqFixture()).target("NOPE"),
                         Query::fromSource(concFixture()).target("NOPE"),
                         Query::fromSource(seqFixture())
                             .target("NOPE")
                             .witness()}) {
    SolveResult R = Solver::solve(Q, SolverOptions());
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
  // Empty engine name: summary-scc for sequential sources, conc for
  // concurrent.
  SolverOptions Auto;
  EXPECT_TRUE(
      Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Auto)
          .ok());
  EXPECT_TRUE(
      Solver::solve(Query::fromSource(concFixture()).target("ERR"), Auto)
          .ok());
  auto Seq = Solver::open(Query::fromSource(seqFixture()), Auto);
  ASSERT_TRUE(Seq->ok()) << Seq->error();
  EXPECT_STREQ(Seq->engine()->name(), "summary-scc");
  auto Conc = Solver::open(Query::fromSource(concFixture()), Auto);
  ASSERT_TRUE(Conc->ok()) << Conc->error();
  EXPECT_STREQ(Conc->engine()->name(), "conc");
}

TEST(ApiTest, PrebuiltProgramsAndPointTargets) {
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(seqFixture(), Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);

  unsigned ProcId = 0, Pc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ProcId, Pc));

  for (const char *Name : {"summary", "ef", "ef-split", "ef-opt",
                           "summary-scc", "moped", "bebop"}) {
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
  // A witness query solves a fixed-point system too: the EntryForward
  // one. Under `ef` the plain query solves that same system, so both
  // report the same width and summary-relation count — one-shot and
  // through a session.
  gen::TerminatorParams T;
  T.CounterBits = 3;
  T.NumDeadVars = 3;
  T.Reachable = true;
  gen::Workload W = gen::terminatorProgram(T);
  SolverOptions Opts;
  Opts.Engine = "ef";
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

  // Under summary-scc the plain query is as wide as the call graph,
  // while the witness solve still reports the EntryForward system.
  Opts.Engine = "summary-scc";
  SolveResult SccPlain = Solver::solve(Plain, Opts);
  SolveResult SccWit = Solver::solve(WithWitness, Opts);
  ASSERT_TRUE(SccPlain.ok() && SccWit.ok()) << SccPlain.Error << SccWit.Error;
  EXPECT_GT(SccPlain.SummaryRelations, 1u);
  EXPECT_EQ(SccWit.CondensationWidth, P.CondensationWidth);
  EXPECT_EQ(SccWit.SummaryRelations, 1u);
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
  // The printed system is the selected engine's: the paper's single
  // summary relation for ef-split, one relation per call-graph SCC for
  // summary-scc, which the empty engine name selects.
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  std::string Error;
  std::string Text = Solver::formulaText(
      Query::fromSource(seqFixture()).target("ERR"), Opts, &Error);
  EXPECT_NE(Text.find("mu bool SummaryEF"), std::string::npos) << Error;
  EXPECT_EQ(Text.find("mu bool Summary_"), std::string::npos);

  Opts.Engine = "";
  Text = Solver::formulaText(Query::fromSource(seqFixture()).target("ERR"),
                             Opts, &Error);
  EXPECT_NE(Text.find("mu bool Summary_"), std::string::npos) << Error;
  EXPECT_EQ(Text.find("mu bool SummaryEF"), std::string::npos);

  // The formula does not depend on the target, so a program without the
  // queried label still prints one.
  Opts.Engine = "summary-scc";
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

TEST(ApiTest, RandomizedWorkloadsMatchGroundTruth) {
  // Generated driver/terminator programs with known ground truth through
  // ef-split: the verdicts match the generator's answer, and the
  // terminator's full fixpoint reports its delta rounds and stats.
  for (uint64_t Seed : {2u, 5u}) {
    for (bool Reachable : {true, false}) {
      gen::DriverParams P;
      P.NumProcs = 8;
      P.StmtsPerProc = 8;
      P.Reachable = Reachable;
      P.Seed = Seed;
      gen::Workload W = gen::driverProgram(P);
      SolveResult R = solveWith("ef-split", W.Source, W.TargetLabel);
      ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Error;
      if (W.ExpectKnown) {
        EXPECT_EQ(R.Reachable, W.ExpectReachable) << W.Name;
      }
    }
  }
  gen::TerminatorParams T;
  T.CounterBits = 4;
  T.NumDeadVars = 2;
  T.Reachable = false;
  gen::Workload W = gen::terminatorProgram(T);
  SolveResult R = solveWith("ef-split", W.Source, W.TargetLabel);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.Reachable);
  EXPECT_GT(R.DeltaRounds, 0u);
  EXPECT_FALSE(R.Relations.empty());
  EXPECT_GT(R.Bdd.CacheLookups, 0u);
}

TEST(ApiTest, ContextBoundsThatWrapAreBadQueries) {
  // The concurrent encodings allocate k + 1 context copies. A bound whose
  // k + 1 wraps to zero, or whose `Rounds * threads - 1` overflows, must
  // be refused before an engine sizes anything by it.
  std::string TwoThreads = std::string("shared decl locked;\nthread\n") +
                           FixtureBody + "end\nthread\n" + FixtureBody +
                           "end\n";
  for (const char *Engine : {"conc", "lal-reps"}) {
    SolverOptions Opts;
    Opts.Engine = Engine;
    Opts.ContextBound = UINT_MAX;
    EXPECT_EQ(
        Solver::solve(Query::fromSource(concFixture()).target("ERR"), Opts)
            .Status,
        SolveStatus::BadQuery)
        << Engine;
    EXPECT_EQ(Solver::open(Query::fromSource(concFixture()), Opts)->status(),
              SolveStatus::BadQuery)
        << Engine;

    Opts.ContextBound = 2;
    Opts.Rounds = UINT_MAX;
    EXPECT_EQ(Solver::solve(Query::fromSource(TwoThreads).target("ERR"), Opts)
                  .Status,
              SolveStatus::BadQuery)
        << Engine;
    EXPECT_EQ(Solver::open(Query::fromSource(TwoThreads), Opts)->status(),
              SolveStatus::BadQuery)
        << Engine;
  }
  // Sequential engines take no context bound and ignore it.
  SolverOptions Opts;
  Opts.ContextBound = UINT_MAX;
  Opts.Rounds = UINT_MAX;
  SolveResult R = Solver::solve(Query::fromSource(seqFixture()), Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Reachable);
}

TEST(ApiTest, ToolFlagsParseOnlyInRangeDigits) {
  // The tools' half of the context-bound contract: `--context-bound -1`
  // used to wrap to 4294967295 through atoi, and `abc` to read as 0.
  unsigned K = 7;
  for (const char *Bad : {"-1", "abc", "", "+3", " 3", "3 ", "3x",
                          "4294967296", "99999999999999999999"}) {
    EXPECT_FALSE(parseUnsigned(Bad, K)) << "'" << Bad << "'";
    EXPECT_EQ(K, 7u) << "'" << Bad << "'";
  }
  EXPECT_FALSE(parseUnsigned(nullptr, K)); // A flag with no value.
  EXPECT_TRUE(parseUnsigned("4294967295", K));
  EXPECT_EQ(K, 4294967295u);
  EXPECT_TRUE(parseUnsigned("007", K));
  EXPECT_EQ(K, 7u);
  unsigned Threads = 1;
  EXPECT_FALSE(parseUnsigned("0", Threads, 1, 256));
  EXPECT_FALSE(parseUnsigned("257", Threads, 1, 256));
  EXPECT_TRUE(parseUnsigned("256", Threads, 1, 256));
  EXPECT_EQ(Threads, 256u);
  uint64_t Budget = 0;
  EXPECT_TRUE(parseUnsigned("18446744073709551615", Budget));
  EXPECT_EQ(Budget, UINT64_MAX);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", Budget));
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
