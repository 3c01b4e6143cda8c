//===- SessionTest.cpp - Cross-query session differential tests ----------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential harness for cross-query incremental solving: for every
/// registered engine and a battery of programs (fixtures and randomized
/// generator output), `session.solve(q)` must produce bit-identical
/// verdicts, iteration counts, summary sizes, and witnesses to a fresh
/// `Solver::solve(q)` — for every permutation of query order, under
/// interleaved sessions over different programs, and across mid-session
/// computed-cache clears. Reuse is only allowed to show up in wall-clock
/// and the `SummariesReused` counters; this suite is what enforces that
/// contract (the PR-2 class of stale-memo / clobbered-delta-context bugs
/// fails it immediately).
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "reach/Witness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace getafix;

namespace {

/// The ApiTest fixture body: a recursive lock-discipline model whose ERR
/// label is reachable (a double acquire via the recursive call) and whose
/// SAFE label is not.
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

std::string concFixture() {
  return std::string("shared decl locked;\nthread\n") + FixtureBody + "end\n";
}

/// Bit-identical comparison of the observables the session contract
/// covers. Wall-clock, BDD counters, and the cumulative Relations map are
/// deliberately excluded — those are exactly where reuse is allowed to
/// show.
void expectSameCore(const SolveResult &Fresh, const SolveResult &Sess,
                    const std::string &Context) {
  EXPECT_EQ(Fresh.Status, Sess.Status) << Context;
  EXPECT_EQ(Fresh.Reachable, Sess.Reachable) << Context;
  EXPECT_EQ(Fresh.Iterations, Sess.Iterations) << Context;
  EXPECT_EQ(Fresh.DeltaRounds, Sess.DeltaRounds) << Context;
  EXPECT_EQ(Fresh.SummaryNodes, Sess.SummaryNodes) << Context;
  EXPECT_DOUBLE_EQ(Fresh.ReachStates, Sess.ReachStates) << Context;
  EXPECT_EQ(Fresh.HasWitness, Sess.HasWitness) << Context;
  EXPECT_EQ(Fresh.Witness.size(), Sess.Witness.size()) << Context;
  EXPECT_EQ(Fresh.WitnessText, Sess.WitnessText) << Context;
}

/// All permutations of {0, 1, ..., N-1}.
std::vector<std::vector<size_t>> permutationsOf(size_t N) {
  std::vector<size_t> Idx(N);
  for (size_t I = 0; I < N; ++I)
    Idx[I] = I;
  std::vector<std::vector<size_t>> Out;
  do {
    Out.push_back(Idx);
  } while (std::next_permutation(Idx.begin(), Idx.end()));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Every engine, every query order
//===----------------------------------------------------------------------===//

TEST(SessionTest, AllEnginesMatchFreshForEveryQueryOrder) {
  // Three targets per engine — reachable, unreachable, and repeat-the-
  // reachable-one (repeats must replay, not re-derive) — solved in every
  // one of the six orders through a fresh session each time. Engines
  // without session support exercise the fresh-fallback path and must be
  // identical trivially; fixed-point engines must be identical by the
  // replay/resume construction.
  const std::vector<std::string> Labels = {"ERR", "SAFE", "ERR"};
  for (const api::Engine *E : Solver::engines()) {
    std::string Src =
        E->handlesConcurrent() ? concFixture() : seqFixture();
    SolverOptions Opts;
    Opts.Engine = E->name();

    std::vector<SolveResult> Fresh;
    for (const std::string &L : Labels)
      Fresh.push_back(Solver::solve(Query::fromSource(Src).target(L), Opts));

    for (const std::vector<size_t> &Perm : permutationsOf(Labels.size())) {
      std::unique_ptr<SolverSession> S =
          Solver::open(Query::fromSource(Src), Opts);
      ASSERT_TRUE(S->ok()) << E->name() << ": " << S->error();
      for (size_t I : Perm) {
        SolveResult R =
            S->solve(Query::fromSource("").target(Labels[I]));
        expectSameCore(Fresh[I], R,
                       std::string(E->name()) + " label " + Labels[I]);
      }
    }
  }
}

TEST(SessionTest, PointTargetsMatchFresh) {
  std::string Src = seqFixture();
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(Src, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);
  unsigned ErrProc = 0, ErrPc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ErrProc, ErrPc));

  for (const char *Name : {"summary", "ef", "ef-split", "ef-opt"}) {
    SolverOptions Opts;
    Opts.Engine = Name;
    // A mix of label and point targets through one session.
    std::vector<Query> Queries = {
        Query::fromSource("").target("SAFE"),
        Query::fromSource("").targetPoint(ErrProc, ErrPc),
        Query::fromSource("").targetPoint(0, 0),
        Query::fromSource("").target("ERR"),
    };
    std::unique_ptr<SolverSession> S =
        Solver::open(Query::fromSource(Src), Opts);
    ASSERT_TRUE(S->ok()) << S->error();
    for (const Query &Q : Queries) {
      Query FreshQ = Q;
      FreshQ.Source = Src;
      SolveResult Fresh = Solver::solve(FreshQ, Opts);
      SolveResult Sess = S->solve(Q);
      expectSameCore(Fresh, Sess, std::string(Name) + " point/label mix");
    }
  }
}

//===----------------------------------------------------------------------===//
// Witnesses
//===----------------------------------------------------------------------===//

TEST(SessionTest, WitnessQueriesMatchFreshInEveryOrder) {
  // Witness extraction replays the recorded rings; a session must return
  // the identical trace whether the witness query comes first, last, or
  // between plain queries — and repeated witness queries must extract
  // from the one recorded solve.
  std::string Src = seqFixture();
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(Src, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);
  unsigned ErrProc = 0, ErrPc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ErrProc, ErrPc));

  for (const api::Engine *E : Solver::engines()) {
    if (!E->supportsWitness() || E->handlesConcurrent())
      continue;
    SolverOptions Opts;
    Opts.Engine = E->name();
    std::vector<Query> Queries = {
        Query::fromSource("").target("ERR").witness(),
        Query::fromSource("").target("SAFE"),
        Query::fromSource("").target("SAFE").witness(),
        Query::fromSource("").target("ERR"),
        Query::fromSource("").target("ERR").witness(),
    };
    std::vector<SolveResult> Fresh;
    for (const Query &Q : Queries) {
      Query FreshQ = Q;
      FreshQ.Source = Src;
      Fresh.push_back(Solver::solve(FreshQ, Opts));
    }
    for (const std::vector<size_t> &Perm :
         {std::vector<size_t>{0, 1, 2, 3, 4},
          std::vector<size_t>{4, 3, 2, 1, 0},
          std::vector<size_t>{1, 3, 0, 4, 2}}) {
      std::unique_ptr<SolverSession> S =
          Solver::open(Query::fromSource(Src), Opts);
      ASSERT_TRUE(S->ok()) << S->error();
      for (size_t I : Perm)
        expectSameCore(Fresh[I], S->solve(Queries[I]),
                       std::string(E->name()) + " witness order");
    }
    // The session trace is verified against the explicit semantics, like
    // the fresh one.
    std::unique_ptr<SolverSession> S =
        Solver::open(Query::fromSource(Src), Opts);
    SolveResult W = S->solve(Queries[0]);
    ASSERT_TRUE(W.HasWitness) << E->name();
    std::string Error;
    EXPECT_TRUE(reach::verifyWitness(Cfg, W.Witness, ErrProc, ErrPc, &Error))
        << E->name() << ": " << Error;
  }
}

//===----------------------------------------------------------------------===//
// Randomized programs
//===----------------------------------------------------------------------===//

TEST(SessionTest, RandomizedWorkloadsMatchFresh) {
  // Generator programs with known ground truth: the designated target
  // label plus a pair of point targets, via session and fresh, across the
  // session-capable sequential engines.
  for (uint64_t Seed : {2u, 5u}) {
    for (bool Reachable : {true, false}) {
      gen::DriverParams P;
      P.NumProcs = 8;
      P.StmtsPerProc = 8;
      P.Reachable = Reachable;
      P.Seed = Seed;
      gen::Workload W = gen::driverProgram(P);

      for (const char *Name : {"ef-split", "ef-opt", "summary"}) {
        SolverOptions Opts;
        Opts.Engine = Name;
        std::vector<Query> Queries = {
            Query::fromSource("").target(W.TargetLabel),
            Query::fromSource("").targetPoint(0, 1),
            Query::fromSource("").targetPoint(1, 0),
            Query::fromSource("").target(W.TargetLabel),
        };
        std::unique_ptr<SolverSession> S =
            Solver::open(Query::fromSource(W.Source), Opts);
        ASSERT_TRUE(S->ok()) << S->error();
        for (const Query &Q : Queries) {
          Query FreshQ = Q;
          FreshQ.Source = W.Source;
          SolveResult Fresh = Solver::solve(FreshQ, Opts);
          SolveResult Sess = S->solve(Q);
          expectSameCore(Fresh, Sess, W.Name + " " + Name);
          if (!Q.UsePoint && Q.Label == W.TargetLabel && W.ExpectKnown) {
            EXPECT_EQ(Sess.Reachable, W.ExpectReachable) << W.Name;
          }
        }
      }
    }
  }
}

TEST(SessionTest, ConcurrentRandomizedTargetsMatchFresh) {
  // The bluetooth models with one adder and one or two stoppers through
  // the conc engine at context bound 3: the ERR label plus point targets
  // across threads, in every order.
  SolverOptions Opts;
  Opts.Engine = "conc";
  Opts.ContextBound = 3;
  std::vector<Query> Queries = {
      Query::fromSource("").target("ERR"),
      Query::fromSource("").targetPoint(0, 1, 0),
      Query::fromSource("").targetPoint(0, 0, 1),
  };
  for (unsigned Stoppers : {1u, 2u}) {
    std::string Src = gen::bluetoothModel(1, Stoppers);
    std::string Name = "conc bluetooth 1a" + std::to_string(Stoppers) + "s";
    std::vector<SolveResult> Fresh;
    for (const Query &Q : Queries) {
      Query FreshQ = Q;
      FreshQ.Source = Src;
      Fresh.push_back(Solver::solve(FreshQ, Opts));
    }
    for (const std::vector<size_t> &Perm : permutationsOf(Queries.size())) {
      std::unique_ptr<SolverSession> S =
          Solver::open(Query::fromSource(Src), Opts);
      ASSERT_TRUE(S->ok()) << S->error();
      for (size_t I : Perm)
        expectSameCore(Fresh[I], S->solve(Queries[I]), Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// Interleaved sessions (the PR-2 stale-memo / clobbered-context guard)
//===----------------------------------------------------------------------===//

TEST(SessionTest, InterleavedSessionsOverDifferentPrograms) {
  // Two live sessions over different programs, queries alternating
  // between them: state must never bleed across sessions.
  gen::DriverParams P;
  P.NumProcs = 8;
  P.StmtsPerProc = 8;
  P.Reachable = true;
  P.Seed = 3;
  gen::Workload WA = gen::driverProgram(P);
  gen::TerminatorParams T;
  T.CounterBits = 4;
  T.NumDeadVars = 2;
  T.Reachable = false;
  gen::Workload WB = gen::terminatorProgram(T);

  SolverOptions Opts;
  Opts.Engine = "ef-split";

  std::vector<std::string> TargetsA = {WA.TargetLabel, "NO_SUCH",
                                       WA.TargetLabel};
  std::vector<std::string> TargetsB = {WB.TargetLabel, WB.TargetLabel,
                                       "NO_SUCH"};

  std::unique_ptr<SolverSession> SA =
      Solver::open(Query::fromSource(WA.Source), Opts);
  std::unique_ptr<SolverSession> SB =
      Solver::open(Query::fromSource(WB.Source), Opts);
  ASSERT_TRUE(SA->ok() && SB->ok());

  for (size_t I = 0; I < TargetsA.size(); ++I) {
    SolveResult FreshA = Solver::solve(
        Query::fromSource(WA.Source).target(TargetsA[I]), Opts);
    SolveResult SessA = SA->solve(Query::fromSource("").target(TargetsA[I]));
    expectSameCore(FreshA, SessA, "interleaved A query " + TargetsA[I]);

    SolveResult FreshB = Solver::solve(
        Query::fromSource(WB.Source).target(TargetsB[I]), Opts);
    SolveResult SessB = SB->solve(Query::fromSource("").target(TargetsB[I]));
    expectSameCore(FreshB, SessB, "interleaved B query " + TargetsB[I]);
  }
}

//===----------------------------------------------------------------------===//
// Mid-session computed-cache clears
//===----------------------------------------------------------------------===//

TEST(SessionTest, SessionSurvivesComputedCacheClears) {
  // clearComputedCache is a pure performance valve: a session that sheds
  // its computed cache between (and before) queries must stay
  // bit-identical to fresh solves, for both the sequential and the
  // concurrent engines and for witness extraction.
  struct Case {
    const char *Engine;
    std::string Src;
  } Cases[] = {
      {"ef-split", seqFixture()},
      {"ef-opt", seqFixture()},
      {"conc", concFixture()},
  };
  for (const Case &C : Cases) {
    SolverOptions Opts;
    Opts.Engine = C.Engine;
    std::vector<std::string> Labels = {"ERR", "SAFE", "ERR", "SAFE"};
    std::unique_ptr<SolverSession> S =
        Solver::open(Query::fromSource(C.Src), Opts);
    ASSERT_TRUE(S->ok()) << S->error();
    S->clearComputedCache(); // Before any query: must be harmless.
    for (const std::string &L : Labels) {
      SolveResult Fresh =
          Solver::solve(Query::fromSource(C.Src).target(L), Opts);
      SolveResult Sess = S->solve(Query::fromSource("").target(L));
      expectSameCore(Fresh, Sess,
                     std::string(C.Engine) + " cache-clear " + L);
      S->clearComputedCache(); // Between every pair of queries.
    }
  }

  // Witness extraction across a clear: the recorded rings must still
  // reconstruct the identical trace — on the session's own state (ef) and
  // on the second EntryForward state the other engines walk, whose caches
  // the same valve frees (summary-scc, ef-opt).
  for (const char *Engine : {"ef", "summary-scc", "ef-opt"}) {
    SolverOptions Opts;
    Opts.Engine = Engine;
    SolveResult Fresh = Solver::solve(
        Query::fromSource(seqFixture()).target("ERR").witness(), Opts);
    std::unique_ptr<SolverSession> S =
        Solver::open(Query::fromSource(seqFixture()), Opts);
    SolveResult First =
        S->solve(Query::fromSource("").target("ERR").witness());
    size_t Warm = S->gauge().Bytes;
    S->clearComputedCache();
    EXPECT_LT(S->gauge().Bytes, Warm) << Engine;
    SolveResult Second =
        S->solve(Query::fromSource("").target("ERR").witness());
    SolveResult Plain = S->solve(Query::fromSource("").target("SAFE"));
    std::string Ctx = Engine;
    expectSameCore(Fresh, First, Ctx + " witness before clear");
    expectSameCore(Fresh, Second, Ctx + " witness after clear");
    expectSameCore(
        Solver::solve(Query::fromSource(seqFixture()).target("SAFE"), Opts),
        Plain, Ctx + " plain after clear");
  }
}

//===----------------------------------------------------------------------===//
// solveAll: batching, ordering, dedup
//===----------------------------------------------------------------------===//

TEST(SessionTest, SolveAllMatchesIndividualSolves) {
  std::string Src = seqFixture();
  SolverOptions Opts;
  Opts.Engine = "ef-split";

  // Duplicates and both verdicts, deliberately ordered hardest-first.
  std::vector<std::string> Labels = {"SAFE", "ERR", "SAFE", "ERR", "ERR"};
  std::vector<Query> Queries;
  for (const std::string &L : Labels)
    Queries.push_back(Query::fromSource("").target(L));

  std::vector<SolveResult> Fresh;
  for (const std::string &L : Labels)
    Fresh.push_back(Solver::solve(Query::fromSource(Src).target(L), Opts));

  std::unique_ptr<SolverSession> S =
      Solver::open(Query::fromSource(Src), Opts);
  ASSERT_TRUE(S->ok()) << S->error();
  std::vector<SolveResult> Batch = S->solveAll(Queries);
  ASSERT_EQ(Batch.size(), Queries.size());
  for (size_t I = 0; I < Batch.size(); ++I)
    expectSameCore(Fresh[I], Batch[I],
                   "solveAll index " + std::to_string(I));

  const SolverSession::SessionStats &SS = S->stats();
  EXPECT_EQ(SS.Queries, Labels.size());
  // Three duplicates collapse onto two distinct targets.
  EXPECT_EQ(SS.DedupHits, 3u);
  EXPECT_EQ(SS.SessionSolves, 2u);
  EXPECT_EQ(SS.FreshSolves, 0u);
}

TEST(SessionTest, SolveAllServesStateAnswerableTargetsFirst) {
  // Prime the session by solving the unreachable target (saturating the
  // summary); everything in a later batch is then answerable from state
  // and must report zero recomputed rounds.
  std::string Src = seqFixture();
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  std::unique_ptr<SolverSession> S =
      Solver::open(Query::fromSource(Src), Opts);
  SolveResult Prime = S->solve(Query::fromSource("").target("SAFE"));
  EXPECT_FALSE(Prime.Reachable);
  EXPECT_GT(Prime.SummariesRecomputed, 0u);

  std::vector<Query> Batch = {
      Query::fromSource("").target("ERR"),
      Query::fromSource("").target("SAFE"),
  };
  for (const SolveResult &R : S->solveAll(Batch)) {
    EXPECT_TRUE(R.ok());
    EXPECT_EQ(R.SummariesRecomputed, 0u);
    EXPECT_GT(R.SummariesReused, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Reuse accounting
//===----------------------------------------------------------------------===//

TEST(SessionTest, ReuseCountersReportReplayedRounds) {
  std::string Src = seqFixture();
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  std::unique_ptr<SolverSession> S =
      Solver::open(Query::fromSource(Src), Opts);
  // First query pays every round...
  SolveResult First = S->solve(Query::fromSource("").target("SAFE"));
  EXPECT_EQ(First.SummariesReused, 0u);
  EXPECT_EQ(First.SummariesRecomputed, First.Iterations);
  // ...the repeat replays them all.
  SolveResult Again = S->solve(Query::fromSource("").target("SAFE"));
  EXPECT_EQ(Again.SummariesReused, Again.Iterations);
  EXPECT_EQ(Again.SummariesRecomputed, 0u);
  EXPECT_EQ(First.Iterations, Again.Iterations);

  const SolverSession::SessionStats &SS = S->stats();
  EXPECT_EQ(SS.Queries, 2u);
  EXPECT_GT(SS.SummariesReused, 0u);
}

//===----------------------------------------------------------------------===//
// Option variants: early stop on and off
//===----------------------------------------------------------------------===//

TEST(SessionTest, EarlyStopAndFullFixpointVariantsMatchFresh) {
  std::string Src = seqFixture();
  for (const char *Name : {"ef-split", "ef-opt"}) {
    for (bool EarlyStop : {true, false}) {
      SolverOptions Opts;
      Opts.Engine = Name;
      Opts.EarlyStop = EarlyStop;
      std::unique_ptr<SolverSession> S =
          Solver::open(Query::fromSource(Src), Opts);
      ASSERT_TRUE(S->ok()) << S->error();
      for (const std::string &L :
           {std::string("ERR"), std::string("SAFE"), std::string("ERR")}) {
        SolveResult Fresh =
            Solver::solve(Query::fromSource(Src).target(L), Opts);
        SolveResult Sess = S->solve(Query::fromSource("").target(L));
        expectSameCore(Fresh, Sess,
                       std::string(Name) + " early=" +
                           std::to_string(EarlyStop) + " " + L);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Error paths
//===----------------------------------------------------------------------===//

TEST(SessionTest, ErrorPathsBehaveLikeTheFacade) {
  // Unknown label through a session.
  std::unique_ptr<SolverSession> S =
      Solver::open(Query::fromSource(seqFixture()), SolverOptions());
  ASSERT_TRUE(S->ok());
  SolveResult R = S->solve(Query::fromSource("").target("NOPE"));
  EXPECT_EQ(R.Status, api::SolveStatus::TargetNotFound);
  EXPECT_NE(R.Error.find("NOPE"), std::string::npos);
  // A later good query still works (the failed one left no bad state).
  EXPECT_TRUE(S->solve(Query::fromSource("").target("ERR")).Reachable);

  // Parse errors are reported at open and from every solve.
  std::unique_ptr<SolverSession> Bad =
      Solver::open(Query::fromSource("main() begin oops"), SolverOptions());
  EXPECT_FALSE(Bad->ok());
  EXPECT_EQ(Bad->status(), api::SolveStatus::ParseError);
  EXPECT_EQ(Bad->solve(Query::fromSource("").target("ERR")).Status,
            api::SolveStatus::ParseError);

  // Unknown engines fail at open.
  SolverOptions Opts;
  Opts.Engine = "mucke-classic";
  std::unique_ptr<SolverSession> Unknown =
      Solver::open(Query::fromSource(seqFixture()), Opts);
  EXPECT_FALSE(Unknown->ok());
  EXPECT_EQ(Unknown->status(), api::SolveStatus::UnknownEngine);

  // Engine/program kind mismatches fail at open.
  Opts.Engine = "conc";
  std::unique_ptr<SolverSession> Mismatch =
      Solver::open(Query::fromSource(seqFixture()), Opts);
  EXPECT_FALSE(Mismatch->ok());
  EXPECT_EQ(Mismatch->status(), api::SolveStatus::BadQuery);
}

//===----------------------------------------------------------------------===//
// One solve per session: witness and plain queries share the EF fixpoint
//===----------------------------------------------------------------------===//

TEST(SessionTest, EfWitnessAndPlainQueriesShareOneSolve) {
  std::string Src = seqFixture();
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(Src, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);
  unsigned ErrProc = 0, ErrPc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("ERR", ErrProc, ErrPc));
  unsigned SafeProc = 0, SafePc = 0;
  ASSERT_TRUE(Cfg.findLabelPc("SAFE", SafeProc, SafePc));

  for (reach::SeqAlgorithm Alg : {reach::SeqAlgorithm::EntryForward,
                                  reach::SeqAlgorithm::EntryForwardSplit}) {
    // The extractor walks the very relation these engines' plain queries
    // solve, so the session lends it its own solving state.
    sym::SolveConfig Opts;
    // One solve's worth of rounds, from the pre-existing one-shot path.
    reach::WitnessResult FreshW =
        reach::checkReachabilityWithWitness(Cfg, ErrProc, ErrPc, Opts);
    ASSERT_TRUE(FreshW.Reachable);
    uint64_t OneSolveRounds = FreshW.Relations.at("SummaryEF").Iterations;

    // Witness-first: the extractor completes the session's own fixpoint
    // in place, so plain queries of any target are then answerable from
    // state and replay without computing a single new round.
    reach::SeqSession S(Cfg, Alg, Opts);
    reach::WitnessResult W = S.solveWithWitness(ErrProc, ErrPc);
    ASSERT_TRUE(W.Reachable);
    EXPECT_EQ(W.Steps.size(), FreshW.Steps.size());
    EXPECT_EQ(W.Relations.at("SummaryEF").Iterations, OneSolveRounds);
    EXPECT_TRUE(S.answersFromState(SafeProc, SafePc));
    sym::SolveStats P = S.solve(SafeProc, SafePc);
    EXPECT_FALSE(P.Reachable);
    EXPECT_EQ(P.SummariesRecomputed, 0u);
    EXPECT_EQ(P.SummariesReused, P.Iterations);

    // Plain-first: the early-stopped prefix is *resumed* by the witness
    // query, never redone — the shared evaluator's cumulative round count
    // stays exactly one solve's worth.
    reach::SeqSession S2(Cfg, Alg, Opts);
    sym::SolveStats P1 = S2.solve(ErrProc, ErrPc);
    EXPECT_TRUE(P1.Reachable);
    reach::WitnessResult W2 = S2.solveWithWitness(ErrProc, ErrPc);
    ASSERT_TRUE(W2.Reachable);
    EXPECT_EQ(W2.Steps.size(), FreshW.Steps.size());
    EXPECT_EQ(W2.Relations.at("SummaryEF").Iterations, OneSolveRounds);
    std::string Error;
    EXPECT_TRUE(
        reach::verifyWitness(Cfg, W2.Steps, ErrProc, ErrPc, &Error))
        << Error;
  }
}

//===----------------------------------------------------------------------===//
// The diet measurably shrinks long-lived sessions
//===----------------------------------------------------------------------===//

TEST(SessionTest, RingDietShrinksLongLivedSessionMemory) {
  // Witness-heavy ef sweep, measured against the *seed architecture*: a
  // plain session plus a separate witness solver on its own manager —
  // which is what every ef session used to pay the moment a witness query
  // arrived (a second EntryForward solve, a second copy of every round).
  // A second ef session that only answers witness queries is exactly
  // that duplicate solver. The shared-state diet session serves the
  // identical mixed stream from one solve on one manager and must retain
  // strictly less than the pair, at matching results. All three log their
  // rounds at the default keyframe interval; RingLogTest pins the delta
  // storage itself.
  gen::DriverParams P;
  P.NumProcs = 8;
  P.StmtsPerProc = 8;
  P.Reachable = true;
  P.Seed = 11;
  gen::Workload W = gen::driverProgram(P);
  DiagnosticEngine Diags;
  auto Prog = bp::parseProgram(W.Source, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  bp::ProgramCfg Cfg = bp::buildCfg(*Prog);
  unsigned ErrProc = 0, ErrPc = 0;
  ASSERT_TRUE(Cfg.findLabelPc(W.TargetLabel, ErrProc, ErrPc));

  const reach::SeqAlgorithm Ef = reach::SeqAlgorithm::EntryForward;
  sym::SolveConfig Config;
  reach::SeqSession SeedPlain(Cfg, Ef, Config);
  reach::SeqSession SeedWitness(Cfg, Ef, Config); // The duplicate solver.
  reach::SeqSession SDiet(Cfg, Ef, Config);

  const std::pair<unsigned, unsigned> Targets[] = {
      {ErrProc, ErrPc}, {0, 1}, {1, 0}, {2, 0}};
  for (auto [TP, TPc] : Targets) {
    reach::WitnessResult WSeed = SeedWitness.solveWithWitness(TP, TPc);
    reach::WitnessResult WDiet = SDiet.solveWithWitness(TP, TPc);
    EXPECT_EQ(WSeed.Reachable, WDiet.Reachable) << TP << ":" << TPc;
    EXPECT_EQ(WSeed.Steps.size(), WDiet.Steps.size()) << TP << ":" << TPc;
    sym::SolveStats PSeed = SeedPlain.solve(TP, TPc);
    sym::SolveStats PDiet = SDiet.solve(TP, TPc);
    EXPECT_EQ(PSeed.Reachable, PDiet.Reachable) << TP << ":" << TPc;
    EXPECT_EQ(WSeed.Reachable, PSeed.Reachable) << TP << ":" << TPc;
  }

  size_t SeedLive =
      SeedPlain.gauge().LiveNodes + SeedWitness.gauge().LiveNodes;
  size_t SeedPeak =
      SeedPlain.gauge().PeakLiveNodes + SeedWitness.gauge().PeakLiveNodes;
  EXPECT_LT(SDiet.gauge().LiveNodes, SeedLive) << "ef witness sweep";
  EXPECT_LT(SDiet.gauge().PeakLiveNodes, SeedPeak) << "ef witness sweep";
}
