//===- FaultTest.cpp - Resource governance and fault injection tests ------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance contract end to end: the `ResourceGovernor`
/// primitive (deadline, node budget, cancel flag, trip latching and
/// priority), the `BddManager` probe and its deterministic allocation-
/// fault injection, the limit statuses surfaced through the `Solver`
/// facade, and — the load-bearing property — cancellation determinism: a
/// solve stopped at a round boundary by a budget and retried without one
/// must be bit-identical (verdict, rounds, summary sizes, witness text)
/// to a solve that was never interrupted, across engines, strategies,
/// and thread counts.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "bdd/Bdd.h"
#include "gen/Workloads.h"
#include "support/ResourceGovernor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

using namespace getafix;
using support::ResourceGovernor;
using support::ResourceInterrupt;
using support::ResourceLimit;

namespace {

/// The ApiTest lock-discipline fixture: ERR reachable, SAFE not.
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

/// A terminator with a labeled checkpoint CP0, big enough that escalating
/// budgets stop its solve several times, on one thread or on the pool.
std::string terminatorSource() {
  gen::TerminatorParams P;
  P.CounterBits = 4;
  P.NumDeadVars = 3;
  P.LabeledCheckpoints = 1;
  return gen::terminatorProgram(P).Source;
}

/// What "bit-identical" covers for the resume contract.
void expectSameCore(const api::SolveResult &A, const api::SolveResult &B,
                    const std::string &Context) {
  EXPECT_EQ(A.Status, B.Status) << Context;
  EXPECT_EQ(A.Reachable, B.Reachable) << Context;
  EXPECT_EQ(A.Iterations, B.Iterations) << Context;
  EXPECT_EQ(A.DeltaRounds, B.DeltaRounds) << Context;
  EXPECT_EQ(A.SummaryNodes, B.SummaryNodes) << Context;
  EXPECT_EQ(A.HasWitness, B.HasWitness) << Context;
  EXPECT_EQ(A.WitnessText, B.WitnessText) << Context;
}

} // namespace

//===----------------------------------------------------------------------===//
// The governor primitive
//===----------------------------------------------------------------------===//

TEST(FaultTest, GovernorUnarmedNeverTrips) {
  ResourceGovernor Gov;
  for (int I = 0; I < 10; ++I)
    EXPECT_NO_THROW(Gov.check(1 << 20));
  EXPECT_EQ(Gov.tripped(), ResourceLimit::None);
}

TEST(FaultTest, GovernorDeadlineTripsAndLatches) {
  ResourceGovernor Gov;
  Gov.setDeadlineIn(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    Gov.check();
    FAIL() << "deadline did not trip";
  } catch (const ResourceInterrupt &RI) {
    EXPECT_EQ(RI.Limit, ResourceLimit::Deadline);
  }
  EXPECT_EQ(Gov.tripped(), ResourceLimit::Deadline);
  // The trip latches: every later probe reports the same verdict.
  EXPECT_THROW(Gov.check(), ResourceInterrupt);
}

TEST(FaultTest, GovernorNodeBudgetChargesAcrossProbes) {
  ResourceGovernor Gov;
  Gov.setNodeBudget(100);
  EXPECT_NO_THROW(Gov.check(60));
  try {
    Gov.check(60); // 120 > 100.
    FAIL() << "budget did not trip";
  } catch (const ResourceInterrupt &RI) {
    EXPECT_EQ(RI.Limit, ResourceLimit::NodeBudget);
  }
  EXPECT_GE(Gov.nodesCharged(), 120u);
}

TEST(FaultTest, GovernorCancelOutranksOtherLimits) {
  // Cancel, deadline, and budget all fire in the same probe; cancel wins.
  ResourceGovernor Gov;
  Gov.setDeadlineIn(1);
  Gov.setNodeBudget(1);
  Gov.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    Gov.check(100);
    FAIL() << "nothing tripped";
  } catch (const ResourceInterrupt &RI) {
    EXPECT_EQ(RI.Limit, ResourceLimit::Cancelled);
  }
}

TEST(FaultTest, GovernorExternalCancelFlag) {
  std::atomic<bool> Flag{false};
  ResourceGovernor Gov;
  Gov.setCancelFlag(&Flag);
  EXPECT_NO_THROW(Gov.check());
  Flag.store(true);
  try {
    Gov.check();
    FAIL() << "cancel flag not observed";
  } catch (const ResourceInterrupt &RI) {
    EXPECT_EQ(RI.Limit, ResourceLimit::Cancelled);
  }
}

TEST(FaultTest, ResourceLimitNamesAndStatusMapping) {
  EXPECT_STREQ(support::resourceLimitName(ResourceLimit::Deadline),
               "deadline");
  EXPECT_STREQ(support::resourceLimitName(ResourceLimit::NodeBudget),
               "node-budget");
  EXPECT_STREQ(support::resourceLimitName(ResourceLimit::Cancelled),
               "cancelled");
  EXPECT_EQ(api::statusForLimit(ResourceLimit::Deadline),
            api::SolveStatus::HitDeadline);
  EXPECT_EQ(api::statusForLimit(ResourceLimit::NodeBudget),
            api::SolveStatus::HitNodeBudget);
  EXPECT_EQ(api::statusForLimit(ResourceLimit::Cancelled),
            api::SolveStatus::Cancelled);
  EXPECT_TRUE(api::isResourceLimit(api::SolveStatus::HitDeadline));
  EXPECT_TRUE(api::isResourceLimit(api::SolveStatus::HitNodeBudget));
  EXPECT_TRUE(api::isResourceLimit(api::SolveStatus::Cancelled));
  EXPECT_FALSE(api::isResourceLimit(api::SolveStatus::Ok));
  EXPECT_FALSE(api::isResourceLimit(api::SolveStatus::ParseError));
}

//===----------------------------------------------------------------------===//
// The manager probe and fault injection
//===----------------------------------------------------------------------===//

TEST(FaultTest, ManagerProbeTripsNodeBudget) {
  BddManager Mgr(64);
  ResourceGovernor Gov;
  Gov.setProbePeriod(16); // Tight probes so a tiny workload still charges.
  Gov.setNodeBudget(32);
  Mgr.setGovernor(&Gov);
  // Build distinct conjunctions until the budget trips at a probe.
  bool Tripped = false;
  try {
    Bdd Acc = Mgr.one();
    for (unsigned V = 0; V < 64; ++V)
      Acc &= (V % 2 ? Mgr.var(V) : !Mgr.var(V));
    Bdd Acc2 = Mgr.zero();
    for (unsigned V = 0; V < 64; ++V)
      Acc2 |= (V % 3 ? Mgr.var(V) : !Mgr.var(V)) & Mgr.var((V + 7) % 64);
  } catch (const ResourceInterrupt &RI) {
    Tripped = true;
    EXPECT_EQ(RI.Limit, ResourceLimit::NodeBudget);
  }
  EXPECT_TRUE(Tripped);
  Mgr.setGovernor(nullptr);
  // The manager survives the throw: unreferenced partial results are
  // garbage the next GC sweeps; fresh operations still work.
  Bdd X = Mgr.var(0) & Mgr.var(1);
  EXPECT_FALSE(X.isZero());
}

TEST(FaultTest, InjectedAllocationFailureThrowsBadAlloc) {
  BddManager Mgr(32);
  Mgr.setFailAfterAllocations(40);
  bool Faulted = false;
  try {
    Bdd Acc = Mgr.one();
    for (unsigned V = 0; V < 32; ++V)
      Acc &= (V % 2 ? Mgr.var(V) : !Mgr.var(V));
  } catch (const std::bad_alloc &) {
    Faulted = true;
  }
  EXPECT_TRUE(Faulted);
}

TEST(FaultTest, FaultInjectionArmsFromEnvironment) {
  ::setenv("GETAFIX_FAULT_ALLOC_AFTER", "40", 1);
  BddManager Mgr(32); // Reads the env var at construction.
  ::unsetenv("GETAFIX_FAULT_ALLOC_AFTER");
  bool Faulted = false;
  try {
    Bdd Acc = Mgr.one();
    for (unsigned V = 0; V < 32; ++V)
      Acc &= (V % 2 ? Mgr.var(V) : !Mgr.var(V));
  } catch (const std::bad_alloc &) {
    Faulted = true;
  }
  EXPECT_TRUE(Faulted);
  // A manager constructed after the unset is unarmed.
  BddManager Clean(32);
  Bdd Acc = Clean.one();
  for (unsigned V = 0; V < 32; ++V)
    EXPECT_NO_THROW(Acc &= (V % 2 ? Clean.var(V) : !Clean.var(V)));
}

//===----------------------------------------------------------------------===//
// Limit statuses through the Solver facade
//===----------------------------------------------------------------------===//

TEST(FaultTest, OptionsDeadlineSurfacesHitDeadline) {
  // A deadline armed in the past trips at the first round boundary, on
  // every engine kind.
  for (bool Concurrent : {false, true}) {
    api::SolverOptions Opts;
    Opts.TimeoutMs = 1;
    const std::string Src = Concurrent ? concFixture() : seqFixture();
    // Burn the 1ms before solving so the first probe is already late.
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    api::SolveResult R =
        api::Solver::solve(api::Query::fromSource(Src).target("ERR"), Opts);
    // The fixture is tiny; if it finished inside the deadline the result
    // must be a clean Ok — anything else is a broken status.
    if (R.ok())
      continue;
    EXPECT_EQ(R.Status, api::SolveStatus::HitDeadline) << R.Error;
    EXPECT_NE(R.Error.find("deadline"), std::string::npos) << R.Error;
  }
}

TEST(FaultTest, PreCancelledFlagSurfacesCancelled) {
  // Every registered engine, one-shot and in a session, plain and — where
  // the engine extracts traces — witness: one limit maps to one status on
  // every path. Bebop probes its governor only every 1,024 worklist pops,
  // so on this tiny fixture it may finish first; a clean Ok with the
  // right verdict is then the only other acceptable answer.
  std::atomic<bool> Cancel{true};
  for (const api::Engine *E : api::Solver::engines()) {
    api::SolverOptions Opts;
    Opts.Engine = E->name();
    Opts.CancelFlag = &Cancel;
    const std::string Src =
        E->handlesConcurrent() ? concFixture() : seqFixture();
    for (bool Witness : {false, true}) {
      if (Witness && !E->supportsWitness())
        continue;
      const std::string Context =
          std::string(E->name()) + (Witness ? "/witness" : "/plain");
      api::Query Q = api::Query::fromSource("").target("ERR").witness(Witness);
      api::Query OneShot = Q;
      OneShot.Source = Src;
      auto S = api::Solver::open(api::Query::fromSource(Src), Opts);
      ASSERT_TRUE(S->ok()) << Context << ": " << S->error();
      for (const api::SolveResult &R :
           {api::Solver::solve(OneShot, Opts), S->solve(Q)}) {
        if (R.ok() && std::string(E->name()) == "bebop") {
          EXPECT_TRUE(R.Reachable) << Context;
          continue;
        }
        EXPECT_EQ(R.Status, api::SolveStatus::Cancelled)
            << Context << ": " << R.Error;
        EXPECT_TRUE(api::isResourceLimit(R.Status)) << Context;
      }
    }
  }
}

TEST(FaultTest, SessionGovernorBudgetSurfacesHitNodeBudget) {
  auto S = api::Solver::open(api::Query::fromSource(seqFixture()), {});
  ASSERT_TRUE(S->ok());
  ResourceGovernor Gov;
  Gov.setProbePeriod(16);
  Gov.setNodeBudget(8); // Far below what even the tiny fixture allocates.
  S->setResourceGovernor(&Gov);
  api::SolveResult R = S->solve(api::Query::fromSource("").target("ERR"));
  S->setResourceGovernor(nullptr);
  EXPECT_EQ(R.Status, api::SolveStatus::HitNodeBudget) << R.Error;
  EXPECT_NE(R.Error.find("budget"), std::string::npos) << R.Error;
}

TEST(FaultTest, BudgetStoppedSessionReportsCompletedRounds) {
  // A limit-stopped sequential session reports the rounds it completed,
  // through the same read-out as the one-shot solve and the concurrent
  // session: more than 0 once a round finished, and never more than the
  // uninterrupted run. Each budget runs on a fresh session, so every stop
  // is a first attempt.
  const std::string Src = terminatorSource();
  for (const char *Engine : {"summary-scc", "ef-opt"}) {
    const std::string Context = Engine;
    api::SolverOptions Opts;
    Opts.Engine = Engine;
    auto Q = [] { return api::Query::fromSource("").target("CP0"); };
    auto Base = api::Solver::open(api::Query::fromSource(Src), Opts);
    api::SolveResult Want = Base->solve(Q());
    ASSERT_TRUE(Want.ok()) << Context << ": " << Want.Error;

    uint64_t MostRounds = 0;
    for (uint64_t Budget = 64;; Budget *= 2) {
      auto S = api::Solver::open(api::Query::fromSource(Src), Opts);
      ResourceGovernor Gov;
      Gov.setProbePeriod(16);
      Gov.setNodeBudget(Budget);
      S->setResourceGovernor(&Gov);
      api::SolveResult R = S->solve(Q());
      S->setResourceGovernor(nullptr);
      if (R.ok())
        break;
      ASSERT_EQ(R.Status, api::SolveStatus::HitNodeBudget)
          << Context << ": " << R.Error;
      EXPECT_LE(R.Iterations, Want.Iterations)
          << Context << " at budget " << Budget;
      MostRounds = std::max(MostRounds, R.Iterations);
    }
    EXPECT_GT(MostRounds, 0u) << Context;
  }
}

//===----------------------------------------------------------------------===//
// Cancellation determinism: stop, retry, bit-identical
//===----------------------------------------------------------------------===//

namespace {

/// Solves `Target` uninterrupted on one session, and budget-stopped then
/// retried on another; the retry must match the uninterrupted run
/// exactly. Escalating budgets (each \p Growth times the last) also
/// exercise multi-step resumption.
void expectResumeBitIdentical(const std::string &Src, const char *Engine,
                              unsigned Threads, const char *Target,
                              bool Witness, double Growth = 4.0) {
  const std::string Context = std::string(Engine ? Engine : "default") +
                              "/" + Target + "/t" + std::to_string(Threads);
  api::SolverOptions Opts;
  if (Engine)
    Opts.Engine = Engine;
  Opts.Threads = Threads;

  auto Q = [&] {
    return api::Query::fromSource("").target(Target).witness(Witness);
  };

  auto Base = api::Solver::open(api::Query::fromSource(Src), Opts);
  ASSERT_TRUE(Base->ok()) << Context;
  api::SolveResult Want = Base->solve(Q());
  ASSERT_TRUE(Want.ok()) << Context << ": " << Want.Error;

  auto S = api::Solver::open(api::Query::fromSource(Src), Opts);
  ASSERT_TRUE(S->ok()) << Context;
  unsigned Stops = 0;
  for (uint64_t Budget = 32;; Budget = uint64_t(double(Budget) * Growth)) {
    ResourceGovernor Gov;
    Gov.setProbePeriod(16);
    Gov.setNodeBudget(Budget);
    S->setResourceGovernor(&Gov);
    api::SolveResult R = S->solve(Q());
    S->setResourceGovernor(nullptr);
    if (R.ok()) {
      expectSameCore(Want, R, Context + " (after " +
                                  std::to_string(Stops) + " stops)");
      break;
    }
    ASSERT_EQ(R.Status, api::SolveStatus::HitNodeBudget)
        << Context << ": " << R.Error;
    ++Stops;
    ASSERT_LT(Stops, 64u) << Context << ": budget escalation diverged";
  }
  // The matrix is only meaningful if at least one run was interrupted.
  EXPECT_GE(Stops, 1u) << Context;

  // And the session remains consistent after the whole dance: a repeat
  // query reuses solved state and answers identically.
  api::SolveResult Again = S->solve(Q());
  ASSERT_TRUE(Again.ok()) << Context;
  EXPECT_EQ(Again.Reachable, Want.Reachable) << Context;
  EXPECT_EQ(Again.WitnessText, Want.WitnessText) << Context;
}

} // namespace

TEST(FaultTest, ResumeBitIdenticalSequentialEngines) {
  for (const char *Engine : {"ef", "ef-split", "ef-opt"})
    expectResumeBitIdentical(seqFixture(), Engine, 1, "ERR",
                             /*Witness=*/true);
  expectResumeBitIdentical(seqFixture(), "ef-opt", 1, "SAFE",
                           /*Witness=*/false);
  // The target-independent engines resume their relation chain where a
  // budget stopped it instead of solving it again from round zero.
  const std::string Src = terminatorSource();
  for (const char *Engine : {"summary", "summary-scc"})
    expectResumeBitIdentical(Src, Engine, 1, "CP0", /*Witness=*/false);
}

TEST(FaultTest, ResumeBitIdenticalOneVsFourThreads) {
  expectResumeBitIdentical(seqFixture(), "ef-opt", 4, "ERR",
                           /*Witness=*/true);
}

TEST(FaultTest, ResumeBitIdenticalOnThePool) {
  // A stop inside a parallel schedule hands every task's completed work
  // back to the session (saturated members and partial rounds alike), so
  // the retry resumes each relation on whichever worker gets it and
  // counts no round twice. Budgets grow by a quarter per stop, so some
  // stops land in a task's export.
  const std::string Src = terminatorSource();
  for (unsigned Threads : {2u, 4u})
    for (const char *Engine : {"summary", "summary-scc"})
      expectResumeBitIdentical(Src, Engine, Threads, "CP0",
                               /*Witness=*/false, /*Growth=*/1.25);
}

TEST(FaultTest, LimitStopInsideParallelScheduleReportsTheLimit) {
  // A budget that trips while the pool runs SCC tasks stops the whole
  // schedule: a task that starts after another stopped does nothing (it
  // would find a dependency unsolved), and the one-shot solve reports the
  // limit instead of throwing.
  const std::string Src = terminatorSource();
  for (unsigned Threads : {2u, 4u}) {
    const std::string Context = "t" + std::to_string(Threads);
    unsigned Stops = 0;
    for (uint64_t Budget = 256;; Budget += Budget / 4) {
      ResourceGovernor Gov;
      Gov.setProbePeriod(16);
      api::SolverOptions Opts;
      Opts.Engine = "summary-scc";
      Opts.Threads = Threads;
      Opts.Governor = &Gov;
      Opts.NodeBudget = Budget;
      api::SolveResult R;
      ASSERT_NO_THROW(
          R = api::Solver::solve(
              api::Query::fromSource(Src).target("CP0"), Opts))
          << Context << " at budget " << Budget;
      if (R.ok())
        break;
      ASSERT_EQ(R.Status, api::SolveStatus::HitNodeBudget)
          << Context << " at budget " << Budget << ": " << R.Error;
      ++Stops;
    }
    EXPECT_GE(Stops, 1u) << Context;
  }
}

TEST(FaultTest, StoppedScheduleCountsOnlySolvedSccTasks) {
  // `sccs_solved_parallel` counts the SCC tasks whose members were all
  // exported, not the tasks a stopped schedule handed to the pool: those
  // that start after another task stopped return at once. The program is
  // `getafix_load --emit-workloads`' terminator, whose twelve SCC
  // relations (a Summary_ and a ReachEntry_ per call-graph SCC) are each a
  // task of their own.
  gen::TerminatorParams P;
  P.CounterBits = 6;
  P.NumDeadVars = 4;
  P.Style = gen::DeadVarStyle::Schoose;
  P.Reachable = false;
  P.LabeledCheckpoints = 4;
  const std::string Src = gen::terminatorProgram(P).Source;
  auto Solve = [&](uint64_t Budget) {
    api::SolverOptions Opts;
    Opts.Engine = "summary-scc";
    Opts.Threads = 4;
    Opts.NodeBudget = Budget;
    return api::Solver::solve(api::Query::fromSource(Src).target("CP0"),
                              Opts);
  };

  api::SolveResult Full = Solve(0);
  ASSERT_TRUE(Full.ok()) << Full.Error;
  EXPECT_EQ(Full.SccsSolvedParallel, 12u);

  unsigned Stops = 0;
  for (uint64_t Budget = 4000;; Budget += Budget / 2) {
    api::SolveResult R = Solve(Budget);
    if (R.ok())
      break;
    ASSERT_EQ(R.Status, api::SolveStatus::HitNodeBudget) << R.Error;
    ++Stops;
    uint64_t Iterated = 0;
    for (const auto &[Name, RS] : R.Relations)
      if ((Name.rfind("Summary_", 0) == 0 ||
           Name.rfind("ReachEntry_", 0) == 0) &&
          RS.Iterations > 0)
        ++Iterated;
    EXPECT_LE(R.SccsSolvedParallel, Iterated) << "at budget " << Budget;
  }
  EXPECT_GE(Stops, 1u);
}

TEST(FaultTest, ResumeBitIdenticalConcurrentEngine) {
  expectResumeBitIdentical(concFixture(), nullptr, 1, "ERR",
                           /*Witness=*/false);
  expectResumeBitIdentical(concFixture(), nullptr, 4, "ERR",
                           /*Witness=*/false);
}

//===----------------------------------------------------------------------===//
// Fault containment boundary
//===----------------------------------------------------------------------===//

TEST(FaultTest, InjectedOomEscapesTheFacadeForTheServerToContain) {
  // The engines deliberately do NOT swallow real faults — std::bad_alloc
  // must reach the caller (the server's per-request containment), never
  // be conflated with a clean limit stop.
  // The env must still be set at the first solve: `open` only compiles,
  // and the engine session (whose BddManager reads the arming variable)
  // is created lazily on first use.
  ::setenv("GETAFIX_FAULT_ALLOC_AFTER", "200", 1);
  auto S = api::Solver::open(api::Query::fromSource(seqFixture()), {});
  ASSERT_TRUE(S->ok());
  EXPECT_THROW(S->solve(api::Query::fromSource("").target("ERR")),
               std::bad_alloc);
  ::unsetenv("GETAFIX_FAULT_ALLOC_AFTER");
}
