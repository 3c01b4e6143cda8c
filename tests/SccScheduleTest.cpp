//===- SccScheduleTest.cpp - DAG runner unit tests ------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency-respecting DAG runner under the parallel SCC scheduler,
/// exercised directly (no BDDs): every task runs exactly once on one of
/// at most `min(Threads, NumTasks)` workers, a dependency that does not
/// precede its task is rejected, and — the property the parallel SCC
/// scheduler rests on — for randomized DAGs every dependency is
/// *completed* before its dependent *starts*, and task results computed
/// from dependency results are identical across worker counts and runs.
///
//===----------------------------------------------------------------------===//

#include "fpcalc/Parallel.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <vector>

using namespace getafix;
using namespace getafix::fpc;

namespace {

/// A random DAG: edges only from lower to higher task index, so it is
/// acyclic by construction; EdgePermille controls density.
std::vector<std::vector<unsigned>> randomDag(Rng &R, unsigned N,
                                             unsigned EdgePermille) {
  std::vector<std::vector<unsigned>> Deps(N);
  for (unsigned J = 1; J < N; ++J)
    for (unsigned I = 0; I < J; ++I)
      if (R.below(1000) < EdgePermille)
        Deps[J].push_back(I);
  return Deps;
}

/// Runs \p Deps on \p Workers workers, recording per-task start/finish
/// ticks from one global clock, how often each task ran and on which
/// worker, and a value derived only from dependency values (the analogue
/// of an SCC's solution being a pure function of its callees' values).
/// Checks that every task ran exactly once, on a worker the runner may
/// use: below `min(Workers, N)`, where 0 workers means one.
struct DagRun {
  std::vector<uint64_t> Start, Finish, Value;
};

DagRun runInstrumented(const std::vector<std::vector<unsigned>> &Deps,
                       unsigned Workers) {
  unsigned N = unsigned(Deps.size());
  DagRun Out;
  Out.Start.resize(N);
  Out.Finish.resize(N);
  Out.Value.resize(N);
  std::vector<std::atomic<unsigned>> Runs(N);
  std::atomic<uint64_t> Clock{0};
  std::atomic<unsigned> MaxWorker{0};
  runDag(Workers, N, Deps, [&](unsigned Task, unsigned Worker) {
    Runs[Task].fetch_add(1);
    unsigned Seen = MaxWorker.load();
    while (Worker > Seen && !MaxWorker.compare_exchange_weak(Seen, Worker))
      ;
    Out.Start[Task] = Clock.fetch_add(1);
    uint64_t V = 0x9e3779b97f4a7c15ull * (Task + 1);
    // Reading dependency values without synchronization is the point:
    // runDag's ordering guarantee (dep finished before dependent starts,
    // with the completion bookkeeping under its lock) is what makes this
    // race-free — TSAN runs this test to prove it.
    for (unsigned D : Deps[Task])
      V = (V ^ Out.Value[D]) * 0xbf58476d1ce4e5b9ull;
    Out.Value[Task] = V;
    Out.Finish[Task] = Clock.fetch_add(1);
  });
  for (unsigned T = 0; T < N; ++T)
    EXPECT_EQ(Runs[T].load(), 1u) << "task " << T << " at width " << Workers;
  if (N != 0) {
    EXPECT_LT(MaxWorker.load(), std::min(std::max(Workers, 1u), N))
        << "width " << Workers;
  }
  return Out;
}

TEST(SccScheduleTest, RandomDagsRespectDependenciesAtEveryWidth) {
  Rng R(42);
  for (unsigned Round = 0; Round < 6; ++Round) {
    unsigned N = unsigned(R.range(1, 40));
    unsigned Density = unsigned(R.below(120));
    std::vector<std::vector<unsigned>> Deps = randomDag(R, N, Density);
    for (unsigned Workers : {0u, 1u, 2u, 4u}) {
      DagRun Run = runInstrumented(Deps, Workers);
      for (unsigned T = 0; T < N; ++T)
        for (unsigned D : Deps[T])
          EXPECT_LT(Run.Finish[D], Run.Start[T])
              << "dep " << D << " of task " << T << " at width " << Workers;
    }
  }
}

TEST(SccScheduleTest, RandomDagValuesIdenticalAcrossWidthsAndRuns) {
  Rng R(7);
  for (unsigned Round = 0; Round < 4; ++Round) {
    unsigned N = unsigned(R.range(2, 48));
    std::vector<std::vector<unsigned>> Deps = randomDag(R, N, 80);
    DagRun Base = runInstrumented(Deps, 1);
    for (unsigned Workers : {0u, 2u, 4u, 8u}) {
      DagRun Run = runInstrumented(Deps, Workers);
      EXPECT_EQ(Run.Value, Base.Value) << "width " << Workers;
    }
    // Same width twice: schedules may differ, values may not.
    DagRun Again = runInstrumented(Deps, 4);
    EXPECT_EQ(Again.Value, Base.Value);
  }
}

TEST(SccScheduleTest, ChainRunsInOrder) {
  constexpr unsigned N = 24;
  std::vector<std::vector<unsigned>> Deps(N);
  for (unsigned I = 1; I < N; ++I)
    Deps[I].push_back(I - 1);
  DagRun Run = runInstrumented(Deps, 4);
  for (unsigned I = 1; I < N; ++I)
    EXPECT_LT(Run.Finish[I - 1], Run.Start[I]);
}

TEST(SccScheduleTest, EmptyDagReturnsImmediately) {
  runDag(2, 0, {}, [](unsigned, unsigned) { FAIL() << "no task to run"; });
}

TEST(SccScheduleTest, NeverMoreWorkersThanTasks) {
  // Eight threads asked for, three independent tasks: three workers, no
  // more. Each task waits until all three have started, so they run on
  // three distinct workers at once, and every worker index is below 3.
  std::mutex M;
  std::condition_variable Cv;
  unsigned Started = 0;
  bool AllMet = true;
  std::set<unsigned> Workers;
  runDag(8, 3, std::vector<std::vector<unsigned>>(3),
         [&](unsigned, unsigned Worker) {
           std::unique_lock<std::mutex> Lock(M);
           Workers.insert(Worker);
           ++Started;
           Cv.notify_all();
           AllMet &= Cv.wait_for(Lock, std::chrono::seconds(10),
                                 [&] { return Started == 3; });
         });
  EXPECT_TRUE(AllMet) << "the three tasks did not run at once";
  EXPECT_EQ(Workers, (std::set<unsigned>{0, 1, 2}));
}

// Death tests re-execute the binary (threadsafe style) because the tested
// code spins up threads; skipped under TSAN, where fork/exec death tests
// are unreliable.
#if defined(__SANITIZE_THREAD__)
#define GETAFIX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GETAFIX_TSAN 1
#endif
#endif

#ifndef GETAFIX_TSAN
TEST(SccScheduleDeathTest, DependencyThatDoesNotPrecedeItsTaskAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A task that runs dies with another message: the graph is rejected
  // before anything runs.
  auto Run = [](unsigned, unsigned) {
    std::fprintf(stderr, "a task ran\n");
    std::abort();
  };
  // Fully sourceless graph: task 0 depends on task 1.
  EXPECT_DEATH(runDag(2, 2, {{1}, {0}}, Run),
               "task 0 depends on task 1, which does not precede it");
  // A source plus a disjoint cycle: task 1 depends on task 2.
  EXPECT_DEATH(runDag(2, 3, {{}, {2}, {1}}, Run),
               "task 1 depends on task 2, which does not precede it");
}
#endif

TEST(SccScheduleTest, DiamondJoinSeesBothBranches) {
  // 0 fans out to 1 and 2; 3 joins both.
  std::vector<std::vector<unsigned>> Deps{{}, {0}, {0}, {1, 2}};
  for (unsigned Workers : {1u, 2u, 4u}) {
    DagRun Run = runInstrumented(Deps, Workers);
    EXPECT_LT(Run.Finish[0], Run.Start[1]);
    EXPECT_LT(Run.Finish[0], Run.Start[2]);
    EXPECT_LT(Run.Finish[1], Run.Start[3]);
    EXPECT_LT(Run.Finish[2], Run.Start[3]);
  }
}

} // namespace
