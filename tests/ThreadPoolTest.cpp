//===- ThreadPoolTest.cpp - Pool and DAG-scheduler unit tests -------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing pool and the dependency-respecting DAG runner under
/// it, exercised directly (no BDDs): every task runs exactly once, tasks
/// may submit tasks, and — the property the parallel SCC scheduler rests
/// on — for randomized DAGs every dependency is *completed* before its
/// dependent *starts*, and task results computed from dependency results
/// are identical across worker counts and runs.
///
//===----------------------------------------------------------------------===//

#include "fpcalc/Parallel.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

using namespace getafix;
using namespace getafix::fpc;
using getafix::support::ThreadPool;

namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  constexpr unsigned N = 200;
  std::vector<std::atomic<unsigned>> Runs(N);
  std::atomic<unsigned> Done{0};
  std::mutex M;
  std::condition_variable Cv;
  // Declared after what its tasks use, so it joins its workers before
  // those die: the wait may return while the last task still notifies.
  ThreadPool Pool(4);
  for (unsigned I = 0; I < N; ++I)
    Pool.run([&, I](unsigned Worker) {
      EXPECT_LT(Worker, Pool.size());
      Runs[I].fetch_add(1);
      if (Done.fetch_add(1) + 1 == N) {
        std::lock_guard<std::mutex> Lock(M);
        Cv.notify_all();
      }
    });
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [&] { return Done.load() == N; });
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Runs[I].load(), 1u) << "task " << I;
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  std::atomic<unsigned> Done{0};
  std::mutex M;
  std::condition_variable Cv;
  ThreadPool Pool(3); // Joins before M and Cv die (see above).
  constexpr unsigned Fanout = 8, Leaves = Fanout * Fanout;
  for (unsigned I = 0; I < Fanout; ++I)
    Pool.run([&](unsigned) {
      for (unsigned J = 0; J < Fanout; ++J)
        Pool.run([&](unsigned) {
          if (Done.fetch_add(1) + 1 == Leaves) {
            std::lock_guard<std::mutex> Lock(M);
            Cv.notify_all();
          }
        });
    });
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [&] { return Done.load() == Leaves; });
  EXPECT_EQ(Done.load(), Leaves);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
}

//===----------------------------------------------------------------------===//
// runDag: ordering and determinism over randomized DAGs
//===----------------------------------------------------------------------===//

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

/// Runs \p Deps on a pool of \p Workers, recording per-task start/finish
/// ticks from one global clock and a value derived only from dependency
/// values (the analogue of an SCC's solution being a pure function of its
/// callees' values).
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
  std::atomic<uint64_t> Clock{0};
  ThreadPool Pool(Workers);
  DagRunStats Stats =
      runDag(Pool, N, Deps, [&](unsigned Task, unsigned Worker) {
        (void)Worker;
        Out.Start[Task] = Clock.fetch_add(1);
        uint64_t V = 0x9e3779b97f4a7c15ull * (Task + 1);
        // Reading dependency values without synchronization is the point:
        // runDag's ordering guarantee (dep finished before dependent
        // starts, with the completion bookkeeping under its lock) is what
        // makes this race-free — TSAN runs this test to prove it.
        for (unsigned D : Deps[Task])
          V = (V ^ Out.Value[D]) * 0xbf58476d1ce4e5b9ull;
        Out.Value[Task] = V;
        Out.Finish[Task] = Clock.fetch_add(1);
      });
  EXPECT_EQ(Stats.TasksRun, N);
  return Out;
}

TEST(SccScheduleTest, RandomDagsRespectDependenciesAtEveryWidth) {
  Rng R(42);
  for (unsigned Round = 0; Round < 6; ++Round) {
    unsigned N = unsigned(R.range(1, 40));
    unsigned Density = unsigned(R.below(120));
    std::vector<std::vector<unsigned>> Deps = randomDag(R, N, Density);
    for (unsigned Workers : {1u, 2u, 4u}) {
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
    for (unsigned Workers : {2u, 4u, 8u}) {
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
  ThreadPool Pool(2);
  DagRunStats Stats = runDag(Pool, 0, {}, [](unsigned, unsigned) {
    FAIL() << "no task to run";
  });
  EXPECT_EQ(Stats.TasksRun, 0u);
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
TEST(SccScheduleDeathTest, CyclicGraphAbortsInsteadOfHanging) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Fully sourceless graph: caught before anything is submitted.
  EXPECT_DEATH(
      {
        ThreadPool Pool(2);
        runDag(Pool, 2, {{1}, {0}}, [](unsigned, unsigned) {});
      },
      "no source");
  // A source plus a disjoint cycle: caught by the in-flight stall check
  // when the last runnable task completes without unblocking anything.
  EXPECT_DEATH(
      {
        ThreadPool Pool(2);
        runDag(Pool, 3, {{}, {2}, {1}}, [](unsigned, unsigned) {});
      },
      "unreachable from any source");
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
