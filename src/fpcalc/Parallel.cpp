//===- Parallel.cpp - Dependency-respecting parallel execution ------------===//

#include "fpcalc/Parallel.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

using namespace getafix;
using namespace getafix::fpc;

void fpc::runDag(
    unsigned Threads, unsigned NumTasks,
    const std::vector<std::vector<unsigned>> &Deps,
    const std::function<void(unsigned Task, unsigned Worker)> &Run) {
  assert(Deps.size() == NumTasks && "one dependency list per task");
  // Every dependency precedes its task, so the graph is acyclic and task 0
  // is a source: a run that passes this check always completes. Checked
  // in every configuration, because a cycle would hang the solver.
  std::vector<unsigned> Waiting(NumTasks);
  std::vector<std::vector<unsigned>> Dependents(NumTasks);
  std::deque<unsigned> Ready;
  for (unsigned T = 0; T < NumTasks; ++T) {
    for (unsigned D : Deps[T]) {
      if (D >= T) {
        std::fprintf(stderr,
                     "fpc::runDag: task %u depends on task %u, which does "
                     "not precede it\n",
                     T, D);
        std::abort();
      }
      Dependents[D].push_back(T);
    }
    Waiting[T] = unsigned(Deps[T].size());
    if (Waiting[T] == 0)
      Ready.push_back(T);
  }

  std::mutex Mutex; ///< Guards Waiting, Ready and Remaining from here on.
  std::condition_variable Wake;
  unsigned Remaining = NumTasks;
  auto Work = [&](unsigned Worker) {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (true) {
      Wake.wait(Lock, [&] { return !Ready.empty() || Remaining == 0; });
      if (Ready.empty())
        return;
      unsigned T = Ready.front();
      Ready.pop_front();
      Lock.unlock();
      try {
        Run(T, Worker);
      } catch (const std::exception &E) {
        // The DAG cannot be completed: dependents of T must not run.
        std::fprintf(stderr, "fpc::runDag: task %u failed: %s\n", T,
                     E.what());
        std::abort();
      } catch (...) {
        std::fprintf(stderr, "fpc::runDag: task %u failed\n", T);
        std::abort();
      }
      Lock.lock();
      bool Unblocked = false;
      for (unsigned D : Dependents[T])
        if (--Waiting[D] == 0) {
          Ready.push_back(D);
          Unblocked = true;
        }
      if (--Remaining == 0 || Unblocked)
        Wake.notify_all();
    }
  };

  std::vector<std::thread> Helpers;
  try {
    for (unsigned W = 1; W < std::min(std::max(Threads, 1u), NumTasks); ++W)
      Helpers.emplace_back(Work, W);
  } catch (const std::exception &) {
    // The system refused a thread: the workers that started drain every
    // task all the same, and each is joined below.
  }
  Work(0);
  for (std::thread &H : Helpers)
    H.join();
}
