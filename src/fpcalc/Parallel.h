//===- Parallel.h - Dependency-respecting parallel execution ----*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SCC-condensation scheduler behind the evaluator's multi-threaded
/// dependency pre-solving: a runner that executes a DAG of tasks on
/// workers that live for one run, dispatching each task the moment its
/// last dependency completes. The evaluator instantiates it with one task
/// per dependency SCC (`Evaluator::scheduleDependencies` under
/// `Threads > 1`); the unit tests instantiate it with synthetic DAGs and
/// assert the solved-before relation directly.
///
/// Determinism contract: the runner makes no ordering promises beyond the
/// dependency edges — callers must ensure task results are independent of
/// completion order. For SCC fixpoint solves this holds by construction:
/// an SCC's solution is a pure function of its callees' (canonical BDD)
/// values, so any dependency-respecting schedule produces bit-identical
/// relation values.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_FPCALC_PARALLEL_H
#define GETAFIX_FPCALC_PARALLEL_H

#include <functional>
#include <vector>

namespace getafix {
namespace fpc {

/// Executes tasks `0 .. NumTasks-1` on `min(Threads, NumTasks)` workers
/// (\p Threads 0 counts as 1), honoring \p Deps: `Deps[I]` lists the tasks
/// that must complete before task I starts, and each must be below I (the
/// evaluator numbers its SCC tasks callees-first). A dependency that does
/// not precede its task aborts before any task runs. The calling thread is
/// worker 0; the other workers are threads started for this call, which
/// take ready tasks first-in first-out from one queue and are joined
/// before it returns. `Run(Task, Worker)` is invoked exactly once per
/// task, with `Worker` below the worker count, and must not throw.
void runDag(unsigned Threads, unsigned NumTasks,
            const std::vector<std::vector<unsigned>> &Deps,
            const std::function<void(unsigned Task, unsigned Worker)> &Run);

} // namespace fpc
} // namespace getafix

#endif // GETAFIX_FPCALC_PARALLEL_H
