//===- quickstart.cpp - Minimal end-to-end use of the library -------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: one `Query`, one `Solver::solve` call per engine. The
/// engine list comes from the registry, so this program automatically
/// covers every reachability algorithm the library ships — the whole
/// public API surface a typical client needs.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include <cstdio>

using namespace getafix;

int main() {
  // A lock-discipline model: `locked` must alternate via acquire/release.
  // The ERR label is reachable only if a double acquire is possible.
  const char *Source = R"(
decl locked, error;
main() begin
  decl n;
  locked := F; error := F;
  n := *;
  while (n) do
    call acquire();
    if (*) then
      call release();
    fi;
    n := *;
  od;
  if (error) then
    ERR: skip;
  fi;
end
acquire() begin
  if (locked) then
    error := T;
  fi;
  locked := T;
end
release() begin
  locked := F;
end
)";

  std::printf("query: is label ERR reachable?\n\n");

  Query Q = Query::fromSource(Source).target("ERR");
  for (const api::Engine *E : Solver::engines()) {
    if (E->handlesConcurrent())
      continue; // The lock model is sequential.
    SolverOptions Opts;
    Opts.Engine = E->name();
    SolveResult R = Solver::solve(Q, Opts);
    if (!R.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", E->name(), R.Error.c_str());
      return 1;
    }
    std::printf("%-10s -> %-3s  (%llu iterations, %zu nodes, peak %zu, "
                "%.3fs)\n",
                E->name(), R.Reachable ? "YES" : "NO",
                (unsigned long long)R.Iterations, R.SummaryNodes,
                R.Bdd.PeakNodes, R.Seconds);
  }
  return 0;
}
