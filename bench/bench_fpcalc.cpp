//===- bench_fpcalc.cpp - Fixed-point solver micro-benchmarks -------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
// google-benchmark microbenchmarks of the calculus evaluator: fixpoint
// iteration cost on the Section-3 transition-system example at growing
// domain sizes.
//===----------------------------------------------------------------------===//

#include "fpcalc/Calculus.h"
#include "fpcalc/Evaluator.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace getafix;
using namespace getafix::fpc;

namespace {

/// Graph reachability at growing domain sizes.
void BM_GraphReachability(benchmark::State &State) {
  uint64_t NumNodes = uint64_t(State.range(0));
  System Sys;
  DomainId Node = Sys.addDomain("Node", NumNodes);
  VarId U = Sys.addVar("u", Node);
  VarId X = Sys.addVar("x", Node);
  RelId Init = Sys.declareRel("Init", {U});
  RelId Trans = Sys.declareRel("Trans", {X, U});
  RelId Reach = Sys.declareRel("Reach", {U});
  Sys.define(Reach, Sys.mkOr({Sys.applyVars(Init, {U}),
                              Sys.exists({X}, Sys.mkAnd({
                                                  Sys.applyVars(Reach, {X}),
                                                  Sys.applyVars(Trans,
                                                                {X, U}),
                                              }))}));

  uint64_t NodesCreated = 0;
  for (auto _ : State) {
    BddManager Mgr;
    Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
    Ev.bindInput(Init, Ev.encodeEqConst(U, 0));
    Rng R(7);
    Bdd TransBdd = Mgr.zero();
    // A long chain plus random shortcuts: many iterations to converge.
    for (uint64_t N = 0; N + 1 < NumNodes; ++N)
      TransBdd |= Ev.encodeEqConst(X, N) & Ev.encodeEqConst(U, N + 1);
    for (unsigned E = 0; E < 16; ++E)
      TransBdd |= Ev.encodeEqConst(X, R.below(NumNodes)) &
                  Ev.encodeEqConst(U, R.below(NumNodes));
    Ev.bindInput(Trans, TransBdd);
    benchmark::DoNotOptimize(Ev.evaluate(Reach).Value.nodeCount());
    NodesCreated = Mgr.stats().NodesCreated;
  }
  State.counters["bdd_nodes"] =
      benchmark::Counter(double(NodesCreated));
}
BENCHMARK(BM_GraphReachability)->ArgName("nodes")->Arg(64)->Arg(256)->Arg(1024);

} // namespace

BENCHMARK_MAIN();
