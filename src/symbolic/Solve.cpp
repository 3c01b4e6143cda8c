//===- Solve.cpp - The one read-out of a solve's counters -----------------===//

#include "symbolic/Solve.h"

#include "symbolic/Encode.h"

#include <algorithm>

using namespace getafix;
using namespace getafix::sym;

void SolveMeter::finish(SolveStats &Out, fpc::Evaluator &Ev,
                        const std::vector<fpc::RelId> &Roots, unsigned Width,
                        unsigned SummaryRelations,
                        const fpc::IncrementalFixpoint::Answer *Answer) const {
  Out.Relations = Ev.stats();
  if (Answer) {
    Out.Iterations = Answer->Iterations;
    // A fresh solve's DeltaRounds is Iterations - 1 whenever the delta
    // core runs (every round after the first is a delta round, however
    // the solve stops), and 0 when the equation re-evaluates its whole
    // body every round.
    bool DeltaCore = Ev.plan(Roots.front()).SemiNaive;
    Out.DeltaRounds =
        DeltaCore && Answer->Iterations > 0 ? Answer->Iterations - 1 : 0;
    Out.SummariesReused = Answer->RoundsReused;
    Out.SummariesRecomputed = Answer->RoundsComputed;
  } else {
    // Per-relation rounds are deterministic however the DAG schedules
    // them, so these aggregates are identical across thread counts and
    // across fresh and session solves.
    Out.Iterations = 0;
    Out.DeltaRounds = 0;
    for (fpc::RelId R : Roots) {
      auto It = Out.Relations.find(Ev.system().relation(R).Name);
      if (It == Out.Relations.end())
        continue;
      Out.Iterations = std::max(Out.Iterations, It->second.Iterations);
      Out.DeltaRounds += It->second.DeltaRounds;
    }
  }
  Out.CondensationWidth = Width;
  Out.SummaryRelations = SummaryRelations;
  Out.Bdd = Ev.manager().stats().since(Mgr);
  Out.Bdd.merge(Ev.workerBddStats().since(Workers));
  fpc::ParallelStats ParDelta = Ev.parallelStats().since(Par);
  Out.SccsSolvedParallel = ParDelta.SccsSolvedParallel;
  Out.ImportedNodes = ParDelta.ImportedNodes;
  Out.Seconds = T.seconds();
}

SessionState::SessionState(const fpc::System &Sys, const VarFactory &Factory,
                           unsigned Threads)
    : Ev(Sys, Mgr, Factory.makeLayout(Mgr), Threads) {}

void SessionState::clearComputedCache() {
  Mgr.clearComputedCache();
  Sample.CacheBytes = 0;
}

void SessionState::sampleGauge(const SessionState *Second) {
  Sample = Mgr.gauge();
  if (Second)
    Sample += Second->Sample;
  PeakLive = std::max(PeakLive, Sample.Nodes);
}
