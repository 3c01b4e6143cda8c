//===- Solve.h - The knobs a solve takes and the counters it returns -*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration flows down the layers and one statistics record flows
/// back up. Every engine — the sequential fixed-point engines, the
/// Section-5 concurrent engine, the Moped/Bebop baselines, and witness
/// extraction — takes a `SolveConfig` and returns a `SolveStats`; the
/// facade's `api::SolverOptions` and `api::SolveResult` are built on them.
/// Engines read the knobs that apply to them and ignore the rest, and
/// leave the counters they do not produce at zero.
///
/// `SolveMeter` is the one read-out of a solve's counters: the evaluator's
/// per-relation statistics, the BDD managers' counters and the parallel
/// scheduler's counters, taken the same way whether the solve ran to its
/// end or a resource limit stopped it.
///
/// `SessionState` is the one solving state a query session keeps: the BDD
/// manager, the evaluator over it, the recorded rounds, the per-query
/// governor and the end-of-query memory gauge. Every sequential and
/// concurrent session and every witness walk runs on one; the one-shot
/// solves do not keep state and build their own manager and evaluator.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SYMBOLIC_SOLVE_H
#define GETAFIX_SYMBOLIC_SOLVE_H

#include "bdd/Bdd.h"
#include "fpcalc/Evaluator.h"
#include "support/ResourceGovernor.h"
#include "support/Timer.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace getafix {
namespace sym {

class VarFactory; // symbolic/Encode.h

/// The solver knobs, declared once.
struct SolveConfig {
  /// Stop iterating as soon as the target is found (the Appendix formula's
  /// early-termination disjunct, implemented at the solver level).
  bool EarlyStop = true;
  /// Worker threads for the fixed-point evaluator's parallel SCC
  /// scheduling (1 = sequential). Independent SCCs of the equation
  /// system's dependency condensation are solved on worker threads over
  /// per-worker BDD managers, both living for one schedule; verdicts,
  /// iteration counts, and witnesses are bit-identical at any setting
  /// (enforced by the parallel differential tests). Non-BDD engines
  /// (moped, bebop) ignore it.
  /// Only `summary-scc` reaches the pool, one-shot and in a session
  /// alike: the paper's systems and the concurrent one never leave two
  /// SCCs pending at once.
  unsigned Threads = 1;

  // Concurrent knobs.
  unsigned ContextBound = 2; ///< Max context switches k.
  /// When nonzero: analyze this many round-robin rounds (implies
  /// `RoundRobin` and overrides `ContextBound`).
  unsigned Rounds = 0;
  /// Fixes the schedule to round-robin order (t_i = i mod n) — the setting
  /// of the paper's Section-5 closing remark and of Lal–Reps [12]. k
  /// context switches then cover ceil((k+1)/n) rounds. The schedule
  /// variables become constants, which is exactly the space economy the
  /// remark's 2k-copy formulation exploits; reachability within the
  /// round-robin schedule is unchanged.
  bool RoundRobin = false;

  /// The resource governor this solve attempt runs under (deadline, node
  /// budget, cancel flag; see support/ResourceGovernor.h). Not owned;
  /// governors are one-shot, so each attempt needs a fresh one. A tripped
  /// limit is reported in `SolveStats::Limit` with the state stopped at a
  /// completed round boundary, so a session retry resumes the
  /// deterministic round chain bit-identically. Null = ungoverned.
  /// Sessions ignore this field and take their governor per query
  /// (`setGovernor`).
  support::ResourceGovernor *Governor = nullptr;
};

/// The counters a solve returns, declared once; fields an engine does not
/// produce keep their zero defaults.
struct SolveStats {
  /// Which governor limit stopped the solve (`None` = ran to completion).
  /// When set, the verdict is indeterminate; `Iterations` and the other
  /// counters cover the rounds the solve completed.
  support::ResourceLimit Limit = support::ResourceLimit::None;
  bool Reachable = false;
  /// Fixpoint rounds of the main relation (the longest per-relation
  /// chain under `summary-scc`), or the baselines' rounds and
  /// worklist steps.
  uint64_t Iterations = 0;
  /// Semi-naive rounds after the first (see `fpc::RelStats::DeltaRounds`),
  /// summed over `summary-scc`'s relations.
  uint64_t DeltaRounds = 0;
  /// Final BDD size of the main relation: the summary, or the concurrent
  /// engine's Reach.
  size_t SummaryNodes = 0;
  /// BDD-manager counters: nodes created, peak nodes, computed-cache
  /// probes and hits (totals and per `BddOp`), GC runs and reclaim
  /// totals. A parallel solve folds its worker managers' counters in, so
  /// it reports its whole BDD workload. Zero for non-BDD engines.
  BddStats Bdd;
  /// Concurrent: sat-count of Reach over its tuple bits (the "reachable
  /// set size" of Figure 3).
  double ReachStates = 0.0;
  /// Per-relation evaluator statistics (fixed-point engines only), keyed
  /// by relation name — iterations, delta rounds, nested evaluations,
  /// final BDD sizes. Cumulative over a session's queries.
  std::map<std::string, fpc::RelStats> Relations;
  /// Session mode: fixpoint rounds of this query served from state solved
  /// by earlier queries on the same session, vs rounds newly evaluated.
  /// One-shot solves report (0, Iterations) for fixed-point engines.
  uint64_t SummariesReused = 0;
  uint64_t SummariesRecomputed = 0;
  /// Dependency SCCs solved on the evaluator's worker pool
  /// (`SolveConfig::Threads > 1` only).
  uint64_t SccsSolvedParallel = 0;
  /// Width of the equation system's dependency condensation — the number
  /// of SCCs `fpc::runDag`'s scheduler can in principle overlap. Equals
  /// the call graph's SCC count for `summary-scc` and the (narrow, 1–4)
  /// defined-relation SCC count for the paper's four sequential
  /// algorithms. The concurrent encoding cannot adopt the split: its
  /// context-switch clauses read every thread's summary, so all its
  /// relations form one dependency SCC and the split would not decompose
  /// it (a genuine widening would need a per-(thread, context) relation
  /// family; the seam is the clause builder in ConcReach.cpp). 0 for
  /// non-fixed-point engines.
  unsigned CondensationWidth = 0;
  /// Number of summary relations the engine compiled: the call graph's
  /// SCC count for `summary-scc`, 1 for the paper's algorithms and for the
  /// concurrent engine (one whole-program Reach relation over every
  /// thread); 0 for engines with no summary relation.
  unsigned SummaryRelations = 0;
  /// BDD nodes the cached importers translated across manager boundaries
  /// while seeding and exporting SCC tasks (`Threads > 1` only).
  uint64_t ImportedNodes = 0;
  double Seconds = 0.0; ///< Wall-clock solve time (excludes parsing).
};

/// The one read-out of a solve's counters. Start a meter when the solve
/// attempt starts; `finish` then copies what the evaluator and its BDD
/// managers did since into a `SolveStats`, whether the attempt completed
/// or a limit stopped it.
class SolveMeter {
public:
  /// Counts from zero: for a solve on managers it created itself.
  SolveMeter() = default;
  /// Counts from \p Ev's counters now: for one query on a session's
  /// persistent evaluator. BDD peaks stay absolute.
  explicit SolveMeter(fpc::Evaluator &Ev)
      : Mgr(Ev.manager().stats()), Workers(Ev.workerBddStats()),
        Par(Ev.parallelStats()) {}

  /// Fills `Relations`, `Bdd`, `SccsSolvedParallel`, `ImportedNodes` and
  /// `Seconds` from the evaluator, the two condensation counts from the
  /// arguments, and `Iterations` / `DeltaRounds` from the per-relation
  /// statistics of \p Roots: the longest chain among them and their
  /// summed delta rounds. Those are the rounds the solve completed, which
  /// is what a limit-stopped solve reports too. A session query answered
  /// from recorded rounds reports its \p Answer instead: the round a fresh
  /// solve would stop at, and how many of its rounds were replayed.
  void finish(SolveStats &Out, fpc::Evaluator &Ev,
              const std::vector<fpc::RelId> &Roots, unsigned Width,
              unsigned SummaryRelations,
              const fpc::IncrementalFixpoint::Answer *Answer = nullptr) const;

private:
  BddStats Mgr, Workers;
  fpc::ParallelStats Par;
  Timer T;
};

/// The solving state of one session over one equation system: a BDD
/// manager, the evaluator over it, and the rounds ("onion rings") of the
/// relation its queries iterate. They persist across queries, so a query
/// replays the recorded rounds and resumes the iteration only where the
/// answer needs rounds beyond them; the same rings are what a
/// counterexample walks. The owner binds the system's inputs into `Ev`
/// once, right after construction.
class SessionState {
public:
  /// Lays \p Sys's variables out through \p Factory on a fresh manager.
  /// \p Threads is the evaluator's worker count (see `fpc::Evaluator`).
  SessionState(const fpc::System &Sys, const VarFactory &Factory,
               unsigned Threads);

  BddManager Mgr;
  fpc::Evaluator Ev;
  fpc::IncrementalFixpoint Fix;

  /// Installs (or clears, with null) the resource governor the next
  /// `governed` query runs under. Not owned: the caller keeps it alive
  /// across that query.
  void setGovernor(support::ResourceGovernor *G) { Gov = G; }
  support::ResourceGovernor *governor() const { return Gov; }

  /// Runs \p Query with the governor installed on the manager, and only
  /// for its duration. A tripped limit stops it at a completed round
  /// boundary, where the state stays valid: a retry resumes the
  /// deterministic round chain bit-identically. Returns the limit that
  /// stopped the query (`None` when it ran through).
  template <typename Fn> support::ResourceLimit governed(Fn &&Query) {
    support::ResourceLimit Limit = support::ResourceLimit::None;
    Mgr.setGovernor(Gov);
    try {
      Query();
    } catch (const support::ResourceInterrupt &RI) {
      Limit = RI.Limit;
    }
    Mgr.setGovernor(nullptr);
    return Limit;
  }

  /// Frees the manager's computed cache and takes its share out of the
  /// gauge; solved state is kept (a performance valve, bit-identical
  /// results).
  void clearComputedCache();

  /// The memory gauge, as last sampled: BDD nodes reachable from what the
  /// state retains (garbage awaiting a collection excluded), the
  /// high-water mark of that count over the samples, and a bytes estimate
  /// of the resident state, computed caches charged as allocated. An
  /// estimate, not RSS: the signal a pool budgeting many sessions evicts
  /// on.
  struct Gauge {
    size_t LiveNodes = 0;
    size_t PeakLiveNodes = 0;
    size_t Bytes = 0;
  };
  Gauge gauge() const { return {Sample.Nodes, PeakLive, Sample.bytes()}; }

  /// Samples the gauge: one mark pass over the manager, the only one the
  /// state holds between queries. A session samples once when its inputs
  /// are bound and once at the end of every query, so reads are free and
  /// exact until the next query. \p Second, a second state the session
  /// owns, adds the sample it took itself: a query that did not run on it
  /// left it as it was.
  void sampleGauge(const SessionState *Second = nullptr);

private:
  support::ResourceGovernor *Gov = nullptr;
  BddGauge Sample;
  /// The high-water mark of `Sample.Nodes`. Allocation high-water
  /// (`BddStats::PeakNodes`) would also count uncollected garbage, which
  /// the retention diet deliberately produces more of in exchange for
  /// retaining far less.
  size_t PeakLive = 0;
};

} // namespace sym
} // namespace getafix

#endif // GETAFIX_SYMBOLIC_SOLVE_H
