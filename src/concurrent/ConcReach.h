//===- ConcReach.h - Bounded context-switching reachability -----*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section-5 fixed-point formulation of k-bounded
/// context-switching reachability for concurrent recursive Boolean
/// programs. The relation
///
///   Reach(u, v, ecs, cs, g_1..g_k, t_0..t_k)
///
/// is a *per-thread summary* tagged with the context-switch count `cs`, the
/// count at the current procedure's entry `ecs`, the shared-global
/// valuation g_i recorded at each switch, and the thread schedule t_i. The
/// salient feature reproduced here is the tuple economy: only k+1 copies of
/// the shared globals appear (g_1..g_k plus v's globals), versus the up-to-
/// 3k copies of the Lal–Reps formulation the paper compares against.
///
/// The six clauses (init, internal, call, return, first-switch,
/// switch-back) follow the paper exactly, instantiated per context index
/// (the calculus has no vector indexing, so `t_cs` becomes a disjunction
/// over cs = 0..k — the same expansion a MUCKE encoding performs).
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_CONCURRENT_CONCREACH_H
#define GETAFIX_CONCURRENT_CONCREACH_H

#include "bdd/Bdd.h"
#include "bp/Cfg.h"
#include "fpcalc/Calculus.h"
#include "support/ResourceGovernor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace conc {

struct ConcOptions {
  unsigned MaxContextSwitches = 2; ///< The bound k.
  /// Fixes the schedule to round-robin order (t_i = i mod n) — the setting
  /// of the paper's Section-5 closing remark and of Lal–Reps [12]. k
  /// context switches then cover ceil((k+1)/n) rounds. The schedule
  /// variables become constants, which is exactly the space economy the
  /// remark's 2k-copy formulation exploits; reachability within the
  /// round-robin schedule is unchanged.
  bool RoundRobin = false;
  bool EarlyStop = true;
  /// Fixed-point iteration scheme; the Section-5 Reach system is
  /// monotone, so the semi-naive default evaluates its seed clause once
  /// and unions the recursive clauses into each round.
  fpc::EvalStrategy Strategy = fpc::EvalStrategy::SemiNaive;
  /// Cap on outer fixpoint rounds of Reach; 0 = unlimited.
  uint64_t MaxIterations = 0;
  size_t GcThreshold = 1u << 22;
  /// Session mode (`ConcSession`): reuse rounds solved by earlier
  /// queries. Off = every query re-solves from scratch (ablation /
  /// differential baseline). One-shot solves ignore this.
  bool ReuseSolvedState = true;
  /// Worker threads for the evaluator's parallel SCC scheduling (1 =
  /// sequential). Results are bit-identical at any setting.
  unsigned Threads = 1;
  /// Session ring retention (see fpc::RingLog): recorded rounds are
  /// stored as exact deltas with a full keyframe every this many rounds.
  /// 1 keeps every round full (the pre-diet baseline); 0 keeps only the
  /// first round full. Purely a memory knob — results are bit-identical
  /// at any value.
  uint64_t RingKeyframeInterval = 8;
  /// Resource governor for this solve attempt (deadline / node budget /
  /// cancel flag; see support/ResourceGovernor.h). Not owned; governors
  /// are one-shot — install a fresh one per attempt. A tripped limit is
  /// reported in `ConcResult::Limit` with the state stopped at a
  /// completed round boundary, so a retry resumes the deterministic chain
  /// bit-identically. Null = ungoverned.
  support::ResourceGovernor *Governor = nullptr;
};

struct ConcResult {
  bool Reachable = false;
  bool TargetFound = true;
  /// Which governor limit stopped the solve (`None` = ran to completion).
  /// When set, `Reachable` and the iteration counts reflect only the
  /// completed rounds; other counters still cover the work done.
  support::ResourceLimit Limit = support::ResourceLimit::None;
  /// Stopped at ConcOptions::MaxIterations before converging.
  bool HitIterationLimit = false;
  uint64_t Iterations = 0;
  uint64_t DeltaRounds = 0; ///< Semi-naive rounds of Reach after the first.
  size_t ReachNodes = 0;    ///< Final BDD size of the Reach relation.
  /// BDD-manager counters (nodes created, peak nodes, per-op cache split,
  /// GC).
  BddStats Bdd;
  double ReachStates = 0.0; ///< Sat-count of Reach over its tuple bits
                            ///< (the "reachable set size" of Figure 3).
  double Seconds = 0.0;
  /// Per-relation evaluator statistics, keyed by relation name.
  std::map<std::string, fpc::RelStats> Relations;
  /// Session mode only: fixpoint rounds served from state persisted by
  /// earlier queries, vs rounds newly evaluated for this query.
  uint64_t SummariesReused = 0;
  uint64_t SummariesRecomputed = 0;
  /// Dependency SCCs solved on the worker pool (`Threads > 1` only).
  uint64_t SccsSolvedParallel = 0;
  /// Width of the equation system's dependency condensation. The
  /// concurrent encoding cannot adopt the sequential engines' per-procedure
  /// summary split — its context-switch clauses read every thread's
  /// summary, so all Summary/Reach relations form one dependency SCC and
  /// the split would not decompose it. (A genuine widening would need a
  /// per-(thread, context) relation family; the seam is the clause builder
  /// in ConcReach.cpp.) Reported honestly from the dependency analysis.
  unsigned CondensationWidth = 0;
  /// Always 1: one whole-program summary relation per thread group.
  unsigned SummaryRelations = 1;
  /// Nodes the cached importers translated across managers for SCC tasks.
  uint64_t ImportedNodes = 0;
};

/// Is (Thread, ProcId, Pc) reachable within k context switches?
ConcResult checkConcReachability(const bp::ConcurrentProgram &Conc,
                                 const std::vector<bp::ProgramCfg> &Cfgs,
                                 unsigned Thread, unsigned ProcId,
                                 unsigned Pc, const ConcOptions &Opts);

/// Label-based query; searches all threads for the label.
ConcResult checkConcReachabilityOfLabel(
    const bp::ConcurrentProgram &Conc,
    const std::vector<bp::ProgramCfg> &Cfgs, const std::string &Label,
    const ConcOptions &Opts);

/// Builds one ProgramCfg per thread.
std::vector<bp::ProgramCfg> buildThreadCfgs(const bp::ConcurrentProgram &C);

/// Cross-query incremental solving of the Section-5 Reach fixpoint over
/// one concurrent program: the equation system, BDD manager, and the
/// rounds computed so far persist across queries. Each `solve` replays the
/// recorded rounds against the new target (the early-stop target only
/// decides when iteration stops; round values are target-independent) and
/// resumes live iteration only when the answer needs rounds beyond the
/// recorded state — so verdicts, iteration counts, and reachable-set
/// statistics are bit-identical to fresh `checkConcReachability` calls.
/// The caller keeps \p Conc and \p Cfgs alive for the session's lifetime;
/// options (including the context bound) are fixed at construction.
class ConcSession {
public:
  ConcSession(const bp::ConcurrentProgram &Conc,
              const std::vector<bp::ProgramCfg> &Cfgs,
              const ConcOptions &Opts);
  ~ConcSession();
  ConcSession(const ConcSession &) = delete;
  ConcSession &operator=(const ConcSession &) = delete;

  ConcResult solve(unsigned Thread, unsigned ProcId, unsigned Pc);
  /// Label query; searches all threads. `TargetFound` false when absent.
  ConcResult solveLabel(const std::string &Label);

  /// Would a solve of this target be answered entirely from already-solved
  /// rounds? (Non-const: probing encodes the target over the session's
  /// manager.)
  bool answersFromState(unsigned Thread, unsigned ProcId, unsigned Pc);

  /// Installs (or clears, with null) a per-attempt resource governor: the
  /// next solve runs under it and stops at a completed round boundary
  /// when a limit trips, leaving the session valid — a retry under a
  /// fresh (or no) governor resumes the deterministic chain
  /// bit-identically. The caller owns the governor and must keep it alive
  /// across the governed solve.
  void setGovernor(support::ResourceGovernor *G);

  /// Frees the computed caches of every BDD manager the session owns
  /// (main and parallel workers); all solved state is kept (performance
  /// valve, bit-identical results).
  void clearComputedCache();

  /// Session memory introspection (see `reach::SeqSession` for the exact
  /// semantics): reachable-only live/peak BDD node counts across the
  /// session's managers (uncollected garbage excluded; peak sampled at
  /// query boundaries) and a bytes estimate of resident state, computed
  /// caches charged as allocated. Feeds the query server's session-pool
  /// memory budget.
  size_t liveNodes() const;
  size_t peakLiveNodes() const;
  size_t memoryFootprint() const;

  const ConcOptions &options() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The context-switch bound covering \p Rounds full round-robin rounds of
/// \p Threads threads (each round runs every thread once, in order).
/// Zero arguments are clamped to one — defined behavior in every build
/// mode, where `0 * N - 1` used to underflow to ~4 billion context
/// switches under NDEBUG.
inline unsigned contextSwitchesForRounds(unsigned Rounds, unsigned Threads) {
  if (Rounds < 1)
    Rounds = 1;
  if (Threads < 1)
    Threads = 1;
  return Rounds * Threads - 1;
}

} // namespace conc
} // namespace getafix

#endif // GETAFIX_CONCURRENT_CONCREACH_H
