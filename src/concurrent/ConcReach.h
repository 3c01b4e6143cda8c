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

#include "bp/Cfg.h"
#include "support/ResourceGovernor.h"
#include "symbolic/Solve.h"

#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace conc {

/// The context-switch bound k a solve analyzes: `Rounds` full
/// round-robin rounds of \p NumThreads threads when set, else
/// `ContextBound`.
unsigned contextBound(const sym::SolveConfig &Config, unsigned NumThreads);

/// Is (Thread, ProcId, Pc) reachable within k context switches?
sym::SolveStats checkConcReachability(const bp::ConcurrentProgram &Conc,
                                      const std::vector<bp::ProgramCfg> &Cfgs,
                                      unsigned Thread, unsigned ProcId,
                                      unsigned Pc,
                                      const sym::SolveConfig &Config);

/// Builds one ProgramCfg per thread.
std::vector<bp::ProgramCfg> buildThreadCfgs(const bp::ConcurrentProgram &C);

/// The applications of `Reach` in the Section-5 system for \p Config,
/// printed as `System::printFormula` does, whose rename the solve's
/// variable layout does not keep in order
/// (`fpc::Evaluator::reorderingApplications`): the sites that build
/// renamed copies.
std::vector<std::string>
reorderingApplications(const bp::ConcurrentProgram &Conc,
                       const std::vector<bp::ProgramCfg> &Cfgs,
                       const sym::SolveConfig &Config);

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
              const sym::SolveConfig &Config);
  ~ConcSession();
  ConcSession(const ConcSession &) = delete;
  ConcSession &operator=(const ConcSession &) = delete;

  sym::SolveStats solve(unsigned Thread, unsigned ProcId, unsigned Pc);

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
  /// memory budget. Reads return the sample the session takes at
  /// construction and at the end of each query.
  size_t liveNodes() const;
  size_t peakLiveNodes() const;
  size_t memoryFootprint() const;

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
