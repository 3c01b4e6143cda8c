//===- SeqReach.h - Sequential reachability algorithms ----------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's three algorithms for reachability in recursive Boolean
/// programs, each *written as a fixed-point formula* (the paper's central
/// thesis) and solved by the fpcalc evaluator:
///
///   - `SummarySimple`   — Section 4.1: summaries from *all* entries
///     (sound/complete but explores unreachable entries), completed with a
///     reachable-entries fixpoint so arbitrary targets can be queried.
///   - `EntryForward`    — Section 4.2: init-restricted summaries with the
///     entry-discovery clause; only reachable states are ever represented.
///   - `EntryForwardSplit` — Section 4.2's rewrite of the return clause
///     that splits `Return` into ReturnA/ReturnB so the two large summary
///     BDDs are each first conjoined with small relations (the Appendix
///     formula).
///   - `EntryForwardOpt` — Section 4.3: the frontier-restricted algorithm
///     with the `fr` mark bit and the non-monotone `Relevant` relation,
///     closing internal transitions per round (`New1`) and admitting one
///     round of calls/returns (`New2`).
///
/// and one compilation of Section 4.1 that is not in the paper:
///
///   - `SummaryScc` — the all-entries summaries split per call-graph SCC:
///     one `Summary_<scc>` / `ReachEntry_<scc>` pair per SCC with the
///     Appendix return clause, so the system's dependency condensation is
///     as wide as the call graph and independent procedures can be
///     solved in parallel.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_SEQREACH_H
#define GETAFIX_REACH_SEQREACH_H

#include "bp/Cfg.h"
#include "support/ResourceGovernor.h"
#include "symbolic/Solve.h"

#include <memory>
#include <string>

namespace getafix {
namespace reach {

struct WitnessResult; // reach/Witness.h

enum class SeqAlgorithm {
  SummarySimple,
  EntryForward,
  EntryForwardSplit,
  EntryForwardOpt,
  SummaryScc,
};

/// Checks whether (ProcId, Pc) is reachable in \p Cfg's program, solving
/// \p Alg's equation system under \p Config.
sym::SolveStats checkReachability(const bp::ProgramCfg &Cfg, unsigned ProcId,
                                  unsigned Pc, SeqAlgorithm Alg,
                                  const sym::SolveConfig &Config);

/// Cross-query incremental solving over one program: the equation system,
/// BDD manager, evaluator memos, and the fixpoint rounds ("onion rings")
/// computed so far persist across queries. Each `solve` first *replays*
/// the recorded rounds against the new target — answering entirely from
/// state when an early stop would have fired within them — and only then
/// resumes live iteration where the last query left off. Because the
/// round sequence is deterministic and target-independent
/// (the early-stop target only decides *when to stop*, never what a round
/// computes), every query's verdict, iteration count, and round values are
/// bit-identical to a fresh `checkReachability` with the same options.
/// The caller keeps \p Cfg alive for the session's lifetime. Options are
/// fixed at construction; only the target varies per query.
class SeqSession {
public:
  SeqSession(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg,
             const sym::SolveConfig &Config);
  ~SeqSession();
  SeqSession(const SeqSession &) = delete;
  SeqSession &operator=(const SeqSession &) = delete;

  sym::SolveStats solve(unsigned ProcId, unsigned Pc);
  /// Witness query, matching `checkReachabilityWithWitness` (which solves
  /// the EntryForward system with ring recording): the session's witness
  /// sub-session solves that system once and extracts a trace per target.
  WitnessResult solveWithWitness(unsigned ProcId, unsigned Pc);

  /// Would a solve of (ProcId, Pc) — witness extraction included when
  /// \p Witness — be answered entirely from already-solved state, without
  /// evaluating new fixpoint rounds? (Batch drivers serve such targets
  /// first. Non-const: probing encodes the target over the session's
  /// manager.)
  bool answersFromState(unsigned ProcId, unsigned Pc, bool Witness = false);

  /// Installs (or clears, with null) a per-attempt resource governor on
  /// this session's solving state: the next solve runs under it and stops
  /// at a completed round boundary when a limit trips, leaving the
  /// session valid — a retry under a fresh (or no) governor resumes the
  /// deterministic chain bit-identically. The caller owns the governor
  /// and must keep it alive across the governed solve.
  void setGovernor(support::ResourceGovernor *G);

  /// Frees the computed caches of every BDD manager the session owns —
  /// main, parallel workers, witness sub-session (a pure performance
  /// valve for long-lived sessions under memory pressure); all solved
  /// state — summaries, rounds, memos — is kept and later queries remain
  /// bit-identical to fresh solves.
  void clearComputedCache();

  /// Session memory introspection, for callers that budget many resident
  /// sessions (the query server's pool). `liveNodes` counts *reachable*
  /// BDD nodes across the session's managers (main, witness sub-session,
  /// and parallel worker managers) — garbage awaiting the next collection
  /// is excluded, so the gauge reflects what the session actually
  /// retains, not how much the last solve churned. `peakLiveNodes` is the
  /// high-water mark of that retained count, sampled at query boundaries.
  /// `memoryFootprint` is a bytes estimate of the same resident state:
  /// reachable nodes times their storage share plus the computed caches
  /// as allocated (nothing for a cache `clearComputedCache` freed and no
  /// operation has re-allocated). Estimates, not RSS; they exist so
  /// an eviction policy has a monotone-ish signal, not for accounting.
  /// The session samples them once at construction and at the end of
  /// each query — one mark pass per manager — and every read returns
  /// that sample, which is exact until the next query: reads are free.
  size_t liveNodes() const;
  size_t peakLiveNodes() const;
  size_t memoryFootprint() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Renders the fixed-point equation system \p Alg solves for \p Cfg: the
/// paper's "one page of formulae". For documentation and golden tests.
std::string formulaText(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg);

/// The applications of defined relations in that system, printed as in
/// `formulaText`, whose rename the solve's variable layout does not keep
/// in order (`fpc::Evaluator::reorderingApplications`): the sites that
/// build renamed copies. The layout places each quantified copy next to
/// the formal it stands in for, so none should.
std::vector<std::string> reorderingApplications(const bp::ProgramCfg &Cfg,
                                                SeqAlgorithm Alg);

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_SEQREACH_H
