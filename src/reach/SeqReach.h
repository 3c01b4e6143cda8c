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
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_SEQREACH_H
#define GETAFIX_REACH_SEQREACH_H

#include "bdd/Bdd.h"
#include "bp/Cfg.h"
#include "fpcalc/Calculus.h"
#include "support/ResourceGovernor.h"

#include <cstdint>
#include <map>
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
};

const char *algorithmName(SeqAlgorithm Alg);

struct SeqOptions {
  SeqAlgorithm Alg = SeqAlgorithm::EntryForwardSplit;
  /// How the fixed-point solver iterates: semi-naive (the default, see
  /// `fpc::EvalStrategy`) or the paper's literal naive semantics. Both
  /// produce the identical per-round value sequence; the knob exists for
  /// ablation.
  fpc::EvalStrategy Strategy = fpc::EvalStrategy::SemiNaive;
  /// Stop iterating as soon as the target is found (the Appendix formula's
  /// early-termination disjunct, implemented at the solver level).
  bool EarlyStop = true;
  /// Cap on outer fixpoint rounds of the queried relation; 0 = unlimited.
  uint64_t MaxIterations = 0;
  /// Automatic garbage-collection threshold (live nodes); 0 disables.
  size_t GcThreshold = 1u << 22;
  /// Session mode (`SeqSession`): reuse rounds and summaries solved by
  /// earlier queries. Off = every query re-solves from scratch (ablation /
  /// differential-testing baseline). One-shot solves ignore this.
  bool ReuseSolvedState = true;
  /// Worker threads for the evaluator's parallel SCC scheduling (1 =
  /// sequential). Independent dependency SCCs of the fixpoint system are
  /// solved on a work-stealing pool over per-worker BDD managers;
  /// verdicts, rounds, and witnesses are bit-identical at any setting.
  /// Only one-shot solves of the split system reach the pool today: a
  /// `SeqSession` resumes the split chain callees-first, and the
  /// monolithic systems never leave two SCCs pending.
  unsigned Threads = 1;
  /// Session / witness ring retention (see fpc::RingLog): recorded rounds
  /// are stored as exact deltas with a full keyframe every this many
  /// rounds, bounding both retained nodes and ring-reconstitution cost.
  /// 1 keeps every round full (the pre-diet baseline); 0 keeps only the
  /// first round full (maximal compression). Purely a memory knob —
  /// verdicts, rounds, and witnesses are bit-identical at any value.
  uint64_t RingKeyframeInterval = 8;
  /// Resource governor for this solve attempt (deadline / node budget /
  /// cancel flag; see support/ResourceGovernor.h). Not owned; governors
  /// are one-shot — install a fresh one per attempt. A tripped limit is
  /// reported in `SeqResult::Limit` with the state stopped at a completed
  /// round boundary, so a retry resumes the deterministic chain
  /// bit-identically. Null = ungoverned.
  support::ResourceGovernor *Governor = nullptr;
  /// Compile the single whole-program summary relation of the paper's
  /// formulae instead of the default per-procedure split (one
  /// `Summary_<proc>` relation per call-graph SCC, giving the evaluator's
  /// DAG scheduler call-graph-wide parallelism). Verdicts, witnesses, and
  /// per-query answers are identical either way; round counts and the
  /// early-stop behaviour differ (the split always solves the full
  /// fixpoint — per-relation work replaces the monolithic early out).
  /// Escape hatch for A/B comparison (`--monolithic-summary`).
  bool MonolithicSummary = false;
};

struct SeqResult {
  bool Reachable = false;
  bool TargetFound = true;   ///< False if the label did not exist.
  /// Which governor limit stopped the solve (`None` = ran to completion).
  /// When set, `Reachable` and the iteration counts reflect only the
  /// completed rounds; other counters still cover the work done.
  support::ResourceLimit Limit = support::ResourceLimit::None;
  /// The solver stopped at SeqOptions::MaxIterations before converging;
  /// `Reachable` then only reflects the states found so far.
  bool HitIterationLimit = false;
  uint64_t Iterations = 0;   ///< Outer fixpoint rounds of the main relation.
  uint64_t DeltaRounds = 0;  ///< Semi-naive rounds after the first.
  size_t SummaryNodes = 0;   ///< Dag size of the final summary BDD.
  /// BDD-manager counters: nodes created, peak nodes, computed-cache
  /// probes and hits (per-op split), GC reclaim totals.
  BddStats Bdd;
  double Seconds = 0.0;      ///< Wall-clock solve time (excludes parsing).
  /// Per-relation evaluator statistics, keyed by relation name.
  std::map<std::string, fpc::RelStats> Relations;
  /// Session mode only: fixpoint rounds of this query that were served
  /// from state persisted by earlier queries, vs rounds newly evaluated.
  /// A one-shot solve reports (0, Iterations).
  uint64_t SummariesReused = 0;
  uint64_t SummariesRecomputed = 0;
  /// Dependency SCCs solved on the worker pool (`Threads > 1` only; the
  /// per-worker BDD counters are folded into `Bdd` via BddStats::merge).
  uint64_t SccsSolvedParallel = 0;
  /// BDD nodes the cached importers translated across manager boundaries
  /// while seeding and exporting those SCC tasks.
  uint64_t ImportedNodes = 0;
  /// Width of the solved fixpoint condensation: the number of independent
  /// solve units the evaluator's DAG scheduler had to play with. Under
  /// the per-procedure split this equals the program's call-graph SCC
  /// count; the monolithic compilation reports the (1–4 wide) relation
  /// condensation of the paper's formulae.
  unsigned CondensationWidth = 0;
  /// Number of summary relations compiled (call-graph SCCs under the
  /// split, 1 monolithic).
  unsigned SummaryRelations = 0;
};

/// Checks whether (ProcId, Pc) is reachable in \p Cfg's program.
SeqResult checkReachability(const bp::ProgramCfg &Cfg, unsigned ProcId,
                            unsigned Pc, const SeqOptions &Opts);

/// Checks whether the statement labelled \p Label is reachable.
SeqResult checkReachabilityOfLabel(const bp::ProgramCfg &Cfg,
                                   const std::string &Label,
                                   const SeqOptions &Opts);

/// Cross-query incremental solving over one program: the equation system,
/// BDD manager, evaluator memos, and the fixpoint rounds ("onion rings")
/// computed so far persist across queries. Each `solve` first *replays*
/// the recorded rounds against the new target — answering entirely from
/// state when an early stop (or the iteration cap) would have fired within
/// them — and only then resumes live iteration where the last query left
/// off. Because the round sequence is deterministic and target-independent
/// (the early-stop target only decides *when to stop*, never what a round
/// computes), every query's verdict, iteration count, and round values are
/// bit-identical to a fresh `checkReachability` with the same options.
/// The caller keeps \p Cfg alive for the session's lifetime. Options are
/// fixed at construction; only the target varies per query.
class SeqSession {
public:
  SeqSession(const bp::ProgramCfg &Cfg, const SeqOptions &Opts);
  ~SeqSession();
  SeqSession(const SeqSession &) = delete;
  SeqSession &operator=(const SeqSession &) = delete;

  SeqResult solve(unsigned ProcId, unsigned Pc);
  /// Label query; `TargetFound` false when the label does not exist.
  SeqResult solveLabel(const std::string &Label);
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

  const SeqOptions &options() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Renders the fixed-point equation system the given algorithm would solve
/// for \p Cfg in its *monolithic* compilation (the paper's "one page of
/// formulae"), for documentation and golden tests.
std::string formulaText(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg);

/// Options-aware variant: renders the system \p Opts would actually solve,
/// including the per-procedure split compilation when
/// `Opts.MonolithicSummary` is false.
std::string formulaText(const bp::ProgramCfg &Cfg, const SeqOptions &Opts);

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_SEQREACH_H
