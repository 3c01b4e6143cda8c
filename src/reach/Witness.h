//===- Witness.h - Counterexample extraction --------------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counterexample (witness trace) extraction for sequential reachability —
/// the feature the paper's conclusions list as planned work ("we plan to
/// adapt [MUCKE] to report readable counter-examples for reachability").
///
/// The extractor re-solves the entry-forward fixed-point while recording
/// the per-round "onion rings" of the summary relation, then reconstructs a
/// concrete interprocedural run backwards: every tuple first present in
/// ring r was produced by the equation body from tuples in ring r-1, so
/// walking predecessors within the previous ring is well-founded — both for
/// the step chain inside one procedure instance and for the recursive
/// expansion of call-skip steps and entry-discovery call chains.
///
/// The result is a flat run of the program: Init at main's entry, then
/// Internal / Call / Return steps, ending at the target. `verifyWitness`
/// replays the trace against the *explicit* statement semantics (an
/// independent implementation), which is how the tests pin the extractor.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_WITNESS_H
#define GETAFIX_REACH_WITNESS_H

#include "bp/Cfg.h"
#include "reach/SeqReach.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace getafix {

namespace fpc {
class Evaluator;
class IncrementalFixpoint;
} // namespace fpc

namespace reach {

class SeqEngine; // reach/SeqEngine.h (internal)

enum class WitnessStepKind {
  Init,     ///< The run starts here (main's entry).
  Internal, ///< An assume/assign move within the current procedure.
  Call,     ///< Enters a callee (state is the callee's entry).
  Return,   ///< Returns to the caller (state is the resume point).
};

/// One state of the reconstructed run: the program point reached by the
/// step plus the full variable valuations (bit i of Locals/Globals is
/// variable slot i, matching the interp module's convention).
struct WitnessStep {
  WitnessStepKind Kind = WitnessStepKind::Internal;
  unsigned ProcId = 0;
  unsigned Pc = 0;
  uint64_t Locals = 0;
  uint64_t Globals = 0;
};

/// A witness query's answer: the ring-recording solve's statistics, plus
/// the reconstructed run when the target is reachable. That solve always
/// runs the EntryForward system, so `SummaryRelations` is 1 and
/// `CondensationWidth` is that system's relation condensation, whatever
/// engine answers the plain queries; `Iterations` counts the rounds recorded
/// (the saturating round adds no ring). When a limit stops the solve, no
/// trace is extracted.
struct WitnessResult : sym::SolveStats {
  std::vector<WitnessStep> Steps; ///< Empty when unreachable.
};

/// Decides reachability of (ProcId, Pc) and, when reachable, extracts a
/// concrete run witnessing it. Always runs the entry-forward algorithm to
/// a full fixpoint (no early stop), so it is slower than
/// checkReachability; use it after a positive answer.
WitnessResult checkReachabilityWithWitness(const bp::ProgramCfg &Cfg,
                                           unsigned ProcId, unsigned Pc,
                                           const sym::SolveConfig &Config);

/// Cross-query witness extraction over one program. The ring-recording
/// solve is target-independent (it always runs the entry-forward system to
/// its full fixpoint), so a session solves it once and reconstructs a
/// trace per queried target by walking the recorded rings — each query's
/// verdict, ring count, and trace are bit-identical to a fresh
/// `checkReachabilityWithWitness` with the same options. The caller keeps
/// \p Cfg alive for the session's lifetime.
class WitnessSession {
public:
  WitnessSession(const bp::ProgramCfg &Cfg, const sym::SolveConfig &Config);
  /// Borrowed mode: extract witnesses from an *owning session's* solver
  /// state instead of running a second solve. \p Engine must be an
  /// entry-forward (or entry-forward-split) engine whose main relation
  /// records its rounds into \p Fix — the extractor completes that
  /// fixpoint in place (one solve per session, ever) and walks its rings.
  /// The caller keeps all four references alive for the session's
  /// lifetime and serializes queries against its own use of \p Mgr.
  /// `gauge`/`peakLiveNodes` report 0 in this mode (the owner already
  /// counts the shared manager) and `clearComputedCache` is a no-op (the
  /// owner's valve clears it).
  WitnessSession(SeqEngine &Engine, BddManager &Mgr, fpc::Evaluator &Ev,
                 fpc::IncrementalFixpoint &Fix,
                 const sym::SolveConfig &Config);
  ~WitnessSession();
  WitnessSession(const WitnessSession &) = delete;
  WitnessSession &operator=(const WitnessSession &) = delete;

  WitnessResult query(unsigned ProcId, unsigned Pc);

  /// Has the (lazy) ring-recording solve run? Once true, every query is a
  /// pure extraction from recorded state.
  bool solved() const;

  /// Per-attempt resource governor for the next query (null = ungoverned;
  /// see SeqSession::setGovernor). An interrupted ring-recording solve
  /// keeps its completed rounds and resumes bit-identically on retry.
  void setGovernor(support::ResourceGovernor *G);

  /// Frees the computed caches of the extractor's BDD managers (its own
  /// and its evaluator's parallel workers); solved rings are kept
  /// (performance valve, bit-identical results).
  void clearComputedCache();

  /// The memory gauges of the extractor's own BDD managers — reachable
  /// nodes and the estimated bytes of resident state, computed caches
  /// charged as allocated — as sampled at the end of the last query (one
  /// mark pass per manager; all zero before the first), and the
  /// high-water mark of the node count over those samples. The gauge
  /// feeds the owning session's `memoryFootprint`.
  BddGauge gauge() const;
  size_t peakLiveNodes() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Replays \p Steps against the explicit statement semantics. Checks that
/// the run starts at main's entry, every step is a valid transition (for
/// some resolution of `*` choices), call/return nesting is consistent, and
/// the run ends at (TargetProcId, TargetPc). On failure returns false and,
/// when \p Error is non-null, stores a description.
bool verifyWitness(const bp::ProgramCfg &Cfg,
                   const std::vector<WitnessStep> &Steps,
                   unsigned TargetProcId, unsigned TargetPc,
                   std::string *Error = nullptr);

/// Renders a trace for CLI output: one line per step with procedure names,
/// PCs, labels when present, and variable valuations.
std::string formatWitness(const bp::ProgramCfg &Cfg,
                          const std::vector<WitnessStep> &Steps);

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_WITNESS_H
