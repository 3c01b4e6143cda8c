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
#include <string>
#include <vector>

namespace getafix {
namespace reach {

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
/// checkReachability; use it after a positive answer. Sessions answer the
/// same query through `SeqSession::solveWithWitness`, which solves the
/// ring-recording fixpoint once and walks it for every target.
WitnessResult checkReachabilityWithWitness(const bp::ProgramCfg &Cfg,
                                           unsigned ProcId, unsigned Pc,
                                           const sym::SolveConfig &Config);

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
