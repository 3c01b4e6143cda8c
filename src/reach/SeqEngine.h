//===- SeqEngine.h - Shared sequential-engine internals ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header shared by SeqReach.cpp and Witness.cpp: the engine that
/// builds the fixed-point equation system for one sequential algorithm over
/// one program. Not part of the public API — include bp/Cfg.h and
/// reach/SeqReach.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_SEQENGINE_H
#define GETAFIX_REACH_SEQENGINE_H

#include "reach/SeqReach.h"
#include "symbolic/Encode.h"

#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace reach {

/// Builds the equation system for one algorithm over one program and runs
/// the solver. Witness extraction (Witness.cpp) reuses the construction to
/// re-solve with ring recording and query the input-relation BDDs.
class SeqEngine {
public:
  /// \p SplitSummaries selects the per-procedure compilation: one
  /// `Summary_<proc>` / `ReachEntry_<proc>` relation pair per call-graph
  /// SCC plus the `Hits` / `SummaryAll` roots, instead of the paper's
  /// single whole-program summary relation. The witness extractor always
  /// builds the monolithic EntryForward system (its ring walk is defined
  /// over one relation), hence the default.
  SeqEngine(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg,
            bool SplitSummaries = false)
      : Cfg(Cfg), Alg(Alg), Split(SplitSummaries), Factory(Sys) {
    buildSystem();
  }

  SeqResult solve(unsigned ProcId, unsigned Pc, const SeqOptions &Opts);
  std::string text() const { return Sys.print(); }

  // Accessors for witness reconstruction -----------------------------------
  const fpc::System &system() const { return Sys; }
  const sym::VarFactory &factory() const { return Factory; }
  sym::ProgramEncoder &encoder() { return *Enc; }
  const sym::ConfVars &conf() const { return S; }
  fpc::RelId mainRel() const { return Main; }
  /// SummarySimple's reachable-entries relation (0 for other algorithms).
  fpc::RelId reachEntryRel() const { return ReachEntry; }
  SeqAlgorithm algorithm() const { return Alg; }
  const bp::ProgramCfg &cfg() const { return Cfg; }

  // Per-procedure split (SplitSummaries) ------------------------------------
  bool split() const { return Split; }
  /// Split mode: `Hits = ⋁_X Summary_X ∧ ReachEntry_X` — the verdict root.
  fpc::RelId hitsRel() const { return Hits; }
  /// Split mode: `SummaryAll = ⋁_X Summary_X` — the union the stats (and
  /// the differential tests' bit-identity check) report on.
  fpc::RelId summaryAllRel() const { return SummaryAll; }
  /// Every defined relation in callees-first (dependency-topological)
  /// order — the resume chain sessions and capped solves drive.
  const std::vector<fpc::RelId> &solveOrder() const { return Order; }
  /// See SeqResult::CondensationWidth / SummaryRelations.
  unsigned condensationWidth() const { return Width; }
  unsigned summaryRelations() const { return NumSummaryRels; }
  const bp::CallGraph &callGraph() const { return CG; }

  /// Scratch variables of the return clause (t.*, u.*) and the entry-
  /// discovery clause (d.*); witness queries rebind relation BDDs onto
  /// them so joint predecessor queries can be expressed directly.
  struct ScratchVars {
    fpc::VarId TPc, TCL, TCG;
    fpc::VarId UMod, UPcX, ULX, UGX, UECL;
    fpc::VarId DMod, DPc, DL, DEL, DEG;
  };
  ScratchVars scratch() const {
    return {RTPc,  RTCL, RTCG, RUMod, RUPcX, RULX, RUGX,
            RUECL, DMod, DPc,  DL,    DEL,   DEG};
  }

private:
  void buildSystem();
  void buildSplitSystem();

  // Clause builders shared by the algorithms. `Head` is the relation the
  // clause recurses on; `Mark` adds a leading fr-argument when >= 0.
  std::vector<fpc::Term> headArgs(const sym::ConfVars &C, int Mark) const;
  fpc::Formula *initClause(fpc::RelId Head, int Mark);
  fpc::Formula *internalClause(fpc::RelId Head, int Mark);
  fpc::Formula *entryDiscoveryClause(fpc::RelId Head, int Mark,
                                     bool RelevantGuard);
  /// The return clauses take the caller-side and callee-side summary
  /// heads separately: monolithic callers pass the same relation twice,
  /// the split passes `Summary_X` (caller group) and `Summary_Y` (callee
  /// group).
  fpc::Formula *returnClauseUnsplit(fpc::RelId CallerHead,
                                    fpc::RelId CalleeHead, int Mark);
  fpc::Formula *returnClauseSplit(fpc::RelId CallerHead,
                                  fpc::RelId CalleeHead, int Mark,
                                  bool RelevantGuard);
  fpc::Formula *allEntriesClause();
  /// `⋁_{p ∈ SCC Scc} s.mod = p` — pins a split relation to its group.
  fpc::Formula *modInGroup(unsigned Scc);

  const bp::ProgramCfg &Cfg;
  SeqAlgorithm Alg;
  bool Split = false;
  fpc::System Sys;
  sym::VarFactory Factory;
  sym::StateDomains Doms;
  fpc::DomainId ChoiceDom = 0;
  std::unique_ptr<sym::ProgramEncoder> Enc;

  sym::ConfVars S;                     ///< Head state tuple.
  fpc::VarId Fr = 0;                   ///< Mark bit (EntryForwardOpt).
  fpc::VarId RvMod = 0, RvPc = 0;      ///< Relevant's formals.

  // Quantified temporaries.
  fpc::VarId TPcF = 0, TLF = 0, TGF = 0;          ///< Internal clause.
  fpc::VarId DMod = 0, DPc = 0, DL = 0, DEL = 0,
             DEG = 0;                             ///< Entry discovery.
  fpc::VarId RTPc = 0, RTCL = 0, RTCG = 0;        ///< Return: caller t.
  fpc::VarId RUMod = 0, RUPcX = 0, RULX = 0, RUGX = 0,
             RUECL = 0;                           ///< Callee u.

  fpc::RelId Main = 0;     ///< The head relation of the chosen algorithm.
  fpc::RelId Relevant = 0; ///< EntryForwardOpt only.
  fpc::RelId New1 = 0, New2 = 0;
  fpc::RelId ReachEntry = 0; ///< SummarySimple only.

  // Split mode state.
  bp::CallGraph CG;
  std::vector<fpc::RelId> GroupSummary; ///< Summary_<proc>, by SCC index.
  std::vector<fpc::RelId> GroupEntry;   ///< ReachEntry_<proc>, by SCC index.
  fpc::RelId Hits = 0, SummaryAll = 0;
  std::vector<fpc::RelId> Order;
  unsigned Width = 0;
  unsigned NumSummaryRels = 1;
};

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_SEQENGINE_H
