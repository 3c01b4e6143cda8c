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
  SeqEngine(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg)
      : Cfg(Cfg), Alg(Alg), Factory(Sys) {
    buildSystem();
  }

  sym::SolveStats solve(unsigned ProcId, unsigned Pc,
                        const sym::SolveConfig &Config);
  std::string text() const { return Sys.print(); }

  /// Does the algorithm solve every relation without looking at the
  /// target? True for the all-entries summaries (`SummarySimple`,
  /// `SummaryScc`): one solve answers every query, so they are solved by
  /// `solveSummaries` instead of an early-stopping iteration of
  /// `mainRel()`.
  bool targetIndependent() const {
    return Alg == SeqAlgorithm::SummarySimple ||
           Alg == SeqAlgorithm::SummaryScc;
  }

  /// What a target-independent solve leaves for its queries.
  struct Reach {
    /// The reachable states: `Hits` for SummaryScc, `Summary ∧
    /// ReachEntry` for SummarySimple.
    Bdd States;
    /// Size of the summary: `SummaryAll` for SummaryScc, `Summary` for
    /// SummarySimple.
    size_t SummaryNodes = 0;
  };
  /// Solves a target-independent algorithm through `Evaluator::evaluate`
  /// of its two roots — `Hits` and `SummaryAll` for SummaryScc, `Summary`
  /// and `ReachEntry` for SummarySimple. The evaluator pre-solves every
  /// relation below a root callees-first (independent SCCs on its pool
  /// under `Threads > 1`) and keeps the rounds of any relation a governor
  /// stopped, so a retry on the same evaluator carries on bit-identically.
  Reach solveSummaries(fpc::Evaluator &Ev) const;

  // Accessors for witness reconstruction -----------------------------------
  const fpc::System &system() const { return Sys; }
  const sym::VarFactory &factory() const { return Factory; }
  sym::ProgramEncoder &encoder() { return *Enc; }
  const sym::ConfVars &conf() const { return S; }
  fpc::RelId mainRel() const { return Main; }
  SeqAlgorithm algorithm() const { return Alg; }
  const bp::ProgramCfg &cfg() const { return Cfg; }

  /// The relations whose rounds a solve reports: every defined relation
  /// under the split (the longest chain among them), else the main one.
  const std::vector<fpc::RelId> &roundRoots() const { return Roots; }
  /// See SolveStats::CondensationWidth / SummaryRelations.
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
  void buildSccSystem();

  // Clause builders shared by the algorithms. `Head` is the relation the
  // clause recurses on; `Mark` adds a leading fr-argument when >= 0.
  std::vector<fpc::Term> headArgs(const sym::ConfVars &C, int Mark) const;
  fpc::Formula *initClause(fpc::RelId Head, int Mark);
  fpc::Formula *internalClause(fpc::RelId Head, int Mark);
  fpc::Formula *entryDiscoveryClause(fpc::RelId Head, int Mark,
                                     bool RelevantGuard);
  /// The return clauses take the caller-side and callee-side summary
  /// heads separately: the paper's algorithms pass the same relation
  /// twice, the split passes `Summary_X` (caller group) and `Summary_Y`
  /// (callee group).
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

  // SummaryScc state.
  bp::CallGraph CG;
  std::vector<fpc::RelId> GroupSummary; ///< Summary_<proc>, by SCC index.
  std::vector<fpc::RelId> GroupEntry;   ///< ReachEntry_<proc>, by SCC index.
  fpc::RelId Hits = 0, SummaryAll = 0;
  std::vector<fpc::RelId> Roots;
  unsigned Width = 0;
  unsigned NumSummaryRels = 1;
};

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_SEQENGINE_H
