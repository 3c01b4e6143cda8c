//===- SeqEngine.h - Shared sequential-engine internals ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header shared by SeqReach.cpp and Witness.cpp: the engine that
/// builds the fixed-point equation system for one sequential algorithm over
/// one program, and the witness extractor that walks an entry-forward
/// engine's recorded rounds. Not part of the public API — include
/// bp/Cfg.h, reach/SeqReach.h and reach/Witness.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_REACH_SEQENGINE_H
#define GETAFIX_REACH_SEQENGINE_H

#include "reach/SeqReach.h"
#include "reach/Witness.h"
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

  /// Binds the encoder's input relations into \p Ev: `ProgramEncoder::bind`,
  /// plus the unsplit `setReturn` when this system applies it.
  void bindInputs(fpc::Evaluator &Ev);

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
  fpc::Formula *initClause();
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

  /// Some clause applies the unsplit `setReturn` (`returnClauseUnsplit`).
  bool UnsplitReturn = false;

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

/// Completes the entry-forward fixpoint with ring recording and
/// reconstructs runs backwards through the rings. The solve is
/// target-independent, so one extractor serves any number of target
/// queries; the one-shot `checkReachabilityWithWitness` is a single-query
/// instance.
///
/// It walks an EntryForward (or EntryForwardSplit) engine's main relation
/// over a solving state whose inputs that engine has bound, and completes
/// the state's recorded fixpoint in place, under the state's governor. An
/// `ef` or `ef-split` session hands it its own engine and state, so its
/// witness and plain queries share one solve and one copy of every round.
class WitnessExtractor {
public:
  WitnessExtractor(SeqEngine &Engine, sym::SessionState &St);

  WitnessResult query(unsigned ProcId, unsigned Pc);

  /// Has the ring-recording solve run? Once true, every query is a pure
  /// extraction from recorded state.
  bool solved() const { return SolveDone; }

private:
  /// A state within one procedure instance (module and entry valuation
  /// are tracked by the caller).
  struct InstState {
    unsigned Pc = 0;
    uint64_t Locals = 0;
    uint64_t Globals = 0;

    bool operator==(const InstState &O) const {
      return Pc == O.Pc && Locals == O.Locals && Globals == O.Globals;
    }
  };

  /// Runs the ring-recording solve on first use and snapshots the
  /// target-independent result fields (ring count, counters, stats).
  void ensureSolved();
  /// Reads the ring-recording solve's counters out into \p Out. They count
  /// from zero, so on a session's state they cover all rounds of the
  /// session's one solve, whichever query drove them. `Iterations` is the
  /// number of rounds recorded.
  void readOut(sym::SolveStats &Out);
  Bdd eq(fpc::VarId V, uint64_t Value) {
    return St.Ev.encodeEqConst(V, Value);
  }

  /// Renames a relation BDD from one set of calculus variables to another
  /// (entries with identical bits are skipped).
  Bdd renamed(Bdd Value,
              const std::vector<std::pair<fpc::VarId, fpc::VarId>> &FromTo);
  uint64_t decode(const std::vector<int8_t> &Path, fpc::VarId V) const;

  /// The summary tuple (Mod, Pc, CL, CG, ECL, ECG) as a concrete BDD cube.
  Bdd tuple(unsigned Mod, const InstState &At, uint64_t EntryL,
            uint64_t EntryG);

  /// Index of the first ring containing \p T. A tuple drawn from solved
  /// state that no recorded ring contains breaks the backward walk's
  /// well-foundedness, so it is a hard diagnostic error (an engine
  /// invariant violation), not a recoverable miss.
  size_t rankOf(const Bdd &T) const;

  bool isInitSeed(unsigned Mod, uint64_t EntryL);

  /// Finds an internal-transition predecessor of \p To within \p Ring for
  /// the instance (Mod, EntryL, EntryG). Returns false if none exists.
  bool internalPred(const Bdd &Ring, unsigned Mod, uint64_t EntryL,
                    uint64_t EntryG, const InstState &To, InstState &From);

  /// Finds a call-skip predecessor of \p To: the caller state \p From plus
  /// the callee instance/exit it skipped over, all within \p Ring.
  struct SkipInfo {
    unsigned CalleeMod = 0;
    uint64_t CalleeEntryL = 0;
    InstState CalleeExit;
  };
  bool skipPred(const Bdd &Ring, unsigned Mod, uint64_t EntryL,
                uint64_t EntryG, const InstState &To, InstState &From,
                SkipInfo &Skip);

  /// Appends the steps of a run segment inside one procedure instance,
  /// from just after its entry up to and including \p Target (the entry
  /// state itself is emitted by the caller). Returns false on
  /// reconstruction failure (which indicates an engine bug).
  bool appendProcPath(unsigned Mod, uint64_t EntryL, uint64_t EntryG,
                      const InstState &Target);

  /// Appends the steps reaching the entry (Mod, EntryL, EntryG) — the
  /// init step for main, or recursively the caller's run plus a call step.
  bool appendEntryChain(unsigned Mod, uint64_t EntryL, uint64_t EntryG);

  SeqEngine &Engine;
  /// The manager, evaluator and recorded fixpoint the walk reads. The
  /// fixpoint's persistent state lets an interrupted solve resume from its
  /// last completed round (the rings recorded so far stay valid) instead
  /// of re-recording from scratch.
  sym::SessionState &St;
  bool SolveDone = false; ///< The ring solve ran to its stopping point.
  sym::ConfVars S;
  SeqEngine::ScratchVars X;
  const sym::ProgramEncoder::FormalSets &F;
  std::vector<WitnessStep> Steps;

  // Persisted across queries, filled by ensureSolved.
  Bdd Solved;           ///< Final value of the summary relation.
  Bdd TargetDomains;    ///< Domain constraints of the target coordinates.
  sym::SolveStats Base; ///< Target-independent result fields.
};

} // namespace reach
} // namespace getafix

#endif // GETAFIX_REACH_SEQENGINE_H
