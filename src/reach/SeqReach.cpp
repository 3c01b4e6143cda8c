//===- SeqReach.cpp - Sequential reachability algorithms ------------------===//

#include "reach/SeqReach.h"

#include "fpcalc/Evaluator.h"
#include "reach/SeqEngine.h"
#include "reach/Witness.h"
#include "symbolic/Encode.h"

#include <algorithm>
#include <optional>

using namespace getafix;
using namespace getafix::reach;
using namespace getafix::fpc;
using namespace getafix::sym;

std::vector<Term> SeqEngine::headArgs(const ConfVars &C, int Mark) const {
  std::vector<Term> Args;
  if (Mark >= 0)
    Args.push_back(Mark == 2 ? Term::var(Fr) : Term::constant(Mark));
  for (VarId V : {C.Mod, C.Pc, C.CL, C.CG, C.ECL, C.ECG})
    Args.push_back(Term::var(V));
  return Args;
}

/// [Init] fr=1 ∧ Init(s.mod, s.pc, s.CL) ∧ s.CL=s.ECL ∧ s.CG=s.ECG.
Formula *SeqEngine::initClause(RelId Head, int Mark) {
  (void)Head;
  (void)Mark;
  return Sys.mkAnd({
      Sys.apply(Enc->InitRel,
                {Term::var(S.Mod), Term::var(S.Pc), Term::var(S.CL)}),
      Sys.eqVar(S.CL, S.ECL),
      Sys.eqVar(S.CG, S.ECG),
  });
}

/// [All entries, Section 4.1] every entry of every module is a summary
/// seed, reachable or not.
Formula *SeqEngine::allEntriesClause() {
  return Sys.mkAnd({
      Sys.apply(Enc->EntryRel,
                {Term::var(S.Mod), Term::var(S.Pc), Term::var(S.CL)}),
      Sys.eqVar(S.CL, S.ECL),
      Sys.eqVar(S.CG, S.ECG),
  });
}

/// [Internal] ∃x. Head(.., x) ∧ programInt(x → s).
Formula *SeqEngine::internalClause(RelId Head, int Mark) {
  ConfVars X = S;
  X.Pc = TPcF;
  X.CL = TLF;
  X.CG = TGF;
  return Sys.exists(
      {TPcF, TLF, TGF},
      Sys.mkAnd({
          Sys.apply(Head, headArgs(X, Mark)),
          Sys.applyVars(Enc->ProgramInt,
                        {S.Mod, TPcF, S.Pc, TLF, S.CL, TGF, S.CG}),
      }));
}

/// [Entry discovery, Section 4.2's third clause] s is an entry whose
/// instantiation is witnessed by a reachable caller state at a call.
Formula *SeqEngine::entryDiscoveryClause(RelId Head, int Mark,
                                         bool RelevantGuard) {
  ConfVars Caller;
  Caller.Mod = DMod;
  Caller.Pc = DPc;
  Caller.CL = DL;
  Caller.CG = S.CG; // Globals are shared across the call boundary.
  Caller.ECL = DEL;
  Caller.ECG = DEG;

  std::vector<Formula *> Body;
  if (RelevantGuard)
    Body.push_back(Sys.applyVars(Relevant, {DMod, DPc}));
  Body.push_back(Sys.apply(Head, headArgs(Caller, Mark)));
  Body.push_back(Sys.applyVars(Enc->ProgramCall,
                               {DMod, S.Mod, DPc, DL, S.CL, S.CG}));

  return Sys.mkAnd({
      Sys.eqConst(S.Pc, 0),
      Sys.eqVar(S.CL, S.ECL),
      Sys.eqVar(S.CG, S.ECG),
      Sys.exists({DMod, DPc, DL, DEL, DEG}, Sys.mkAnd(Body)),
  });
}

/// [Return, unsplit] one big relational product combining the caller
/// summary, the callee summary and the full Return relation — the form the
/// paper identifies as the conjunction bottleneck.
Formula *SeqEngine::returnClauseUnsplit(RelId CallerHead, RelId CalleeHead,
                                        int Mark) {
  UnsplitReturn = true;
  ConfVars Caller = S;
  Caller.Pc = RTPc;
  Caller.CL = RTCL;
  Caller.CG = RTCG;

  ConfVars Callee;
  Callee.Mod = RUMod;
  Callee.Pc = RUPcX;
  Callee.CL = RULX;
  Callee.CG = RUGX;
  Callee.ECL = RUECL;
  Callee.ECG = RTCG;

  return Sys.exists(
      {RTPc, RTCL, RTCG, RUMod, RUPcX, RULX, RUGX, RUECL},
      Sys.mkAnd({
          Sys.apply(CallerHead, headArgs(Caller, Mark)),
          Sys.applyVars(Enc->ProgramCall,
                        {S.Mod, RUMod, RTPc, RTCL, RUECL, RTCG}),
          Sys.apply(CalleeHead, headArgs(Callee, Mark)),
          Sys.applyVars(Enc->ExitRel, {RUMod, RUPcX}),
          Sys.applyVars(Enc->SkipCall, {S.Mod, RTPc, S.Pc}),
          Sys.applyVars(Enc->SetReturn, {S.Mod, RUMod, RTPc, RUPcX, RTCL,
                                         RULX, RUGX, S.CL, S.CG}),
      }));
}

/// [Return, split — the Appendix formula] groups (A) caller-side and (B)
/// exit-side constraints so each summary BDD first meets only small
/// relations; the two groups share {tPc, tCG, uMod, uPcX, uECL}.
Formula *SeqEngine::returnClauseSplit(RelId CallerHead, RelId CalleeHead,
                                      int Mark, bool RelevantGuard) {
  ConfVars Caller = S;
  Caller.Pc = RTPc;
  Caller.CL = RTCL;
  Caller.CG = RTCG;

  ConfVars Callee;
  Callee.Mod = RUMod;
  Callee.Pc = RUPcX;
  Callee.CL = RULX;
  Callee.CG = RUGX;
  Callee.ECL = RUECL;
  Callee.ECG = RTCG;

  Formula *GroupA = Sys.exists(
      {RTCL},
      Sys.mkAnd({
          Sys.apply(CallerHead, headArgs(Caller, Mark)),
          Sys.applyVars(Enc->SkipCall, {S.Mod, RTPc, S.Pc}),
          Sys.applyVars(Enc->SetReturn1,
                        {S.Mod, RUMod, RTPc, RTCL, S.CL}),
          Sys.applyVars(Enc->ProgramCall,
                        {S.Mod, RUMod, RTPc, RTCL, RUECL, RTCG}),
      }));

  Formula *GroupB = Sys.exists(
      {RULX, RUGX},
      Sys.mkAnd({
          Sys.apply(CalleeHead, headArgs(Callee, Mark)),
          Sys.applyVars(Enc->ExitRel, {RUMod, RUPcX}),
          Sys.applyVars(Enc->SetReturn2, {S.Mod, RUMod, RTPc, RUPcX, RULX,
                                          S.CL, RUGX, S.CG}),
      }));

  std::vector<Formula *> Outer{GroupA, GroupB};
  if (RelevantGuard)
    Outer.push_back(Sys.mkOr({Sys.applyVars(Relevant, {S.Mod, RTPc}),
                              Sys.applyVars(Relevant, {RUMod, RUPcX})}));

  return Sys.exists({RTPc, RTCG, RUMod, RUPcX, RUECL}, Sys.mkAnd(Outer));
}

Formula *SeqEngine::modInGroup(unsigned Scc) {
  std::vector<Formula *> Cases;
  for (unsigned Proc : CG.SccMembers[Scc])
    Cases.push_back(Sys.eqConst(S.Mod, Proc));
  return Sys.mkOr(Cases);
}

/// SummaryScc: the skeleton of SummarySimple (Section 4.1's all-entries
/// summaries, completed by a reachable-entries fixpoint) instantiated once
/// per call-graph SCC, so the relation condensation is as wide as the
/// program's call graph and the DAG scheduler has real independent work.
/// Per group X:
///
///   Summary_X    = (s.mod ∈ X ∧ allEntries)
///                ∨ internal(Summary_X)
///                ∨ ⋁_{Y callee group of X} return(Summary_X, Summary_Y)
///   ReachEntry_X = [X = main's group] init-seed
///                ∨ ⋁_{W caller group of X} (s.mod ∈ X ∧ step via
///                      ReachEntry_W ∧ Summary_W ∧ programCall)
///
/// with the verdict and stats roots
///
///   Hits       = ⋁_X Summary_X ∧ ReachEntry_X
///   SummaryAll = ⋁_X Summary_X.
///
/// The mod ∈ X guards pin each relation to its group's modules without
/// adding variables, so the BDD layout (and hence every per-relation round
/// value) is independent of the grouping; summary tuples then stay in
/// their group by induction (internal/return clauses preserve s.mod, and
/// a callee application Summary_Y only admits mod ∈ Y tuples). Cross-group
/// dependencies point strictly at lower (callee) SCCs, so every defined
/// relation is its own condensation node. Returns take the Appendix A/B
/// return clause, and the system is monotone.
void SeqEngine::buildSccSystem() {
  const bp::Program &Prog = *Cfg.Prog;
  std::vector<VarId> ConfFormals{S.Mod, S.Pc, S.CL, S.CG, S.ECL, S.ECG};
  const unsigned NumGroups = unsigned(CG.numSccs());
  const unsigned MainScc = CG.SccOf[Prog.MainId];

  // Declare everything first: return/step clauses reference other groups.
  GroupSummary.resize(NumGroups);
  GroupEntry.resize(NumGroups);
  for (unsigned X = 0; X < NumGroups; ++X) {
    // Mutually-recursive groups are named after their lowest-id member;
    // proc names are unique, so so are these.
    const std::string &Name = Prog.proc(CG.SccMembers[X].front()).Name;
    GroupSummary[X] = Sys.declareRel("Summary_" + Name, ConfFormals);
    GroupEntry[X] =
        Sys.declareRel("ReachEntry_" + Name, {S.Mod, S.ECL, S.ECG});
  }
  Hits = Sys.declareRel("Hits", ConfFormals);
  SummaryAll = Sys.declareRel("SummaryAll", ConfFormals);
  Main = Hits;

  for (unsigned X = 0; X < NumGroups; ++X) {
    // Does some procedure of X call back into X (self- or mutual
    // recursion)? Then X is among its own caller/callee groups.
    bool IntraCalls = false;
    for (unsigned Proc : CG.SccMembers[X])
      for (unsigned Callee : CG.Callees[Proc])
        IntraCalls |= CG.SccOf[Callee] == X;

    std::vector<Formula *> Clauses;
    Clauses.push_back(Sys.mkAnd({modInGroup(X), allEntriesClause()}));
    Clauses.push_back(internalClause(GroupSummary[X], -1));
    std::vector<unsigned> CalleeGroups = CG.SccCallees[X];
    if (IntraCalls)
      CalleeGroups.push_back(X);
    for (unsigned Y : CalleeGroups)
      Clauses.push_back(
          returnClauseSplit(GroupSummary[X], GroupSummary[Y], -1, false));
    Sys.define(GroupSummary[X], Sys.mkOr(Clauses));

    std::vector<Formula *> Entry;
    if (X == MainScc)
      Entry.push_back(Sys.apply(
          Enc->InitRel,
          {Term::var(S.Mod), Term::constant(0), Term::var(S.ECL)}));
    std::vector<unsigned> CallerGroups = CG.SccCallers[X];
    if (IntraCalls)
      CallerGroups.push_back(X);
    for (unsigned W : CallerGroups) {
      ConfVars Caller;
      Caller.Mod = DMod;
      Caller.Pc = DPc;
      Caller.CL = DL;
      Caller.CG = S.ECG; // Callee entry globals = caller globals at call.
      Caller.ECL = DEL;
      Caller.ECG = DEG;
      Entry.push_back(Sys.mkAnd({
          // programCall alone would admit any callee of W; pin to X.
          modInGroup(X),
          Sys.exists(
              {DMod, DPc, DL, DEL, DEG},
              Sys.mkAnd({
                  Sys.applyVars(GroupEntry[W], {DMod, DEL, DEG}),
                  Sys.apply(GroupSummary[W], headArgs(Caller, -1)),
                  Sys.applyVars(Enc->ProgramCall,
                                {DMod, S.Mod, DPc, DL, S.ECL, S.ECG}),
              })),
      }));
    }
    // A group nobody calls (and that is not main's) has no reachable
    // instantiation at all.
    Sys.define(GroupEntry[X],
               Entry.empty() ? Sys.bottom() : Sys.mkOr(Entry));
  }

  std::vector<Formula *> HitsDisj, AllDisj;
  for (unsigned X = 0; X < NumGroups; ++X) {
    HitsDisj.push_back(Sys.mkAnd({
        Sys.apply(GroupSummary[X], headArgs(S, -1)),
        Sys.applyVars(GroupEntry[X], {S.Mod, S.ECL, S.ECG}),
    }));
    AllDisj.push_back(Sys.apply(GroupSummary[X], headArgs(S, -1)));
  }
  Sys.define(Hits, Sys.mkOr(HitsDisj));
  Sys.define(SummaryAll, Sys.mkOr(AllDisj));
}

void SeqEngine::buildSystem() {
  const bp::Program &Prog = *Cfg.Prog;
  unsigned MaxLocals = Prog.maxLocalSlots();
  unsigned NumGlobals = Prog.numGlobals();

  Doms.Mod = Sys.addDomain("Module", Prog.Procs.size());
  Doms.Pc = Sys.addDomain("PrCount", Cfg.maxPcs());
  Doms.GVec = Sys.addBitDomain("Global", std::max(NumGlobals, 1u));
  Doms.LVec = Sys.addBitDomain("Local", std::max(MaxLocals, 1u));
  ChoiceDom = Sys.addDomain("Choice",
                            uint64_t(1) << ProgramEncoder::maxChoiceBits(Cfg));

  Enc = std::make_unique<ProgramEncoder>(Sys, Factory, Doms, Cfg, ChoiceDom);

  // Each quantified copy is created right after the state formal it
  // stands in for, so its bits sit next to that formal's in the domain's
  // interleaving group (see VarFactory) and applying a summary to copies
  // keeps the variable order. t.CG copies s.CG (caller side) and s.ECG
  // (callee side).
  S.Mod = Factory.makeVar("s.mod", Doms.Mod);
  RvMod = Factory.makeVar("rv.mod", Doms.Mod);
  DMod = Factory.makeVar("d.mod", Doms.Mod);
  RUMod = Factory.makeVar("u.mod", Doms.Mod);
  S.Pc = Factory.makeVar("s.pc", Doms.Pc);
  RvPc = Factory.makeVar("rv.pc", Doms.Pc);
  TPcF = Factory.makeVar("x.pc", Doms.Pc);
  DPc = Factory.makeVar("d.pc", Doms.Pc);
  RTPc = Factory.makeVar("t.pc", Doms.Pc);
  RUPcX = Factory.makeVar("u.pc", Doms.Pc);
  S.CL = Factory.makeVar("s.CL", Doms.LVec);
  TLF = Factory.makeVar("x.CL", Doms.LVec);
  DL = Factory.makeVar("d.CL", Doms.LVec);
  RTCL = Factory.makeVar("t.CL", Doms.LVec);
  RULX = Factory.makeVar("u.CL", Doms.LVec);
  S.ECL = Factory.makeVar("s.ECL", Doms.LVec);
  DEL = Factory.makeVar("d.ECL", Doms.LVec);
  RUECL = Factory.makeVar("u.ECL", Doms.LVec);
  S.CG = Factory.makeVar("s.CG", Doms.GVec);
  TGF = Factory.makeVar("x.CG", Doms.GVec);
  RUGX = Factory.makeVar("u.CG", Doms.GVec);
  RTCG = Factory.makeVar("t.CG", Doms.GVec);
  S.ECG = Factory.makeVar("s.ECG", Doms.GVec);
  DEG = Factory.makeVar("d.ECG", Doms.GVec);
  Fr = Factory.makeVar("fr", Sys.boolDomain());

  CG = bp::buildCallGraph(Cfg);

  std::vector<VarId> ConfFormals{S.Mod, S.Pc, S.CL, S.CG, S.ECL, S.ECG};

  switch (Alg) {
  case SeqAlgorithm::SummarySimple: {
    Main = Sys.declareRel("Summary", ConfFormals);
    Sys.define(Main, Sys.mkOr({
                         allEntriesClause(),
                         internalClause(Main, -1),
                         returnClauseUnsplit(Main, Main, -1),
                     }));
    // Reachable module instantiations: ReachEntry(mod, entryL, entryG).
    ReachEntry = Sys.declareRel("ReachEntry", {S.Mod, S.ECL, S.ECG});
    Formula *Seed = Sys.apply(
        Enc->InitRel,
        {Term::var(S.Mod), Term::constant(0), Term::var(S.ECL)});
    // A callee instantiation is reachable if some reachable caller
    // instantiation has a summary state at a call into it.
    ConfVars Caller;
    Caller.Mod = DMod;
    Caller.Pc = DPc;
    Caller.CL = DL;
    Caller.CG = S.ECG; // Callee entry globals = caller globals at call.
    Caller.ECL = DEL;
    Caller.ECG = DEG;
    Formula *Step = Sys.exists(
        {DMod, DPc, DL, DEL, DEG},
        Sys.mkAnd({
            Sys.applyVars(ReachEntry, {DMod, DEL, DEG}),
            Sys.apply(Main, headArgs(Caller, -1)),
            Sys.applyVars(Enc->ProgramCall,
                          {DMod, S.Mod, DPc, DL, S.ECL, S.ECG}),
        }));
    Sys.define(ReachEntry, Sys.mkOr({Seed, Step}));
    break;
  }
  case SeqAlgorithm::EntryForward:
  case SeqAlgorithm::EntryForwardSplit: {
    bool SplitRet = Alg == SeqAlgorithm::EntryForwardSplit;
    Main = Sys.declareRel("SummaryEF", ConfFormals);
    Sys.define(Main,
               Sys.mkOr({
                   initClause(Main, -1),
                   internalClause(Main, -1),
                   entryDiscoveryClause(Main, -1, false),
                   SplitRet ? returnClauseSplit(Main, Main, -1, false)
                            : returnClauseUnsplit(Main, Main, -1),
               }));
    break;
  }
  case SeqAlgorithm::EntryForwardOpt: {
    std::vector<VarId> MarkedFormals{Fr};
    MarkedFormals.insert(MarkedFormals.end(), ConfFormals.begin(),
                         ConfFormals.end());
    Main = Sys.declareRel("SummaryEFopt", MarkedFormals);
    Relevant = Sys.declareRel("Relevant", {RvMod, RvPc});
    New1 = Sys.declareRel("New1", ConfFormals);
    New2 = Sys.declareRel("New2", ConfFormals);

    // Relevant(mod, pc): PCs of states discovered in the last round —
    // marked 1 but not yet 0. The negation makes the system non-monotone;
    // the algorithmic semantics (Section 3) is what gives it meaning.
    {
      ConfVars R = S;
      R.Mod = RvMod;
      R.Pc = RvPc;
      Formula *Pos = Sys.apply(Main, headArgs(R, 1));
      Formula *Neg = Sys.mkNot(Sys.apply(Main, headArgs(R, 0)));
      Sys.define(Relevant, Sys.exists({R.CL, R.CG, R.ECL, R.ECG},
                                      Sys.mkAnd({Pos, Neg})));
    }

    // New1: image-closure of the relevant states under internal moves
    // (clauses 5 and 6).
    {
      Formula *Seeds = Sys.mkAnd({
          Sys.apply(Main, headArgs(S, 1)),
          Sys.applyVars(Relevant, {S.Mod, S.Pc}),
      });
      Sys.define(New1, Sys.mkOr({Seeds, internalClause(New1, -1)}));
    }

    // New2: one round of call discoveries and returns touching a relevant
    // PC (clauses 7-11).
    Sys.define(New2, Sys.mkOr({
                         entryDiscoveryClause(Main, 1, true),
                         returnClauseSplit(Main, Main, 1, true),
                     }));

    // SummaryEFopt (clauses 1-3): re-seed init, demote last round's marks,
    // admit the new states with fr=1.
    {
      Formula *C1 = Sys.mkAnd({Sys.eqConst(Fr, 1), initClause(Main, -1)});
      Formula *C2 = Sys.apply(Main, headArgs(S, 1)); // fr unconstrained.
      Formula *C3 = Sys.mkAnd({
          Sys.eqConst(Fr, 1),
          Sys.mkOr({Sys.applyVars(New1, {S.Mod, S.Pc, S.CL, S.CG, S.ECL,
                                         S.ECG}),
                    Sys.applyVars(New2, {S.Mod, S.Pc, S.CL, S.CG, S.ECL,
                                         S.ECG})}),
      });
      Sys.define(Main, Sys.mkOr({C1, C2, C3}));
    }
    break;
  }
  case SeqAlgorithm::SummaryScc:
    buildSccSystem();
    break;
  }

  // Round roots, condensation width, and relation count — computed here
  // once so solves and sessions read them for free.
  {
    fpc::DependencyGraph G(Sys);
    const bool Scc = Alg == SeqAlgorithm::SummaryScc;
    if (Scc) {
      for (const std::vector<RelId> &Members : G.sccs())
        for (RelId R : Members)
          if (!Sys.relation(R).isInput())
            Roots.push_back(R);
    } else {
      Roots = {Main};
    }
    Width = Scc ? unsigned(CG.numSccs())
                : fpc::definedCondensationWidth(Sys, G);
    NumSummaryRels = Scc ? unsigned(CG.numSccs()) : 1;
  }

#ifndef NDEBUG
  DiagnosticEngine Diags;
  assert(Sys.validate(Diags) && "algorithm formulae must type-check");
#endif
}

void SeqEngine::bindInputs(Evaluator &Ev, unsigned ProcId, unsigned Pc) {
  Enc->bind(Ev, ProcId, Pc);
  if (UnsplitReturn)
    Enc->bindSetReturn(Ev);
}

SeqEngine::Reach SeqEngine::solveSummaries(Evaluator &Ev) const {
  Reach Out;
  if (Alg == SeqAlgorithm::SummaryScc) {
    // The roots are non-recursive, so all summary work happens while
    // their dependencies are pre-solved.
    Out.States = Ev.evaluate(Hits).Value;
    Out.SummaryNodes = Ev.evaluate(SummaryAll).Value.nodeCount();
  } else {
    Bdd Summary = Ev.evaluate(Main).Value;
    Out.States = Summary & Ev.evaluate(ReachEntry).Value;
    Out.SummaryNodes = Summary.nodeCount();
  }
  return Out;
}

sym::SolveStats SeqEngine::solve(unsigned ProcId, unsigned Pc,
                                 const sym::SolveConfig &Config) {
  sym::SolveStats Result;
  sym::SolveMeter Meter;

  BddManager Mgr;
  Mgr.setGovernor(Config.Governor);
  Layout L = Factory.makeLayout(Mgr);
  Evaluator Ev(Sys, Mgr, std::move(L));
  Ev.setThreads(Config.Threads);

  try {
    bindInputs(Ev, ProcId, Pc);

    // Target states over the head tuple (plus don't-care fr for the opt
    // algorithm, whose head has the mark in front).
    Bdd TargetStates =
        Ev.encodeEqConst(S.Mod, ProcId) & Ev.encodeEqConst(S.Pc, Pc);

    if (targetIndependent()) {
      // Early stop does not apply: every relation is solved whatever the
      // target.
      Reach Rc = solveSummaries(Ev);
      Result.Reachable = !(Rc.States & TargetStates).isZero();
      Result.SummaryNodes = Rc.SummaryNodes;
    } else {
      EvalOptions EOpts;
      if (Config.EarlyStop)
        EOpts.EarlyStop = &TargetStates;
      EvalResult R = Ev.evaluate(Main, EOpts);
      Result.Reachable = !(R.Value & TargetStates).isZero();
      Result.SummaryNodes = R.Value.nodeCount();
    }
  } catch (const support::ResourceInterrupt &RI) {
    // Clean limit stop: the verdict is indeterminate, but the read-out
    // below still covers the completed rounds' work.
    Result.Limit = RI.Limit;
  }

  Meter.finish(Result, Ev, Roots, Width, NumSummaryRels);
  Result.SummariesRecomputed = Result.Iterations;
  return Result;
}

//===----------------------------------------------------------------------===//
// SeqSession: cross-query incremental solving
//===----------------------------------------------------------------------===//

struct SeqSession::Impl {
  const bp::ProgramCfg &Cfg;
  sym::SolveConfig Config;
  SeqEngine Engine;
  BddManager Mgr;
  Evaluator Ev;
  /// Persistent rounds + rings of the main relation (EF algorithms).
  IncrementalFixpoint Fix;

  // Target-independent algorithms (summary, summary-scc): the first query
  // solves the whole relation chain once, through the one-shot solve's
  // own `SeqEngine::solveSummaries` (on the pool under `Threads > 1`), and
  // every later query is a conjunction against the cached reachable
  // states. The rounds a fresh solve of any target would report stay in
  // the evaluator's statistics. A governor interrupt leaves the chain's
  // saturated relations memoized and the others at their last completed
  // round inside the evaluator; the retry resumes them bit-identically.
  std::optional<SeqEngine::Reach> Chain; ///< Set once the chain is solved.

  /// Witness queries go through a persistent extractor session (solves
  /// the EntryForward system with rings once, extracts per target);
  /// created on the first witness query.
  std::unique_ptr<WitnessSession> Witness;

  /// The memory gauges of every manager the session owns, sampled once
  /// at construction and at the end of every query (`sampleGauge`) and
  /// read by `liveNodes`/`memoryFootprint` — and so by the server pool —
  /// until the next sample. Exact in between: nothing else touches the
  /// managers, and `clearComputedCache` zeroes the cache share it frees.
  BddGauge Gauge;

  /// High-water mark of retained (reachable) nodes over the end-of-query
  /// samples; `peakLiveNodes()` reports it. Allocation high-water
  /// (`BddStats::PeakNodes`) would also count uncollected garbage, which
  /// the retention diet deliberately produces more of in exchange for
  /// retaining far less.
  size_t PeakLive = 0;

  /// Per-attempt resource governor (`setGovernor`; null = ungoverned).
  /// Installed on the manager around each solve, never across solves.
  support::ResourceGovernor *Gov = nullptr;

  Impl(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg,
       const sym::SolveConfig &Config)
      : Cfg(Cfg), Config(Config),
        Engine(Cfg, Alg),
        Ev(Engine.system(), Mgr, Engine.factory().makeLayout(Mgr)) {
    // A `summary-scc` session solves its chain on the evaluator's pool
    // under `Threads > 1`, as the one-shot solve does; the paper's systems
    // never leave two SCCs pending, so they run on one thread. Queries
    // stay serialized — one session serves one caller at a time.
    Ev.setThreads(Config.Threads);
    // The target relation is declared but read by no clause, so one
    // targetless binding serves every query; rebinding per target would
    // needlessly drop the evaluator's memo layers.
    Engine.bindInputs(Ev, ~0u, 0);
    sampleGauge();
  }

  /// One mark pass per manager: the main one and the parallel workers'.
  /// The witness sub-session contributes the sample its own last query
  /// took — its managers have not been touched since.
  void sampleGauge() {
    Gauge = Mgr.gauge();
    Gauge += Ev.workerGauge();
    if (Witness)
      Gauge += Witness->gauge();
  }

  void noteQueryEnd() {
    sampleGauge();
    PeakLive = std::max(PeakLive, Gauge.Nodes);
  }
};

SeqSession::SeqSession(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg,
                       const sym::SolveConfig &Config)
    : I(std::make_unique<Impl>(Cfg, Alg, Config)) {}

SeqSession::~SeqSession() = default;

void SeqSession::setGovernor(support::ResourceGovernor *G) {
  I->Gov = G;
  if (I->Witness)
    I->Witness->setGovernor(G);
}

void SeqSession::clearComputedCache() {
  // Every manager the session owns: the main one, the parallel workers'
  // (none until a query reaches the pool), and the witness sub-session's
  // own manager (the ring-recording entry-forward solve).
  I->Mgr.clearComputedCache();
  I->Ev.clearWorkerCaches();
  if (I->Witness)
    I->Witness->clearComputedCache();
  I->Gauge.CacheBytes = 0;
}

size_t SeqSession::liveNodes() const {
  // Reachable-only count: the session's automatic-gc threshold is rarely
  // reached, so `liveNodeCount()` would also charge garbage that merely
  // awaits the next collection — transient solve intermediates that say
  // nothing about what the session retains. Parallel worker managers,
  // once a query has built them, are session state too.
  return I->Gauge.Nodes;
}

size_t SeqSession::peakLiveNodes() const {
  // Peak *retained* state over query boundaries, and the current value,
  // so the gauge never under-reports a session that has not queried yet.
  return std::max(I->PeakLive, I->Gauge.Nodes);
}

size_t SeqSession::memoryFootprint() const { return I->Gauge.bytes(); }

sym::SolveStats SeqSession::solve(unsigned ProcId, unsigned Pc) {
  Impl &S = *I;
  sym::SolveStats Result;
  sym::SolveMeter Meter(S.Ev);
  // Target-independent algorithms answer from one solve; set when an
  // earlier query already ran it.
  bool Replayed = false;
  std::optional<IncrementalFixpoint::Answer> Answer;

  // The governor spans exactly this query; an interrupted query leaves
  // the session's persistent state (rings, summaries, memos) at the last
  // completed round, valid for a retry.
  S.Mgr.setGovernor(S.Gov);
  try {
    const sym::ConfVars &Conf = S.Engine.conf();
    Bdd TargetStates = S.Ev.encodeEqConst(Conf.Mod, ProcId) &
                       S.Ev.encodeEqConst(Conf.Pc, Pc);

    if (S.Engine.targetIndependent()) {
      Replayed = S.Chain.has_value();
      if (!Replayed)
        S.Chain = S.Engine.solveSummaries(S.Ev);
      Result.Reachable = !(S.Chain->States & TargetStates).isZero();
      Result.SummaryNodes = S.Chain->SummaryNodes;
    } else {
      Answer = S.Fix.query(S.Ev, S.Engine.mainRel(), TargetStates,
                           S.Config.EarlyStop);
      Result.Reachable = Answer->Reachable;
      Result.SummaryNodes = Answer->Value.nodeCount();
    }
  } catch (const support::ResourceInterrupt &RI) {
    Result.Limit = RI.Limit;
  }
  S.Mgr.setGovernor(nullptr);

  // Session statistics are cumulative where fresh solves report
  // per-solve numbers: Relations accumulates across queries, and the
  // BDD counters are reported as this query's delta on the shared
  // manager (peaks stay absolute). The target-independent solves'
  // rounds stay in the evaluator's statistics, so a replayed query reads
  // the same count the query that solved them did.
  Meter.finish(Result, S.Ev, S.Engine.roundRoots(),
               S.Engine.condensationWidth(), S.Engine.summaryRelations(),
               Answer ? &*Answer : nullptr);
  if (!Answer && Result.Limit == support::ResourceLimit::None)
    (Replayed ? Result.SummariesReused : Result.SummariesRecomputed) =
        Result.Iterations;
  S.noteQueryEnd();
  return Result;
}

WitnessResult SeqSession::solveWithWitness(unsigned ProcId, unsigned Pc) {
  if (!I->Witness) {
    // ef and ef-split run the very system the extractor walks, so hand it
    // the session's own engine, manager, evaluator, and recorded rings
    // (borrowed mode): witness and plain queries then share one solve and
    // one copy of every round, instead of the witness sub-session
    // re-solving EntryForward on a second manager. The other algorithms
    // solve a different system, so they keep an owned (delta-ringed)
    // sub-session.
    SeqAlgorithm Alg = I->Engine.algorithm();
    if (Alg == SeqAlgorithm::EntryForward ||
        Alg == SeqAlgorithm::EntryForwardSplit)
      I->Witness = std::make_unique<WitnessSession>(I->Engine, I->Mgr, I->Ev,
                                                    I->Fix, I->Config);
    else
      I->Witness = std::make_unique<WitnessSession>(I->Cfg, I->Config);
    I->Witness->setGovernor(I->Gov);
  }
  WitnessResult R = I->Witness->query(ProcId, Pc);
  I->noteQueryEnd();
  return R;
}

bool SeqSession::answersFromState(unsigned ProcId, unsigned Pc,
                                  bool Witness) {
  Impl &S = *I;
  if (Witness)
    // Once the witness sub-session has solved its rings, any target is a
    // pure extraction.
    return S.Witness && S.Witness->solved();
  if (S.Engine.targetIndependent())
    // Once the chain is solved, every query is a conjunction against the
    // cached reachable states.
    return S.Chain.has_value();
  const sym::ConfVars &Conf = S.Engine.conf();
  Bdd TargetStates = S.Ev.encodeEqConst(Conf.Mod, ProcId) &
                     S.Ev.encodeEqConst(Conf.Pc, Pc);
  return S.Fix.answersFromState(TargetStates, S.Config.EarlyStop);
}

sym::SolveStats reach::checkReachability(const bp::ProgramCfg &Cfg,
                                         unsigned ProcId, unsigned Pc,
                                         SeqAlgorithm Alg,
                                         const sym::SolveConfig &Config) {
  SeqEngine Engine(Cfg, Alg);
  return Engine.solve(ProcId, Pc, Config);
}

std::string reach::formulaText(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg) {
  return SeqEngine(Cfg, Alg).text();
}

std::vector<std::string>
reach::reorderingApplications(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg) {
  SeqEngine Engine(Cfg, Alg);
  BddManager Mgr;
  Evaluator Ev(Engine.system(), Mgr, Engine.factory().makeLayout(Mgr));
  std::vector<std::string> Out;
  for (const fpc::Formula *App : Ev.reorderingApplications())
    Out.push_back(Engine.system().printFormula(*App));
  return Out;
}
