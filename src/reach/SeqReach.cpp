//===- SeqReach.cpp - Sequential reachability algorithms ------------------===//

#include "reach/SeqReach.h"

#include "fpcalc/Evaluator.h"
#include "reach/SeqEngine.h"
#include "reach/Witness.h"
#include "support/Timer.h"
#include "symbolic/Encode.h"

#include <algorithm>

using namespace getafix;
using namespace getafix::reach;
using namespace getafix::fpc;
using namespace getafix::sym;

const char *reach::algorithmName(SeqAlgorithm Alg) {
  switch (Alg) {
  case SeqAlgorithm::SummarySimple:
    return "summary-simple";
  case SeqAlgorithm::EntryForward:
    return "entry-forward";
  case SeqAlgorithm::EntryForwardSplit:
    return "entry-forward-split";
  case SeqAlgorithm::EntryForwardOpt:
    return "entry-forward-opt";
  }
  return "?";
}

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

/// The per-procedure compilation: the skeleton of SummarySimple
/// (Section 4.1's all-entries summaries, completed by a reachable-entries
/// fixpoint) instantiated once per call-graph SCC, so the relation
/// condensation is as wide as the program's call graph and the DAG
/// scheduler has real independent work. Per group X:
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
/// relation is its own condensation node. The algorithm still selects the
/// return-clause flavour (unsplit for summary/ef, the Appendix A/B split
/// for ef-split/ef-opt); EF-opt's Relevant-mark machinery is a monolithic
/// round-scheduling device subsumed by per-SCC semi-naive evaluation, so
/// its split compiles without it — and every split system is monotone.
void SeqEngine::buildSplitSystem() {
  const bp::Program &Prog = *Cfg.Prog;
  std::vector<VarId> ConfFormals{S.Mod, S.Pc, S.CL, S.CG, S.ECL, S.ECG};
  const unsigned NumGroups = unsigned(CG.numSccs());
  const bool SplitRet = Alg == SeqAlgorithm::EntryForwardSplit ||
                        Alg == SeqAlgorithm::EntryForwardOpt;
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
          SplitRet
              ? returnClauseSplit(GroupSummary[X], GroupSummary[Y], -1,
                                  false)
              : returnClauseUnsplit(GroupSummary[X], GroupSummary[Y], -1));
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

  if (Split) {
    buildSplitSystem();
  } else
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
  }

  // Solve order, condensation width, and relation count — computed here
  // once so solves and sessions read them for free. The order is every
  // defined relation in callees-first (dependency-topological) sequence;
  // in split mode the resume-chain paths drive it directly.
  {
    fpc::DependencyGraph G(Sys);
    for (const std::vector<RelId> &Members : G.sccs())
      for (RelId R : Members)
        if (!Sys.relation(R).isInput())
          Order.push_back(R);
    Width = Split ? unsigned(CG.numSccs())
                  : fpc::definedCondensationWidth(Sys, G);
    NumSummaryRels = Split ? unsigned(CG.numSccs()) : 1;
  }

#ifndef NDEBUG
  DiagnosticEngine Diags;
  assert(Sys.validate(Diags) && "algorithm formulae must type-check");
#endif
}

SeqResult SeqEngine::solve(unsigned ProcId, unsigned Pc,
                           const SeqOptions &Opts) {
  SeqResult Result;
  Timer T;

  BddManager Mgr;
  Mgr.setGcThreshold(Opts.GcThreshold);
  if (Opts.Governor)
    Mgr.setGovernor(Opts.Governor);
  Layout L = Factory.makeLayout(Mgr);
  Evaluator Ev(Sys, Mgr, std::move(L), Opts.Strategy);
  Ev.setThreads(Opts.Threads);

  try {
    Enc->bind(Ev, ProcId, Pc);

    // Target states over the head tuple (plus don't-care fr for the opt
    // algorithm, whose head has the mark in front).
    Bdd TargetStates =
        Ev.encodeEqConst(S.Mod, ProcId) & Ev.encodeEqConst(S.Pc, Pc);

    EvalOptions EOpts;
    EOpts.MaxIterations = Opts.MaxIterations;
    if (Opts.EarlyStop && !Split && Alg != SeqAlgorithm::SummarySimple)
      EOpts.EarlyStop = &TargetStates;

    if (Split) {
      // Per-procedure mode: Hits is the verdict root, SummaryAll the
      // stats root. Early stop does not apply — the roots are
      // non-recursive, so all summary work happens while their
      // dependencies are pre-solved (in parallel under Threads > 1).
      if (Opts.MaxIterations == 0) {
        EvalOptions Plain;
        EvalResult H = Ev.evaluate(Hits, Plain);
        EvalResult All = Ev.evaluate(SummaryAll, Plain);
        Result.Reachable = !(H.Value & TargetStates).isZero();
        Result.SummaryNodes = All.Value.nodeCount();
      } else {
        // An iteration cap must truncate every relation of the chain, but
        // `evaluate` pre-solves dependencies uncapped. Drive the chain
        // relation-by-relation instead, pinning each capped value so
        // higher relations read the truncation.
        std::map<RelId, FixpointState> States;
        bool HitLimit = false;
        for (RelId R : Order) {
          FixpointState &St = States[R];
          EvalOptions RO;
          RO.MaxIterations = Opts.MaxIterations;
          EvalResult ER = Ev.resume(R, St, RO);
          HitLimit |= ER.HitIterationLimit;
          if (!St.Saturated)
            Ev.pinCompleted(R, St.Value);
        }
        Result.HitIterationLimit = HitLimit;
        Result.Reachable =
            !(States[Hits].Value & TargetStates).isZero();
        Result.SummaryNodes = States[SummaryAll].Value.nodeCount();
      }
    } else if (Alg == SeqAlgorithm::SummarySimple) {
      // Query: ∃s. ReachEntry(s.mod, s.ECL, s.ECG) ∧ Summary(s) ∧ target.
      // Summary is solved first; ReachEntry reuses it as a memoized nested
      // relation. EOpts carries no EarlyStop in this branch, so it is the
      // right options set for both solves.
      EvalResult Summaries = Ev.evaluate(Main, EOpts);
      EvalResult Entries = Ev.evaluate(ReachEntry, EOpts);
      Result.HitIterationLimit =
          Summaries.HitIterationLimit || Entries.HitIterationLimit;
      Bdd Hits = (Summaries.Value & Entries.Value) & TargetStates;
      Result.Reachable = !Hits.isZero();
      Result.SummaryNodes = Summaries.Value.nodeCount();
    } else {
      EvalResult R = Ev.evaluate(Main, EOpts);
      Result.HitIterationLimit = R.HitIterationLimit;
      Result.Reachable = !(R.Value & TargetStates).isZero();
      Result.SummaryNodes = R.Value.nodeCount();
    }
  } catch (const support::ResourceInterrupt &RI) {
    // Clean limit stop: the verdict is indeterminate, but every counter
    // harvested below still covers the completed rounds' work.
    Result.Limit = RI.Limit;
  }

  Result.Relations = Ev.stats();
  if (Split) {
    // Per-relation rounds are deterministic however the DAG schedules
    // them, so these aggregates are identical across thread counts and
    // across fresh/session solves: Iterations is the longest per-relation
    // Tarski chain, DeltaRounds the total delta work.
    for (RelId R : Order) {
      auto It = Result.Relations.find(Sys.relation(R).Name);
      if (It == Result.Relations.end())
        continue;
      Result.Iterations = std::max(Result.Iterations, It->second.Iterations);
      Result.DeltaRounds += It->second.DeltaRounds;
    }
  } else {
    auto StatsIt = Result.Relations.find(Sys.relation(Main).Name);
    if (StatsIt != Result.Relations.end()) {
      Result.Iterations = StatsIt->second.Iterations;
      Result.DeltaRounds = StatsIt->second.DeltaRounds;
    }
  }
  Result.CondensationWidth = Width;
  Result.SummaryRelations = NumSummaryRels;
  Result.Bdd = Mgr.stats();
  // Fold the per-worker managers' counters into the snapshot so a
  // parallel solve reports its whole BDD workload, not just the main
  // manager's share.
  Result.Bdd.merge(Ev.workerBddStats());
  Result.SccsSolvedParallel = Ev.parallelStats().SccsSolvedParallel;
  Result.ImportedNodes = Ev.parallelStats().ImportedNodes;
  Result.SummariesRecomputed = Result.Iterations;
  Result.Seconds = T.seconds();
  return Result;
}

//===----------------------------------------------------------------------===//
// SeqSession: cross-query incremental solving
//===----------------------------------------------------------------------===//

struct SeqSession::Impl {
  const bp::ProgramCfg &Cfg;
  SeqOptions Opts;
  SeqEngine Engine;
  BddManager Mgr;
  Evaluator Ev;
  /// Persistent rounds + rings of the main relation (EF algorithms).
  IncrementalFixpoint Fix;

  // SummarySimple solves to a full (target-independent) fixpoint once;
  // these cache the two relation values and the counts a fresh solve of
  // any target would report.
  bool SimpleSolved = false;
  Bdd SimpleSummary, SimpleEntries;
  bool SimpleHitLimit = false;
  uint64_t SimpleIterations = 0, SimpleDeltaRounds = 0;
  size_t SimpleSummaryNodes = 0;

  // Per-procedure split mode (any algorithm): the whole relation chain is
  // target-independent, so the first query solves it once — driving each
  // relation through `Evaluator::resume` over these caller-held states,
  // callees-first — and every later query is a conjunction against the
  // cached Hits value. A governor interrupt leaves the current relation
  // at its last completed round; the retry loop skips the already
  // saturated prefix and resumes the chain bit-identically. This
  // per-relation state is also the seam for future *partial*
  // invalidation: editing one procedure body need only clear the states
  // (and downstream memos) of its call-graph ancestors, not the world.
  bool SplitSolved = false;
  std::map<RelId, FixpointState> SplitStates;
  bool SplitHitLimit = false;
  uint64_t SplitIterations = 0, SplitDeltaRounds = 0;
  size_t SplitSummaryNodes = 0;
  Bdd SplitHits;

  /// Witness queries go through a persistent extractor session (solves
  /// the EntryForward system with rings once, extracts per target);
  /// created on the first witness query.
  std::unique_ptr<WitnessSession> Witness;

  /// High-water mark of retained (reachable) nodes, sampled at the end
  /// of every query; `peakLiveNodes()` reports it. Allocation high-water
  /// (`BddStats::PeakNodes`) would also count uncollected garbage, which
  /// the retention diet deliberately produces more of in exchange for
  /// retaining far less.
  size_t PeakLive = 0;

  /// Per-attempt resource governor (`setGovernor`; null = ungoverned).
  /// Installed on the manager around each solve, never across solves.
  support::ResourceGovernor *Gov = nullptr;

  Impl(const bp::ProgramCfg &Cfg, const SeqOptions &Opts)
      : Cfg(Cfg), Opts(Opts),
        Engine(Cfg, Opts.Alg, !Opts.MonolithicSummary),
        Ev(Engine.system(), Mgr, Engine.factory().makeLayout(Mgr),
           Opts.Strategy) {
    Mgr.setGcThreshold(Opts.GcThreshold);
    Fix.setKeyframeInterval(Opts.RingKeyframeInterval);
    // Sessions currently solve on one thread whatever `Threads` says: the
    // split chain is resumed callees-first (see `solve`), so the
    // evaluator's scheduler never finds two SCCs pending, and the
    // monolithic systems never leave two pending either. The setting is
    // still passed down so the worker accounting below stays honest if a
    // session ever reaches the pool. Queries stay serialized — one
    // session serves one caller at a time.
    Ev.setThreads(Opts.Threads);
    // The target relation is declared but read by no clause, so one
    // targetless binding serves every query; rebinding per target would
    // needlessly drop the evaluator's memo layers.
    Engine.encoder().bind(Ev, ~0u, 0);
  }
};

SeqSession::SeqSession(const bp::ProgramCfg &Cfg, const SeqOptions &Opts)
    : I(std::make_unique<Impl>(Cfg, Opts)) {}

SeqSession::~SeqSession() = default;

const SeqOptions &SeqSession::options() const { return I->Opts; }

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
}

size_t SeqSession::liveNodes() const {
  // Reachable-only count: the session's automatic-gc threshold is rarely
  // reached, so `liveNodeCount()` would also charge garbage that merely
  // awaits the next collection — transient solve intermediates that say
  // nothing about what the session retains. Parallel worker managers,
  // once a query has built them, are session state too.
  return I->Mgr.reachableNodeCount() + I->Ev.workerReachableNodes() +
         (I->Witness ? I->Witness->liveNodes() : 0);
}

size_t SeqSession::peakLiveNodes() const {
  // Peak *retained* state, sampled at query boundaries (plus the current
  // value, so the gauge never under-reports a freshly grown session).
  return std::max(I->PeakLive, liveNodes());
}

size_t SeqSession::memoryFootprint() const {
  return I->Mgr.reachableMemoryEstimate() + I->Ev.workerMemoryEstimate() +
         (I->Witness ? I->Witness->memoryFootprint() : 0);
}

SeqResult SeqSession::solve(unsigned ProcId, unsigned Pc) {
  Impl &S = *I;
  if (!S.Opts.ReuseSolvedState) {
    // Ablation / differential baseline: every query pays a fresh solve.
    SeqOptions O = S.Opts;
    O.Governor = S.Gov;
    return checkReachability(S.Cfg, ProcId, Pc, O);
  }

  SeqResult Result;
  Timer T;
  BddStats Before = S.Mgr.stats();
  BddStats WorkerBefore = S.Ev.workerBddStats();
  fpc::ParallelStats ParBefore = S.Ev.parallelStats();

  // The governor spans exactly this query; an interrupted query leaves
  // the session's persistent state (rings, summaries, memos) at the last
  // completed round, valid for a retry.
  if (S.Gov)
    S.Mgr.setGovernor(S.Gov);
  try {
  const sym::ConfVars &Conf = S.Engine.conf();
  Bdd TargetStates = S.Ev.encodeEqConst(Conf.Mod, ProcId) &
                     S.Ev.encodeEqConst(Conf.Pc, Pc);

  if (S.Engine.split()) {
    bool FirstQuery = !S.SplitSolved;
    if (FirstQuery) {
      const uint64_t Cap = S.Opts.MaxIterations;
      for (RelId R : S.Engine.solveOrder()) {
        FixpointState &St = S.SplitStates[R];
        if (St.Saturated)
          continue; // Solved by an earlier (interrupted) attempt.
        if (Cap != 0 && St.Rounds >= Cap) {
          // Already truncated at the cap by an earlier attempt; resuming
          // would run extra rounds past it.
          S.SplitHitLimit = true;
          S.Ev.pinCompleted(R, St.Value);
          continue;
        }
        EvalOptions RO;
        RO.MaxIterations = Cap;
        EvalResult ER = S.Ev.resume(R, St, RO);
        S.SplitHitLimit |= ER.HitIterationLimit;
        if (!St.Saturated)
          S.Ev.pinCompleted(R, St.Value);
      }
      S.SplitHits = S.SplitStates[S.Engine.hitsRel()].Value;
      S.SplitSummaryNodes =
          S.SplitStates[S.Engine.summaryAllRel()].Value.nodeCount();
      const auto &Stats = S.Ev.stats();
      for (RelId R : S.Engine.solveOrder()) {
        auto It = Stats.find(S.Engine.system().relation(R).Name);
        if (It == Stats.end())
          continue;
        S.SplitIterations =
            std::max(S.SplitIterations, It->second.Iterations);
        S.SplitDeltaRounds += It->second.DeltaRounds;
      }
      S.SplitSolved = true;
    }
    Result.Reachable = !(S.SplitHits & TargetStates).isZero();
    Result.HitIterationLimit = S.SplitHitLimit;
    Result.Iterations = S.SplitIterations;
    Result.DeltaRounds = S.SplitDeltaRounds;
    Result.SummaryNodes = S.SplitSummaryNodes;
    (FirstQuery ? Result.SummariesRecomputed : Result.SummariesReused) =
        S.SplitIterations;
  } else if (S.Opts.Alg == SeqAlgorithm::SummarySimple) {
    bool FirstQuery = !S.SimpleSolved;
    if (FirstQuery) {
      // Same flow as the one-shot solve: no early stop in this branch, so
      // both values are target-independent and fully reusable.
      EvalOptions EOpts;
      EOpts.MaxIterations = S.Opts.MaxIterations;
      EvalResult Summaries = S.Ev.evaluate(S.Engine.mainRel(), EOpts);
      EvalResult Entries = S.Ev.evaluate(S.Engine.reachEntryRel(), EOpts);
      S.SimpleSummary = Summaries.Value;
      S.SimpleEntries = Entries.Value;
      S.SimpleHitLimit =
          Summaries.HitIterationLimit || Entries.HitIterationLimit;
      S.SimpleSummaryNodes = Summaries.Value.nodeCount();
      const auto &Stats = S.Ev.stats();
      auto It = Stats.find(
          S.Engine.system().relation(S.Engine.mainRel()).Name);
      if (It != Stats.end()) {
        S.SimpleIterations = It->second.Iterations;
        S.SimpleDeltaRounds = It->second.DeltaRounds;
      }
      S.SimpleSolved = true;
    }
    Bdd Hits = (S.SimpleSummary & S.SimpleEntries) & TargetStates;
    Result.Reachable = !Hits.isZero();
    Result.HitIterationLimit = S.SimpleHitLimit;
    Result.Iterations = S.SimpleIterations;
    Result.DeltaRounds = S.SimpleDeltaRounds;
    Result.SummaryNodes = S.SimpleSummaryNodes;
    (FirstQuery ? Result.SummariesRecomputed : Result.SummariesReused) =
        S.SimpleIterations;
  } else {
    bool EarlyStop = S.Opts.EarlyStop;
    IncrementalFixpoint::Answer A =
        S.Fix.query(S.Ev, S.Engine.mainRel(), TargetStates, EarlyStop,
                    S.Opts.MaxIterations);
    Result.Reachable = A.Reachable;
    Result.HitIterationLimit = A.HitIterationLimit;
    Result.Iterations = A.Iterations;
    Result.SummaryNodes = A.Value.nodeCount();
    // A fresh solve's DeltaRounds is Iterations - 1 whenever the delta
    // core runs (every round after the first is a delta round, however
    // the solve stops), and 0 under the naive scheme.
    bool DeltaCore = S.Opts.Strategy == EvalStrategy::SemiNaive &&
                     S.Ev.plan(S.Engine.mainRel()).SemiNaive;
    Result.DeltaRounds =
        DeltaCore && A.Iterations > 0 ? A.Iterations - 1 : 0;
    Result.SummariesReused = A.RoundsReused;
    Result.SummariesRecomputed = A.RoundsComputed;
  }
  } catch (const support::ResourceInterrupt &RI) {
    Result.Limit = RI.Limit;
  }
  S.Mgr.setGovernor(nullptr);

  // Session statistics are cumulative where fresh solves report
  // per-solve numbers: Relations accumulates across queries, and the
  // BDD counters are reported as this query's delta on the shared
  // manager (peaks stay absolute).
  Result.Relations = S.Ev.stats();
  Result.CondensationWidth = S.Engine.condensationWidth();
  Result.SummaryRelations = S.Engine.summaryRelations();
  Result.Bdd = S.Mgr.stats().since(Before);
  Result.Bdd.merge(S.Ev.workerBddStats().since(WorkerBefore));
  fpc::ParallelStats ParDelta = S.Ev.parallelStats().since(ParBefore);
  Result.SccsSolvedParallel = ParDelta.SccsSolvedParallel;
  Result.ImportedNodes = ParDelta.ImportedNodes;
  Result.Seconds = T.seconds();
  S.PeakLive = std::max(S.PeakLive, liveNodes());
  return Result;
}

SeqResult SeqSession::solveLabel(const std::string &Label) {
  unsigned ProcId = 0, Pc = 0;
  if (!I->Cfg.findLabelPc(Label, ProcId, Pc)) {
    SeqResult Result;
    Result.TargetFound = false;
    return Result;
  }
  return solve(ProcId, Pc);
}

WitnessResult SeqSession::solveWithWitness(unsigned ProcId, unsigned Pc) {
  if (!I->Opts.ReuseSolvedState) {
    SeqOptions O = I->Opts;
    O.Governor = I->Gov;
    return checkReachabilityWithWitness(I->Cfg, ProcId, Pc, O);
  }
  if (!I->Witness) {
    // The EF algorithms run the very system the extractor walks, so hand
    // it the session's own engine, manager, evaluator, and recorded rings
    // (borrowed mode): witness and plain queries then share one solve and
    // one copy of every round, instead of the witness sub-session
    // re-solving EntryForward on a second manager. The other algorithms
    // solve a different system, so they keep an owned (delta-ringed)
    // sub-session.
    // The split compiles a different system than the (monolithic
    // EntryForward) extractor walks, so split sessions always use an
    // owned witness sub-session.
    bool Shared = I->Opts.MonolithicSummary &&
                  (I->Opts.Alg == SeqAlgorithm::EntryForward ||
                   I->Opts.Alg == SeqAlgorithm::EntryForwardSplit);
    if (Shared)
      I->Witness = std::make_unique<WitnessSession>(I->Engine, I->Mgr, I->Ev,
                                                    I->Fix, I->Opts);
    else
      I->Witness = std::make_unique<WitnessSession>(I->Cfg, I->Opts);
    I->Witness->setGovernor(I->Gov);
  }
  WitnessResult R = I->Witness->query(ProcId, Pc);
  I->PeakLive = std::max(I->PeakLive, liveNodes());
  return R;
}

bool SeqSession::answersFromState(unsigned ProcId, unsigned Pc,
                                  bool Witness) {
  Impl &S = *I;
  if (!S.Opts.ReuseSolvedState)
    return false;
  if (Witness)
    // Once the witness sub-session has solved its rings, any target is a
    // pure extraction.
    return S.Witness && S.Witness->solved();
  if (S.Engine.split())
    // The split chain is target-independent: once solved, every query is
    // a conjunction against the cached Hits value.
    return S.SplitSolved;
  if (S.Opts.Alg == SeqAlgorithm::SummarySimple)
    return S.SimpleSolved;
  const sym::ConfVars &Conf = S.Engine.conf();
  Bdd TargetStates = S.Ev.encodeEqConst(Conf.Mod, ProcId) &
                     S.Ev.encodeEqConst(Conf.Pc, Pc);
  return S.Fix.answersFromState(TargetStates, S.Opts.EarlyStop,
                                S.Opts.MaxIterations);
}

SeqResult reach::checkReachability(const bp::ProgramCfg &Cfg, unsigned ProcId,
                                   unsigned Pc, const SeqOptions &Opts) {
  SeqEngine Engine(Cfg, Opts.Alg, !Opts.MonolithicSummary);
  return Engine.solve(ProcId, Pc, Opts);
}

SeqResult reach::checkReachabilityOfLabel(const bp::ProgramCfg &Cfg,
                                          const std::string &Label,
                                          const SeqOptions &Opts) {
  unsigned ProcId = 0, Pc = 0;
  if (!Cfg.findLabelPc(Label, ProcId, Pc)) {
    SeqResult Result;
    Result.TargetFound = false;
    return Result;
  }
  return checkReachability(Cfg, ProcId, Pc, Opts);
}

std::string reach::formulaText(const bp::ProgramCfg &Cfg, SeqAlgorithm Alg) {
  SeqEngine Engine(Cfg, Alg);
  return Engine.text();
}

std::string reach::formulaText(const bp::ProgramCfg &Cfg,
                               const SeqOptions &Opts) {
  SeqEngine Engine(Cfg, Opts.Alg, !Opts.MonolithicSummary);
  return Engine.text();
}
