//===- ConcReach.cpp - Bounded context-switching reachability -------------===//

#include "concurrent/ConcReach.h"

#include "fpcalc/Evaluator.h"
#include "symbolic/Encode.h"

#include <algorithm>
#include <cmath>
#include <optional>

using namespace getafix;
using namespace getafix::conc;
using namespace getafix::fpc;
using namespace getafix::sym;

std::vector<bp::ProgramCfg>
conc::buildThreadCfgs(const bp::ConcurrentProgram &C) {
  std::vector<bp::ProgramCfg> Cfgs;
  Cfgs.reserve(C.numThreads());
  for (const auto &Thread : C.Threads)
    Cfgs.push_back(bp::buildCfg(*Thread));
  return Cfgs;
}

unsigned conc::contextBound(const SolveConfig &Config, unsigned NumThreads) {
  if (Config.Rounds != 0)
    return contextSwitchesForRounds(Config.Rounds, NumThreads);
  return Config.ContextBound;
}

namespace {

class ConcEngine {
public:
  ConcEngine(const bp::ConcurrentProgram &Conc,
             const std::vector<bp::ProgramCfg> &Cfgs,
             const SolveConfig &Config)
      : Conc(Conc), Cfgs(Cfgs), K(contextBound(Config, Conc.numThreads())),
        N(Conc.numThreads()),
        RoundRobin(Config.RoundRobin || Config.Rounds != 0), Factory(Sys) {
    buildSystem();
  }

  SolveStats solve(unsigned Thread, unsigned ProcId, unsigned Pc,
                   const SolveConfig &Config);

  // Shared by the one-shot solve and ConcSession, so both compute the
  // identical target set and reachable-set statistic.
  void bindInputs(Evaluator &Ev);
  Bdd targetStates(Evaluator &Ev, unsigned Thread, unsigned ProcId,
                   unsigned Pc);
  double reachStatesOf(Evaluator &Ev, const Bdd &Value);
  RelId reachRel() const { return Reach; }
  const VarFactory &factory() const { return Factory; }
  const System &system() const { return Sys; }
  /// Reads a solve's counters out: Reach's rounds, the condensation width
  /// computed once in buildSystem, and one summary relation — Reach is the
  /// whole program's, over every thread.
  void finish(const SolveMeter &Meter, SolveStats &Out, Evaluator &Ev,
              const IncrementalFixpoint::Answer *Answer = nullptr) const {
    Meter.finish(Out, Ev, {Reach}, Width, /*SummaryRelations=*/1, Answer);
  }

private:
  void buildSystem();

  /// Head argument vector with selected state components overridden.
  std::vector<Term> reachArgs(Term Mod, Term Pc, Term CL, Term CG, Term ECL,
                              Term ECG, Term Ecs, Term Cs) const;

  /// OR over (context c, thread thr) of `cs==c && t_c==thr && Rel_thr(args)`
  /// — the calculus rendering of "the active thread's relation". \p CsVar
  /// selects which context variable tags the disjunction.
  Formula *activeRel(VarId CsVar,
                     const std::vector<RelId> &PerThread,
                     const std::vector<VarId> &Args);
  Formula *activeRelTerms(VarId CsVar, const std::vector<RelId> &PerThread,
                          const std::vector<Term> &Args);

  Formula *initClause();
  Formula *internalClause();
  Formula *callClause();
  Formula *returnClause();
  Formula *firstSwitchClause(unsigned C);
  Formula *switchBackClause(unsigned C);

  const bp::ConcurrentProgram &Conc;
  const std::vector<bp::ProgramCfg> &Cfgs;
  unsigned K;
  unsigned N;
  bool RoundRobin;

  System Sys;
  VarFactory Factory;
  StateDomains Doms;
  DomainId CsDom = 0, ThreadDom = 0;
  std::vector<std::unique_ptr<ProgramEncoder>> Encs;

  // Head tuple: Reach(S, Ecs, Cs, G[1..K], T[0..K]).
  ConfVars S;
  VarId Ecs = 0, Cs = 0;
  std::vector<VarId> G; ///< G[1..K]; index 0 unused.
  std::vector<VarId> T; ///< T[0..K].

  // Quantified temporaries.
  VarId XPc = 0, XL = 0, XG = 0;                    ///< Internal move.
  VarId DMod = 0, DPc = 0, DL = 0, DEL = 0, DEG = 0; ///< Caller / prev.
  VarId DEcs = 0;                                    ///< Quantified ecs'.
  VarId CsP = 0;                                     ///< Quantified cs'.
  VarId RTPc = 0, RTCL = 0, RTCG = 0;                ///< Return caller.
  VarId RUMod = 0, RUPcX = 0, RULX = 0, RUGX = 0, RUECL = 0; ///< Callee.

  // Per-thread relation id vectors (indexed by thread).
  std::vector<RelId> RInt, RCall, RSkip, RRet1, RRet2, RExit, RInit;

  RelId Reach = 0;
  unsigned Width = 0; ///< Dependency-condensation width (see buildSystem).
};

} // namespace

std::vector<Term> ConcEngine::reachArgs(Term Mod, Term Pc, Term CL, Term CG,
                                        Term ECL, Term ECG, Term Ecs_,
                                        Term Cs_) const {
  std::vector<Term> Args{Mod, Pc, CL, CG, ECL, ECG, Ecs_, Cs_};
  for (unsigned I = 1; I <= K; ++I)
    Args.push_back(Term::var(G[I]));
  for (unsigned I = 0; I <= K; ++I)
    Args.push_back(Term::var(T[I]));
  return Args;
}

Formula *ConcEngine::activeRelTerms(VarId CsVar,
                                    const std::vector<RelId> &PerThread,
                                    const std::vector<Term> &Args) {
  std::vector<Formula *> Disjuncts;
  for (unsigned C = 0; C <= K; ++C)
    for (unsigned Thr = 0; Thr < N; ++Thr)
      Disjuncts.push_back(Sys.mkAnd({
          Sys.eqConst(CsVar, C),
          Sys.eqConst(T[C], Thr),
          Sys.apply(PerThread[Thr], Args),
      }));
  return Sys.mkOr(std::move(Disjuncts));
}

Formula *ConcEngine::activeRel(VarId CsVar,
                               const std::vector<RelId> &PerThread,
                               const std::vector<VarId> &Args) {
  std::vector<Term> Terms;
  for (VarId V : Args)
    Terms.push_back(Term::var(V));
  return activeRelTerms(CsVar, PerThread, Terms);
}

/// [phi_init] cs = ecs = 0, u = v an entry of thread t_0's main.
///
/// Shared globals start all-false (deterministically). The Section-5 tuple
/// records shared valuations only at switch points (g_1..g_k), so runs are
/// stitched on the assumption that every thread portion starts either at a
/// recorded g_i or at the *unique* initial valuation; a nondeterministic
/// initial valuation would make the stitching unsound. Concurrent models
/// (e.g. the Bluetooth driver) initialize their shared state explicitly.
Formula *ConcEngine::initClause() {
  std::vector<Formula *> InitDisjuncts;
  for (unsigned Thr = 0; Thr < N; ++Thr)
    InitDisjuncts.push_back(Sys.mkAnd({
        Sys.eqConst(T[0], Thr),
        Sys.apply(RInit[Thr],
                  {Term::var(S.Mod), Term::var(S.Pc), Term::var(S.CL)}),
    }));
  return Sys.mkAnd({
      Sys.eqConst(Cs, 0),
      Sys.eqConst(Ecs, 0),
      Sys.eqConst(S.CG, 0),
      Sys.mkOr(std::move(InitDisjuncts)),
      Sys.eqVar(S.CL, S.ECL),
      Sys.eqVar(S.CG, S.ECG),
  });
}

/// [phi_int] an internal move of the active thread.
Formula *ConcEngine::internalClause() {
  return Sys.exists(
      {XPc, XL, XG},
      Sys.mkAnd({
          Sys.apply(Reach, reachArgs(Term::var(S.Mod), Term::var(XPc),
                                     Term::var(XL), Term::var(XG),
                                     Term::var(S.ECL), Term::var(S.ECG),
                                     Term::var(Ecs), Term::var(Cs))),
          activeRel(Cs, RInt,
                    {S.Mod, XPc, S.Pc, XL, S.CL, XG, S.CG}),
      }));
}

/// [phi_call] entering a procedure: the new summary's entry count is cs.
Formula *ConcEngine::callClause() {
  Formula *Witness = Sys.exists(
      {DMod, DPc, DL, DEL, DEG, DEcs},
      Sys.mkAnd({
          Sys.apply(Reach, reachArgs(Term::var(DMod), Term::var(DPc),
                                     Term::var(DL), Term::var(S.CG),
                                     Term::var(DEL), Term::var(DEG),
                                     Term::var(DEcs), Term::var(Cs))),
          activeRel(Cs, RCall, {DMod, S.Mod, DPc, DL, S.CL, S.CG}),
      }));
  return Sys.mkAnd({
      Sys.eqConst(S.Pc, 0),
      Sys.eqVar(S.CL, S.ECL),
      Sys.eqVar(S.CG, S.ECG),
      Sys.eqVar(Ecs, Cs),
      Witness,
  });
}

/// [phi_ret] skipping a completed call: the caller may date from an earlier
/// context cs' <= cs; the callee summary spans cs' to cs. Uses the split
/// Return (Section 4.2's rewrite) with the shared link variables
/// quantified at the top.
Formula *ConcEngine::returnClause() {
  // cs' <= cs: disjunction over value pairs of the small Cs domain.
  std::vector<Formula *> LeqPairs;
  for (unsigned A = 0; A <= K; ++A)
    for (unsigned B = A; B <= K; ++B)
      LeqPairs.push_back(
          Sys.mkAnd({Sys.eqConst(CsP, A), Sys.eqConst(Cs, B)}));
  Formula *CsLeq = Sys.mkOr(std::move(LeqPairs));

  Formula *GroupA = Sys.exists(
      {RTCL},
      Sys.mkAnd({
          Sys.apply(Reach, reachArgs(Term::var(S.Mod), Term::var(RTPc),
                                     Term::var(RTCL), Term::var(RTCG),
                                     Term::var(S.ECL), Term::var(S.ECG),
                                     Term::var(Ecs), Term::var(CsP))),
          activeRel(CsP, RSkip, {S.Mod, RTPc, S.Pc}),
          activeRel(CsP, RRet1, {S.Mod, RUMod, RTPc, RTCL, S.CL}),
          activeRel(CsP, RCall, {S.Mod, RUMod, RTPc, RTCL, RUECL, RTCG}),
      }));

  Formula *GroupB = Sys.exists(
      {RULX, RUGX},
      Sys.mkAnd({
          Sys.apply(Reach, reachArgs(Term::var(RUMod), Term::var(RUPcX),
                                     Term::var(RULX), Term::var(RUGX),
                                     Term::var(RUECL), Term::var(RTCG),
                                     Term::var(CsP), Term::var(Cs))),
          activeRel(Cs, RExit, {RUMod, RUPcX}),
          activeRel(Cs, RRet2,
                    {S.Mod, RUMod, RTPc, RUPcX, RULX, S.CL, RUGX, S.CG}),
      }));

  return Sys.exists({RTPc, RTCG, RUMod, RUPcX, RUECL, CsP},
                    Sys.mkAnd({CsLeq, GroupA, GroupB}));
}

/// [phi_1st_switch] context C starts the first run of thread t_C: globals
/// continue from some reachable state of context C-1; locals are fresh.
Formula *ConcEngine::firstSwitchClause(unsigned C) {
  assert(C >= 1 && C <= K && "switch clauses start at context 1");

  // First(t_C, C, t): no earlier context ran this thread.
  std::vector<Formula *> FirstParts;
  for (unsigned R = 0; R < C; ++R)
    FirstParts.push_back(Sys.mkNot(Sys.eqVar(T[C], T[R])));

  // Init(t_C, v.pc): v is the entry of the switched-to thread's main.
  std::vector<Formula *> InitDisjuncts;
  for (unsigned Thr = 0; Thr < N; ++Thr)
    InitDisjuncts.push_back(Sys.mkAnd({
        Sys.eqConst(T[C], Thr),
        Sys.apply(RInit[Thr],
                  {Term::var(S.Mod), Term::var(S.Pc), Term::var(S.CL)}),
    }));

  // Witness: some state of context C-1 with globals = g_C (= v.Global).
  Formula *Witness = Sys.exists(
      {DMod, DPc, DL, DEL, DEG, DEcs},
      Sys.apply(Reach, reachArgs(Term::var(DMod), Term::var(DPc),
                                 Term::var(DL), Term::var(S.CG),
                                 Term::var(DEL), Term::var(DEG),
                                 Term::var(DEcs), Term::constant(C - 1))));

  std::vector<Formula *> Parts{Sys.eqConst(Cs, C), Sys.eqVar(Ecs, Cs),
                               Sys.eqVar(S.CG, G[C]),
                               Sys.eqVar(S.CL, S.ECL),
                               Sys.eqVar(S.CG, S.ECG)};
  for (Formula *P : FirstParts)
    Parts.push_back(P);
  Parts.push_back(Sys.mkOr(std::move(InitDisjuncts)));
  Parts.push_back(Witness);
  return Sys.mkAnd(std::move(Parts));
}

/// [phi_switch] context C resumes thread t_C where context R < C left it:
/// control and locals come from the thread's own last tuple, globals from
/// the interleaving (g_C).
Formula *ConcEngine::switchBackClause(unsigned C) {
  assert(C >= 1 && C <= K && "switch clauses start at context 1");

  Formula *Witness = Sys.exists(
      {DMod, DPc, DL, DEL, DEG, DEcs},
      Sys.apply(Reach, reachArgs(Term::var(DMod), Term::var(DPc),
                                 Term::var(DL), Term::var(S.CG),
                                 Term::var(DEL), Term::var(DEG),
                                 Term::var(DEcs), Term::constant(C - 1))));

  // Consecutive(R, C, t) and the thread's own state at context R. The
  // paused tuple's globals must equal g_{R+1}: a run is resumable at v'
  // only if it *ended* context R there, i.e. the recorded valuation of
  // switch R+1 is exactly v'.Global. (Quantifying the paused globals away
  // instead lets the fixpoint resume from mid-context states whose
  // continuation disagrees with the recorded interleaving — unsound, and
  // caught by differential testing against the explicit oracle.)
  std::vector<Formula *> ResumeDisjuncts;
  for (unsigned R = 0; R < C; ++R) {
    std::vector<Formula *> Parts{Sys.eqVar(T[C], T[R])};
    for (unsigned I = R + 1; I < C; ++I)
      Parts.push_back(Sys.mkNot(Sys.eqVar(T[I], T[C])));
    Parts.push_back(
        Sys.apply(Reach, reachArgs(Term::var(S.Mod), Term::var(S.Pc),
                                   Term::var(S.CL), Term::var(G[R + 1]),
                                   Term::var(S.ECL), Term::var(S.ECG),
                                   Term::var(Ecs), Term::constant(R))));
    ResumeDisjuncts.push_back(Sys.mkAnd(std::move(Parts)));
  }

  return Sys.mkAnd({
      Sys.eqConst(Cs, C),
      // A switch activates *another* program (Section 5 semantics).
      Sys.mkNot(Sys.eqVar(T[C], T[C - 1])),
      Sys.eqVar(S.CG, G[C]),
      Witness,
      Sys.mkOr(std::move(ResumeDisjuncts)),
  });
}

void ConcEngine::buildSystem() {
  assert(N >= 1 && "need at least one thread");

  unsigned MaxProcs = 1, MaxPcs = 1, MaxLocals = 1;
  for (unsigned I = 0; I < N; ++I) {
    MaxProcs = std::max<unsigned>(MaxProcs, Conc.Threads[I]->Procs.size());
    MaxPcs = std::max(MaxPcs, Cfgs[I].maxPcs());
    MaxLocals = std::max(MaxLocals, Conc.Threads[I]->maxLocalSlots());
  }
  unsigned NumShared = std::max<unsigned>(Conc.SharedGlobals.size(), 1);
  unsigned MaxChoice = 1;
  for (const bp::ProgramCfg &Cfg : Cfgs)
    MaxChoice = std::max(MaxChoice, ProgramEncoder::maxChoiceBits(Cfg));

  // Domain creation order is the BDD group order: Context first, Global
  // last among the state domains (VarFactory gives the reasons).
  CsDom = Sys.addDomain("Context", K + 1);
  Doms.Mod = Sys.addDomain("Module", MaxProcs);
  Doms.Pc = Sys.addDomain("PrCount", MaxPcs);
  Doms.LVec = Sys.addBitDomain("Local", MaxLocals);
  Doms.GVec = Sys.addBitDomain("Global", NumShared);
  ThreadDom = Sys.addDomain("Thread", N);
  DomainId ChoiceDom = Sys.addDomain("Choice", uint64_t(1) << MaxChoice);

  for (unsigned I = 0; I < N; ++I) {
    Encs.push_back(std::make_unique<ProgramEncoder>(
        Sys, Factory, Doms, Cfgs[I], ChoiceDom, "_t" + std::to_string(I)));
    RInt.push_back(Encs[I]->ProgramInt);
    RCall.push_back(Encs[I]->ProgramCall);
    RSkip.push_back(Encs[I]->SkipCall);
    RRet1.push_back(Encs[I]->SetReturn1);
    RRet2.push_back(Encs[I]->SetReturn2);
    RExit.push_back(Encs[I]->ExitRel);
    RInit.push_back(Encs[I]->InitRel);
  }

  // Each quantified copy is created right after the Reach formal it
  // stands in for, so its bits sit next to that formal's in the domain's
  // interleaving group (see VarFactory) and applying Reach to copies keeps
  // the variable order. t.CG copies v.CG (caller side) and u.CG (callee
  // side); csP copies cs (caller side) and ecs (callee side).
  S.Mod = Factory.makeVar("v.mod", Doms.Mod);
  DMod = Factory.makeVar("d.mod", Doms.Mod);
  RUMod = Factory.makeVar("w.mod", Doms.Mod);
  S.Pc = Factory.makeVar("v.pc", Doms.Pc);
  XPc = Factory.makeVar("x.pc", Doms.Pc);
  DPc = Factory.makeVar("d.pc", Doms.Pc);
  RTPc = Factory.makeVar("t.pc", Doms.Pc);
  RUPcX = Factory.makeVar("w.pc", Doms.Pc);
  S.CL = Factory.makeVar("v.CL", Doms.LVec);
  XL = Factory.makeVar("x.CL", Doms.LVec);
  DL = Factory.makeVar("d.CL", Doms.LVec);
  RTCL = Factory.makeVar("t.CL", Doms.LVec);
  RULX = Factory.makeVar("w.CL", Doms.LVec);
  S.ECL = Factory.makeVar("u.CL", Doms.LVec);
  DEL = Factory.makeVar("d.ECL", Doms.LVec);
  RUECL = Factory.makeVar("w.ECL", Doms.LVec);
  S.CG = Factory.makeVar("v.CG", Doms.GVec);
  XG = Factory.makeVar("x.CG", Doms.GVec);
  RUGX = Factory.makeVar("w.CG", Doms.GVec);
  RTCG = Factory.makeVar("t.CG", Doms.GVec);
  S.ECG = Factory.makeVar("u.CG", Doms.GVec);
  DEG = Factory.makeVar("d.ECG", Doms.GVec);
  G.resize(K + 1);
  for (unsigned I = 1; I <= K; ++I)
    G[I] = Factory.makeVar("g" + std::to_string(I), Doms.GVec);
  Ecs = Factory.makeVar("ecs", CsDom);
  DEcs = Factory.makeVar("d.ecs", CsDom);
  CsP = Factory.makeVar("csP", CsDom);
  Cs = Factory.makeVar("cs", CsDom);
  T.resize(K + 1);
  for (unsigned I = 0; I <= K; ++I)
    T[I] = Factory.makeVar("t" + std::to_string(I), ThreadDom);

  std::vector<VarId> Formals{S.Mod, S.Pc, S.CL, S.CG, S.ECL, S.ECG, Ecs, Cs};
  for (unsigned I = 1; I <= K; ++I)
    Formals.push_back(G[I]);
  for (unsigned I = 0; I <= K; ++I)
    Formals.push_back(T[I]);
  Reach = Sys.declareRel("Reach", Formals);

  std::vector<Formula *> Clauses{initClause(), internalClause(),
                                 callClause(), returnClause()};
  for (unsigned C = 1; C <= K; ++C) {
    Clauses.push_back(firstSwitchClause(C));
    Clauses.push_back(switchBackClause(C));
  }
  Formula *Def = Sys.mkOr(std::move(Clauses));

  // Round-robin mode: restrict the fixpoint to the schedule t_i = i mod n.
  // Every clause relates tuples over the *same* t vector (the Section-5
  // invariant), so filtering the definition restricts the least fixed-point
  // to exactly the round-robin tuples of the unrestricted one.
  if (RoundRobin) {
    std::vector<Formula *> Schedule;
    for (unsigned I = 0; I <= K; ++I)
      Schedule.push_back(Sys.eqConst(T[I], I % N));
    Schedule.push_back(Def);
    Def = Sys.mkAnd(std::move(Schedule));
  }
  Sys.define(Reach, Def);

  // The sequential engines' per-procedure summary split does not transfer
  // here: the context-switch clauses make Reach read every thread's
  // transition relations under every context, so a per-procedure (or
  // per-thread) relation family would still collapse into one dependency
  // SCC. A genuine widening would need per-(thread, context) summary
  // relations with switch points as interface tuples — this clause builder
  // is the seam. Until then the condensation width is reported honestly
  // from the dependency analysis (Reach is the only defined relation: 1).
  DependencyGraph Deps(Sys);
  Width = definedCondensationWidth(Sys, Deps);

#ifndef NDEBUG
  DiagnosticEngine Diags;
  assert(Sys.validate(Diags) && "concurrent formulae must type-check");
#endif
}

void ConcEngine::bindInputs(Evaluator &Ev) {
  for (unsigned I = 0; I < N; ++I)
    Encs[I]->bind(Ev);
}

Bdd ConcEngine::targetStates(Evaluator &Ev, unsigned Thread, unsigned ProcId,
                             unsigned Pc) {
  // Target: v at (ProcId, Pc) while the target thread is active.
  Bdd Target = Ev.manager().zero();
  for (unsigned C = 0; C <= K; ++C)
    Target |= Ev.encodeEqConst(Cs, C) & Ev.encodeEqConst(T[C], Thread) &
              Ev.encodeEqConst(S.Mod, ProcId) & Ev.encodeEqConst(S.Pc, Pc);
  return Target;
}

double ConcEngine::reachStatesOf(Evaluator &Ev, const Bdd &Value) {
  // Tuple count for Figure 3's "reachable set size". Components g_j / t_j
  // with j beyond the tuple's own context count cs are semantically
  // irrelevant (the formula never constrains them), so counting raw
  // satisfying assignments would inflate the size by 2^|G|·n per unused
  // slot; pin them to zero before counting.
  BddManager &Mgr = Ev.manager();
  unsigned TupleBits = 0;
  for (VarId V : Sys.relation(Reach).Formals)
    TupleBits += unsigned(Ev.layout().bits(V).size());
  double States = 0;
  for (unsigned C = 0; C <= K; ++C) {
    Bdd Masked = Value & Ev.encodeEqConst(Cs, C);
    for (unsigned J = C + 1; J <= K; ++J) {
      Masked &= Ev.encodeEqConst(G[J], 0);
      Masked &= Ev.encodeEqConst(T[J], 0);
    }
    States += Masked.satCount(Mgr.numVars()) /
              std::pow(2.0, double(Mgr.numVars() - TupleBits));
  }
  return States;
}

SolveStats ConcEngine::solve(unsigned Thread, unsigned ProcId, unsigned Pc,
                             const SolveConfig &Config) {
  SolveStats Result;
  SolveMeter Meter;

  BddManager Mgr;
  Mgr.setGovernor(Config.Governor);
  Evaluator Ev(Sys, Mgr, Factory.makeLayout(Mgr), Config.Threads);
  try {
    bindInputs(Ev);

    Bdd TargetStates = targetStates(Ev, Thread, ProcId, Pc);

    EvalOptions EOpts;
    if (Config.EarlyStop)
      EOpts.EarlyStop = &TargetStates;

    EvalResult R = Ev.evaluate(Reach, EOpts);
    Result.Reachable = !(R.Value & TargetStates).isZero();
    Result.SummaryNodes = R.Value.nodeCount();
    Result.ReachStates = reachStatesOf(Ev, R.Value);
  } catch (const support::ResourceInterrupt &RI) {
    // One-shot solve: state is discarded, so only the limit and the work
    // counters below are reported.
    Result.Limit = RI.Limit;
  }

  finish(Meter, Result, Ev);
  Result.SummariesRecomputed = Result.Iterations;
  return Result;
}

SolveStats conc::checkConcReachability(const bp::ConcurrentProgram &Conc,
                                       const std::vector<bp::ProgramCfg> &Cfgs,
                                       unsigned Thread, unsigned ProcId,
                                       unsigned Pc,
                                       const SolveConfig &Config) {
  ConcEngine Engine(Conc, Cfgs, Config);
  return Engine.solve(Thread, ProcId, Pc, Config);
}

std::vector<std::string>
conc::reorderingApplications(const bp::ConcurrentProgram &Conc,
                             const std::vector<bp::ProgramCfg> &Cfgs,
                             const SolveConfig &Config) {
  ConcEngine Engine(Conc, Cfgs, Config);
  BddManager Mgr;
  Evaluator Ev(Engine.system(), Mgr, Engine.factory().makeLayout(Mgr));
  std::vector<std::string> Out;
  for (const Formula *App : Ev.reorderingApplications())
    Out.push_back(Engine.system().printFormula(*App));
  return Out;
}

//===----------------------------------------------------------------------===//
// ConcSession: cross-query incremental solving
//===----------------------------------------------------------------------===//

struct ConcSession::Impl {
  SolveConfig Config;
  ConcEngine Engine;
  SessionState St;

  // Sessions currently solve on one thread: Reach is one dependency SCC,
  // so the scheduler never finds two SCCs pending. The setting is passed
  // down all the same, as the one-shot solve passes it; queries stay
  // serialized.
  Impl(const bp::ConcurrentProgram &Conc,
       const std::vector<bp::ProgramCfg> &Cfgs, const SolveConfig &Config)
      : Config(Config), Engine(Conc, Cfgs, Config),
        St(Engine.system(), Engine.factory(), Config.Threads) {
    Engine.bindInputs(St.Ev);
    St.sampleGauge();
  }
};

ConcSession::ConcSession(const bp::ConcurrentProgram &Conc,
                         const std::vector<bp::ProgramCfg> &Cfgs,
                         const SolveConfig &Config)
    : I(std::make_unique<Impl>(Conc, Cfgs, Config)) {}

ConcSession::~ConcSession() = default;

void ConcSession::setGovernor(support::ResourceGovernor *G) {
  I->St.setGovernor(G);
}

void ConcSession::clearComputedCache() { I->St.clearComputedCache(); }

SessionState::Gauge ConcSession::gauge() const { return I->St.gauge(); }

SolveStats ConcSession::solve(unsigned Thread, unsigned ProcId, unsigned Pc) {
  Impl &S = *I;
  SolveStats Result;
  SolveMeter Meter(S.St.Ev);
  std::optional<IncrementalFixpoint::Answer> Answer;

  Result.Limit = S.St.governed([&] {
    Bdd TargetStates = S.Engine.targetStates(S.St.Ev, Thread, ProcId, Pc);
    Answer = S.St.Fix.query(S.St.Ev, S.Engine.reachRel(), TargetStates,
                            S.Config.EarlyStop);
    Result.Reachable = Answer->Reachable;
    Result.SummaryNodes = Answer->Value.nodeCount();
    Result.ReachStates = S.Engine.reachStatesOf(S.St.Ev, Answer->Value);
  });
  // The evaluator wrote the fixpoint state back at the last completed
  // round boundary, so a stopped query leaves the session valid: a retry
  // resumes the deterministic round chain bit-identically.
  if (Result.Limit != support::ResourceLimit::None)
    Answer.reset();

  S.Engine.finish(Meter, Result, S.St.Ev, Answer ? &*Answer : nullptr);
  S.St.sampleGauge();
  return Result;
}

bool ConcSession::answersFromState(unsigned Thread, unsigned ProcId,
                                   unsigned Pc) {
  Impl &S = *I;
  Bdd TargetStates = S.Engine.targetStates(S.St.Ev, Thread, ProcId, Pc);
  return S.St.Fix.answersFromState(TargetStates, S.Config.EarlyStop);
}
