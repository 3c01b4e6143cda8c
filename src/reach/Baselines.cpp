//===- Baselines.cpp - Comparison solvers ---------------------------------===//

#include "reach/Baselines.h"

#include "fpcalc/Evaluator.h"
#include "interp/SummaryOracle.h"
#include "support/Timer.h"
#include "symbolic/Encode.h"

using namespace getafix;
using namespace getafix::reach;
using namespace getafix::fpc;
using namespace getafix::sym;

namespace {

/// The Moped-style native solver: all variable bookkeeping is manual, which
/// is the programming style the paper's calculus is designed to replace.
class PostStarSolver {
public:
  PostStarSolver(const bp::ProgramCfg &Cfg, unsigned ProcId, unsigned Pc,
                 const sym::SolveConfig &Config)
      : Cfg(Cfg), Factory(Sys), EarlyStop(Config.EarlyStop),
        TargetProcId(ProcId), TargetPc(Pc) {
    Mgr.setGovernor(Config.Governor);
  }

  sym::SolveStats run();

private:
  void build(unsigned ProcId, unsigned Pc);
  BddPerm perm(const std::vector<std::pair<VarId, VarId>> &Pairs);
  BddCube cube(const std::vector<VarId> &Vars);

  Bdd internalImage(const Bdd &From);
  Bdd callImage(const Bdd &From);
  Bdd returnImage(const Bdd &Callers, const Bdd &Callees);

  const bp::ProgramCfg &Cfg;
  System Sys;
  VarFactory Factory;
  StateDomains Doms;
  std::unique_ptr<ProgramEncoder> Enc;
  BddManager Mgr;
  std::unique_ptr<Evaluator> Ev;
  bool EarlyStop;
  unsigned TargetProcId;
  unsigned TargetPc;

  // State tuple and temporaries (mirrors the formula engine's layout).
  ConfVars S;
  VarId RTPc = 0, RTCL = 0, RTCG = 0;
  VarId RUMod = 0, RUPcX = 0, RULX = 0, RUGX = 0, RUECL = 0;

  // Precomputed renamed relation copies and operation cubes.
  Bdd ProgIntR, ProgCallEntryR, SkipR, Ret1R, ProgCallRetR, ExitR, Ret2R;
  Bdd InitStates, TargetStates;
  BddPerm IntIn, IntOut, CallIn, CallOut, RetCallerIn, RetCalleeIn;
  BddCube IntCube, CallCube, RetAC, RetBC, RetOuterC;
  Bdd EqClEcl, EqCgEcg, PcIsZero;
};

} // namespace

BddPerm
PostStarSolver::perm(const std::vector<std::pair<VarId, VarId>> &Pairs) {
  std::vector<std::pair<unsigned, unsigned>> BitPairs;
  for (auto [From, To] : Pairs) {
    const std::vector<unsigned> &F = Ev->layout().bits(From);
    const std::vector<unsigned> &T = Ev->layout().bits(To);
    assert(F.size() == T.size() && "width mismatch in renaming");
    for (size_t I = 0; I < F.size(); ++I)
      BitPairs.emplace_back(F[I], T[I]);
  }
  return Mgr.makePermutation(BitPairs);
}

BddCube PostStarSolver::cube(const std::vector<VarId> &Vars) {
  std::vector<unsigned> Bits;
  for (VarId V : Vars)
    for (unsigned B : Ev->layout().bits(V))
      Bits.push_back(B);
  return Mgr.makeCube(Bits);
}

void PostStarSolver::build(unsigned ProcId, unsigned Pc) {
  const bp::Program &Prog = *Cfg.Prog;
  Doms.Mod = Sys.addDomain("Module", Prog.Procs.size());
  Doms.Pc = Sys.addDomain("PrCount", Cfg.maxPcs());
  Doms.GVec = Sys.addBitDomain("Global",
                               std::max(Prog.numGlobals(), 1u));
  Doms.LVec = Sys.addBitDomain("Local",
                               std::max(Prog.maxLocalSlots(), 1u));
  DomainId ChoiceDom = Sys.addDomain(
      "Choice", uint64_t(1) << ProgramEncoder::maxChoiceBits(Cfg));
  Enc = std::make_unique<ProgramEncoder>(Sys, Factory, Doms, Cfg, ChoiceDom);

  S.Mod = Factory.makeVar("s.mod", Doms.Mod);
  S.Pc = Factory.makeVar("s.pc", Doms.Pc);
  S.CG = Factory.makeVar("s.CG", Doms.GVec);
  S.CL = Factory.makeVar("s.CL", Doms.LVec);
  S.ECG = Factory.makeVar("s.ECG", Doms.GVec);
  S.ECL = Factory.makeVar("s.ECL", Doms.LVec);
  RTPc = Factory.makeVar("t.pc", Doms.Pc);
  RTCL = Factory.makeVar("t.CL", Doms.LVec);
  RTCG = Factory.makeVar("t.CG", Doms.GVec);
  RUMod = Factory.makeVar("u.mod", Doms.Mod);
  RUPcX = Factory.makeVar("u.pc", Doms.Pc);
  RULX = Factory.makeVar("u.CL", Doms.LVec);
  RUGX = Factory.makeVar("u.CG", Doms.GVec);
  RUECL = Factory.makeVar("u.ECL", Doms.LVec);

  Ev = std::make_unique<Evaluator>(Sys, Mgr, Factory.makeLayout(Mgr));
  Enc->bind(*Ev);

  const ProgramEncoder::FormalSets &F = Enc->formals();

  // Rename all relations onto the solver's variable copies once.
  ProgIntR = Ev->input(Enc->ProgramInt)
                 .permute(perm({{F.IMod, S.Mod},
                                {F.IPcFrom, RTPc},
                                {F.IPcTo, S.Pc},
                                {F.ILFrom, RTCL},
                                {F.ILTo, S.CL},
                                {F.IGFrom, RTCG},
                                {F.IGTo, S.CG}}));
  // Entry discovery: caller (t-copy) calls S-copy entry.
  ProgCallEntryR = Ev->input(Enc->ProgramCall)
                       .permute(perm({{F.CModCaller, RUMod},
                                      {F.CModCallee, S.Mod},
                                      {F.CPc, RTPc},
                                      {F.CLCaller, RTCL},
                                      {F.CLEntry, S.CL},
                                      {F.CG, S.CG}}));
  SkipR = Ev->input(Enc->SkipCall)
              .permute(perm({{F.SMod, S.Mod},
                             {F.SPcCall, RTPc},
                             {F.SPcRet, S.Pc}}));
  Ret1R = Ev->input(Enc->SetReturn1)
              .permute(perm({{F.R1Mod, S.Mod},
                             {F.R1ModCallee, RUMod},
                             {F.R1Pc, RTPc},
                             {F.R1LCaller, RTCL},
                             {F.R1LRet, S.CL}}));
  ProgCallRetR = Ev->input(Enc->ProgramCall)
                     .permute(perm({{F.CModCaller, S.Mod},
                                    {F.CModCallee, RUMod},
                                    {F.CPc, RTPc},
                                    {F.CLCaller, RTCL},
                                    {F.CLEntry, RUECL},
                                    {F.CG, RTCG}}));
  ExitR = Ev->input(Enc->ExitRel)
              .permute(perm({{F.EMod, RUMod}, {F.EPc, RUPcX}}));
  Ret2R = Ev->input(Enc->SetReturn2)
              .permute(perm({{F.R2Mod, S.Mod},
                             {F.R2ModCallee, RUMod},
                             {F.R2Pc, RTPc},
                             {F.R2PcExit, RUPcX},
                             {F.R2LExit, RULX},
                             {F.R2LRet, S.CL},
                             {F.R2GExit, RUGX},
                             {F.R2GRet, S.CG}}));

  InitStates = Ev->input(Enc->InitRel)
                   .permute(perm({{F.NMod, S.Mod},
                                  {F.NPc, S.Pc},
                                  {F.NL, S.CL}}));
  EqClEcl = Ev->encodeEqVar(S.CL, S.ECL);
  EqCgEcg = Ev->encodeEqVar(S.CG, S.ECG);
  PcIsZero = Ev->encodeEqConst(S.Pc, 0);
  InitStates &= EqClEcl & EqCgEcg;

  TargetStates =
      Ev->encodeEqConst(S.Mod, ProcId) & Ev->encodeEqConst(S.Pc, Pc);

  IntIn = perm({{S.Pc, RTPc}, {S.CL, RTCL}, {S.CG, RTCG}});
  IntCube = cube({RTPc, RTCL, RTCG});
  IntOut = perm({}); // Identity: images land directly on the S copy.
  CallIn = perm({{S.Mod, RUMod},
                 {S.Pc, RTPc},
                 {S.CL, RTCL},
                 {S.CG, S.CG}}); // Caller globals stay on S.CG.
  CallCube = cube({RUMod, RTPc, RTCL, S.ECL, S.ECG});
  RetCallerIn = perm({{S.Pc, RTPc}, {S.CL, RTCL}, {S.CG, RTCG}});
  RetCalleeIn = perm({{S.Mod, RUMod},
                      {S.Pc, RUPcX},
                      {S.CL, RULX},
                      {S.CG, RUGX},
                      {S.ECL, RUECL},
                      {S.ECG, RTCG}});
  RetAC = cube({RTCL});
  RetBC = cube({RULX, RUGX});
  RetOuterC = cube({RTPc, RTCG, RUMod, RUPcX, RUECL});
}

Bdd PostStarSolver::internalImage(const Bdd &From) {
  return From.permute(IntIn).andExists(ProgIntR, IntCube);
}

Bdd PostStarSolver::callImage(const Bdd &From) {
  Bdd Callers = From.permute(CallIn);
  Bdd Entries = Callers.andExists(ProgCallEntryR, CallCube);
  return Entries & PcIsZero & EqClEcl & EqCgEcg;
}

Bdd PostStarSolver::returnImage(const Bdd &Callers, const Bdd &Callees) {
  Bdd GroupA = Callers.permute(RetCallerIn) & SkipR & Ret1R;
  GroupA = GroupA.andExists(ProgCallRetR, RetAC);
  Bdd GroupB = (Callees.permute(RetCalleeIn) & ExitR).andExists(Ret2R,
                                                                RetBC);
  return GroupA.andExists(GroupB, RetOuterC);
}

sym::SolveStats PostStarSolver::run() {
  sym::SolveStats Result;
  Timer T;

  Bdd Reach, Frontier;
  try {
    build(TargetProcId, TargetPc);
    Reach = InitStates;
    Frontier = Reach;
    while (!Frontier.isZero()) {
      if (support::ResourceGovernor *G = Mgr.governor())
        G->check();
      ++Result.Iterations;
      if (EarlyStop && !(Frontier & TargetStates).isZero()) {
        Result.Reachable = true;
        break;
      }
      Bdd New = internalImage(Frontier) | callImage(Frontier) |
                returnImage(Frontier, Reach) | returnImage(Reach, Frontier);
      Bdd Fresh = New & !Reach;
      Reach |= Fresh;
      Frontier = std::move(Fresh);
    }
    if (!Result.Reachable)
      Result.Reachable = !(Reach & TargetStates).isZero();
  } catch (const support::ResourceInterrupt &RI) {
    // A mid-iteration trip leaves Reach at the last completed round;
    // report what was found so far plus the limit. The manager stays
    // consistent (partial operation results are unreferenced garbage).
    Result.Limit = RI.Limit;
    Result.Reachable = !Reach.isNull() && !(Reach & TargetStates).isZero();
  }
  Result.SummaryNodes = Reach.isNull() ? 0 : Reach.nodeCount();
  Result.Bdd = Mgr.stats();
  Result.Seconds = T.seconds();
  return Result;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

sym::SolveStats reach::mopedPostStar(const bp::ProgramCfg &Cfg,
                                     unsigned ProcId, unsigned Pc,
                                     const sym::SolveConfig &Config) {
  PostStarSolver Solver(Cfg, ProcId, Pc, Config);
  return Solver.run();
}

sym::SolveStats reach::bebopTabulate(const bp::ProgramCfg &Cfg,
                                     unsigned ProcId, unsigned Pc,
                                     const sym::SolveConfig &Config) {
  sym::SolveStats Result;
  Timer T;
  try {
    interp::OracleResult R =
        interp::summaryReachability(Cfg, ProcId, Pc, Config.Governor);
    Result.Reachable = R.Reachable;
    Result.Iterations = R.PathEdges;
  } catch (const support::ResourceInterrupt &RI) {
    Result.Limit = RI.Limit;
  }
  Result.Seconds = T.seconds();
  return Result;
}
