//===- Encode.cpp - Symbolic encoding of Boolean programs -----------------===//

#include "symbolic/Encode.h"

#include <algorithm>

using namespace getafix;
using namespace getafix::sym;
using namespace getafix::bp;
using namespace getafix::fpc;

//===----------------------------------------------------------------------===//
// Choice-bit accounting
//===----------------------------------------------------------------------===//

unsigned ProgramEncoder::maxChoiceBits(const ProgramCfg &Cfg) {
  unsigned Max = 0;
  struct Walk {
    static unsigned go(const Expr &E) {
      unsigned N = E.Kind == ExprKind::Nondet ? 1 : 0;
      if (E.Lhs)
        N += go(*E.Lhs);
      if (E.Rhs)
        N += go(*E.Rhs);
      return N;
    }
  };
  auto Count = [](const Expr &E) { return Walk::go(E); };
  for (const ProcCfg &P : Cfg.Procs) {
    for (const CfgEdge &E : P.Edges) {
      unsigned N = 0;
      if (E.Cond)
        N += Count(*E.Cond);
      for (const Expr *R : E.Rhs)
        N += Count(*R);
      Max = std::max(Max, N);
    }
    for (const CfgExit &X : P.Exits) {
      unsigned N = 0;
      for (const Expr *R : X.ReturnExprs)
        N += Count(*R);
      Max = std::max(Max, N);
    }
  }
  return std::max(Max, 1u);
}

//===----------------------------------------------------------------------===//
// Construction: domains, variables, relation declarations
//===----------------------------------------------------------------------===//

ProgramEncoder::ProgramEncoder(System &Sys, VarFactory &Factory,
                               const StateDomains &Doms,
                               const ProgramCfg &Cfg, DomainId ChoiceDom,
                               std::string Suffix)
    : Sys(Sys), Doms(Doms), Cfg(Cfg) {
  Choice = Factory.makeVar("_ch" + Suffix, ChoiceDom);

  auto Mk = [&](const char *Base, DomainId Dom) {
    return Factory.makeVar(std::string("_") + Base + Suffix, Dom);
  };

  F.IMod = Mk("iMod", Doms.Mod);
  F.IPcFrom = Mk("iPcF", Doms.Pc);
  F.IPcTo = Mk("iPcT", Doms.Pc);
  F.ILFrom = Mk("iLF", Doms.LVec);
  F.ILTo = Mk("iLT", Doms.LVec);
  F.IGFrom = Mk("iGF", Doms.GVec);
  F.IGTo = Mk("iGT", Doms.GVec);
  ProgramInt = Sys.declareRel(
      "programInt" + Suffix,
      {F.IMod, F.IPcFrom, F.IPcTo, F.ILFrom, F.ILTo, F.IGFrom, F.IGTo});

  F.CModCaller = Mk("cModR", Doms.Mod);
  F.CModCallee = Mk("cModE", Doms.Mod);
  F.CPc = Mk("cPc", Doms.Pc);
  F.CLCaller = Mk("cLR", Doms.LVec);
  F.CLEntry = Mk("cLE", Doms.LVec);
  F.CG = Mk("cG", Doms.GVec);
  ProgramCall = Sys.declareRel(
      "programCall" + Suffix,
      {F.CModCaller, F.CModCallee, F.CPc, F.CLCaller, F.CLEntry, F.CG});

  F.SMod = Mk("sMod", Doms.Mod);
  F.SPcCall = Mk("sPcC", Doms.Pc);
  F.SPcRet = Mk("sPcR", Doms.Pc);
  SkipCall =
      Sys.declareRel("skipCall" + Suffix, {F.SMod, F.SPcCall, F.SPcRet});

  F.R1Mod = Mk("r1Mod", Doms.Mod);
  F.R1ModCallee = Mk("r1ModE", Doms.Mod);
  F.R1Pc = Mk("r1Pc", Doms.Pc);
  F.R1LCaller = Mk("r1LC", Doms.LVec);
  F.R1LRet = Mk("r1LR", Doms.LVec);
  SetReturn1 = Sys.declareRel(
      "setReturn1" + Suffix,
      {F.R1Mod, F.R1ModCallee, F.R1Pc, F.R1LCaller, F.R1LRet});

  F.R2Mod = Mk("r2Mod", Doms.Mod);
  F.R2ModCallee = Mk("r2ModE", Doms.Mod);
  F.R2Pc = Mk("r2Pc", Doms.Pc);
  F.R2PcExit = Mk("r2PcX", Doms.Pc);
  F.R2LExit = Mk("r2LX", Doms.LVec);
  F.R2LRet = Mk("r2LR", Doms.LVec);
  F.R2GExit = Mk("r2GX", Doms.GVec);
  F.R2GRet = Mk("r2GR", Doms.GVec);
  SetReturn2 = Sys.declareRel("setReturn2" + Suffix,
                              {F.R2Mod, F.R2ModCallee, F.R2Pc, F.R2PcExit,
                               F.R2LExit, F.R2LRet, F.R2GExit, F.R2GRet});

  F.RMod = Mk("rMod", Doms.Mod);
  F.RModCallee = Mk("rModE", Doms.Mod);
  F.RPc = Mk("rPc", Doms.Pc);
  F.RPcExit = Mk("rPcX", Doms.Pc);
  F.RLCaller = Mk("rLC", Doms.LVec);
  F.RLExit = Mk("rLX", Doms.LVec);
  F.RGExit = Mk("rGX", Doms.GVec);
  F.RLRet = Mk("rLR", Doms.LVec);
  F.RGRet = Mk("rGR", Doms.GVec);
  SetReturn = Sys.declareRel("setReturn" + Suffix,
                             {F.RMod, F.RModCallee, F.RPc, F.RPcExit,
                              F.RLCaller, F.RLExit, F.RGExit, F.RLRet,
                              F.RGRet});

  F.EMod = Mk("eMod", Doms.Mod);
  F.EPc = Mk("ePc", Doms.Pc);
  ExitRel = Sys.declareRel("exit" + Suffix, {F.EMod, F.EPc});

  F.YMod = Mk("yMod", Doms.Mod);
  F.YPc = Mk("yPc", Doms.Pc);
  F.YL = Mk("yL", Doms.LVec);
  EntryRel = Sys.declareRel("entry" + Suffix, {F.YMod, F.YPc, F.YL});

  F.NMod = Mk("nMod", Doms.Mod);
  F.NPc = Mk("nPc", Doms.Pc);
  F.NL = Mk("nL", Doms.LVec);
  InitRel = Sys.declareRel("init" + Suffix, {F.NMod, F.NPc, F.NL});
}

//===----------------------------------------------------------------------===//
// Expression compilation
//===----------------------------------------------------------------------===//

Bdd ProgramEncoder::compileExpr(Evaluator &Ev, const Expr &E, VarId LVar,
                                VarId GVar, unsigned &ChoiceIdx) {
  switch (E.Kind) {
  case ExprKind::True:
    return Ev.manager().one();
  case ExprKind::False:
    return Ev.manager().zero();
  case ExprKind::Nondet:
    return Ev.bitVar(Choice, ChoiceIdx++);
  case ExprKind::Var:
    return Ev.bitVar(E.Ref.IsGlobal ? GVar : LVar, E.Ref.Index);
  case ExprKind::Not:
    return !compileExpr(Ev, *E.Lhs, LVar, GVar, ChoiceIdx);
  case ExprKind::And: {
    Bdd L = compileExpr(Ev, *E.Lhs, LVar, GVar, ChoiceIdx);
    Bdd R = compileExpr(Ev, *E.Rhs, LVar, GVar, ChoiceIdx);
    return L & R;
  }
  case ExprKind::Or: {
    Bdd L = compileExpr(Ev, *E.Lhs, LVar, GVar, ChoiceIdx);
    Bdd R = compileExpr(Ev, *E.Rhs, LVar, GVar, ChoiceIdx);
    return L | R;
  }
  }
  assert(false && "unhandled expression kind");
  return Ev.manager().zero();
}

Bdd ProgramEncoder::frameEq(Evaluator &Ev, VarId From, VarId To) {
  return Ev.encodeEqVar(From, To);
}

BddCube ProgramEncoder::choiceCube(Evaluator &Ev) {
  std::vector<unsigned> Bits = Ev.layout().bits(Choice);
  return Ev.manager().makeCube(Bits);
}

//===----------------------------------------------------------------------===//
// Relation binding
//===----------------------------------------------------------------------===//
//
// Every per-edge term is built as its frame and update constraints first
// (with the edge's choice bits quantified away), and only then conjoined
// with its (module, pc) selector. The selector's bits head the variable
// order, so conjoining it first would make every later constraint rebuild
// it; last, it costs one node per selector bit. The bound relations are
// the same functions either way (BDDs are canonical).

namespace {

/// The targets of an edge's left-hand side (an assignment's, or a call's
/// return assignment): for each local slot and global bit, the index of
/// the value assigned to it, or -1.
struct LhsSlots {
  std::vector<int> Local;
  std::vector<int> Global;
};

LhsSlots lhsSlots(const CfgEdge &E, unsigned LBits, unsigned GBits) {
  LhsSlots Slots{std::vector<int>(LBits, -1), std::vector<int>(GBits, -1)};
  for (size_t I = 0; I < E.Lhs.size(); ++I) {
    const VarRef &Ref = E.Lhs[I];
    (Ref.IsGlobal ? Slots.Global : Slots.Local)[Ref.Index] = int(I);
  }
  return Slots;
}

} // namespace

void ProgramEncoder::bindProgramInt(Evaluator &Ev) {
  BddManager &Mgr = Ev.manager();
  unsigned LBits = unsigned(Ev.layout().bits(F.ILFrom).size());
  unsigned GBits = unsigned(Ev.layout().bits(F.IGFrom).size());
  BddCube Choices = choiceCube(Ev);
  // An assume edge keeps the whole frame.
  const Bdd Frame =
      frameEq(Ev, F.ILFrom, F.ILTo) & frameEq(Ev, F.IGFrom, F.IGTo);

  Bdd Result = Mgr.zero();
  for (const ProcCfg &P : Cfg.Procs) {
    for (const CfgEdge &E : P.Edges) {
      if (E.K == CfgEdge::Kind::Call)
        continue;
      Bdd Body;
      unsigned ChoiceIdx = 0;
      if (E.K == CfgEdge::Kind::Assume) {
        Body = Frame;
        if (E.Cond) {
          Bdd Cond = compileExpr(Ev, *E.Cond, F.ILFrom, F.IGFrom, ChoiceIdx);
          Body &= E.NegateCond ? !Cond : Cond;
        }
      } else { // Assign.
        // Compile right-hand sides first (shared running choice index).
        std::vector<Bdd> Values;
        Values.reserve(E.Rhs.size());
        for (const Expr *R : E.Rhs)
          Values.push_back(compileExpr(Ev, *R, F.ILFrom, F.IGFrom,
                                       ChoiceIdx));
        // Per-bit update constraints; untouched bits are framed.
        LhsSlots Target = lhsSlots(E, LBits, GBits);
        Body = Mgr.one();
        for (unsigned B = LBits; B-- > 0;) {
          Bdd Next = Ev.bitVar(F.ILTo, B);
          Bdd Cur = Target.Local[B] >= 0 ? Values[Target.Local[B]]
                                         : Ev.bitVar(F.ILFrom, B);
          Body &= Next.iff(Cur);
        }
        for (unsigned B = GBits; B-- > 0;) {
          Bdd Next = Ev.bitVar(F.IGTo, B);
          Bdd Cur = Target.Global[B] >= 0 ? Values[Target.Global[B]]
                                          : Ev.bitVar(F.IGFrom, B);
          Body &= Next.iff(Cur);
        }
      }
      Result |= Ev.encodeEqConst(F.IMod, P.ProcId) &
                Ev.encodeEqConst(F.IPcFrom, E.From) &
                Ev.encodeEqConst(F.IPcTo, E.To) & Body.exists(Choices);
    }
  }
  Ev.bindInput(ProgramInt, Result);
}

void ProgramEncoder::bindProgramCall(Evaluator &Ev) {
  BddManager &Mgr = Ev.manager();
  const Program &Prog = *Cfg.Prog;
  unsigned LBits = unsigned(Ev.layout().bits(F.CLEntry).size());
  BddCube Choices = choiceCube(Ev);

  Bdd Result = Mgr.zero();
  for (const ProcCfg &P : Cfg.Procs) {
    for (const CfgEdge &E : P.Edges) {
      if (E.K != CfgEdge::Kind::Call)
        continue;
      const Proc &Callee = Prog.proc(E.CalleeId);
      unsigned NumParams = unsigned(Callee.Params.size());
      unsigned NumSlots = Callee.numLocalSlots();

      unsigned ChoiceIdx = 0;
      std::vector<Bdd> Args;
      Args.reserve(E.Rhs.size());
      for (const Expr *A : E.Rhs)
        Args.push_back(compileExpr(Ev, *A, F.CLCaller, F.CG, ChoiceIdx));
      assert(Args.size() == NumParams && "call arity survived sema");
      Bdd Body = Mgr.one();
      for (unsigned B = LBits; B-- > 0;) {
        Bdd EntryBit = Ev.bitVar(F.CLEntry, B);
        if (B < NumParams)
          Body &= EntryBit.iff(Args[B]);
        else if (B >= NumSlots)
          Body &= !EntryBit; // Padding bits stay false inside the callee.
        // Slots in [NumParams, NumSlots): uninitialized, nondet — free.
      }
      Result |= Ev.encodeEqConst(F.CModCaller, P.ProcId) &
                Ev.encodeEqConst(F.CModCallee, E.CalleeId) &
                Ev.encodeEqConst(F.CPc, E.From) & Body.exists(Choices);
    }
  }
  Ev.bindInput(ProgramCall, Result);
}

void ProgramEncoder::bindSkipCall(Evaluator &Ev) {
  Bdd Result = Ev.manager().zero();
  for (const ProcCfg &P : Cfg.Procs)
    for (const CfgEdge &E : P.Edges) {
      if (E.K != CfgEdge::Kind::Call)
        continue;
      Result |= Ev.encodeEqConst(F.SMod, P.ProcId) &
                Ev.encodeEqConst(F.SPcCall, E.From) &
                Ev.encodeEqConst(F.SPcRet, E.To);
    }
  Ev.bindInput(SkipCall, Result);
}

void ProgramEncoder::bindReturns(Evaluator &Ev) {
  BddManager &Mgr = Ev.manager();
  unsigned LBits = unsigned(Ev.layout().bits(F.R1LCaller).size());
  unsigned GBits = unsigned(Ev.layout().bits(F.R2GExit).size());
  BddCube Choices = choiceCube(Ev);

  Bdd Ret1 = Mgr.zero();
  Bdd Ret2 = Mgr.zero();

  for (const ProcCfg &P : Cfg.Procs) {
    for (const CfgEdge &E : P.Edges) {
      if (E.K != CfgEdge::Kind::Call)
        continue;
      LhsSlots Target = lhsSlots(E, LBits, GBits);

      // --- setReturn1: caller-side local copying (exit-independent).
      {
        Bdd Body = Mgr.one();
        for (unsigned B = LBits; B-- > 0;)
          if (Target.Local[B] < 0)
            Body &= Ev.bitVar(F.R1LRet, B).iff(Ev.bitVar(F.R1LCaller, B));
        Ret1 |= Ev.encodeEqConst(F.R1Mod, P.ProcId) &
                Ev.encodeEqConst(F.R1ModCallee, E.CalleeId) &
                Ev.encodeEqConst(F.R1Pc, E.From) & Body;
      }

      // --- setReturn2: per callee exit.
      for (const CfgExit &X : Cfg.Procs[E.CalleeId].Exits) {
        unsigned ChoiceIdx = 0;
        std::vector<Bdd> Values;
        for (const Expr *R : X.ReturnExprs)
          Values.push_back(
              compileExpr(Ev, *R, F.R2LExit, F.R2GExit, ChoiceIdx));

        Bdd Body = Mgr.one();
        for (unsigned B = LBits; B-- > 0;)
          if (Target.Local[B] >= 0)
            Body &= Ev.bitVar(F.R2LRet, B).iff(Values[Target.Local[B]]);
        for (unsigned B = GBits; B-- > 0;) {
          Bdd RetBit = Ev.bitVar(F.R2GRet, B);
          if (Target.Global[B] >= 0)
            Body &= RetBit.iff(Values[Target.Global[B]]);
          else
            Body &= RetBit.iff(Ev.bitVar(F.R2GExit, B));
        }
        Ret2 |= Ev.encodeEqConst(F.R2Mod, P.ProcId) &
                Ev.encodeEqConst(F.R2ModCallee, E.CalleeId) &
                Ev.encodeEqConst(F.R2Pc, E.From) &
                Ev.encodeEqConst(F.R2PcExit, X.Pc) & Body.exists(Choices);
      }
    }
  }

  Ev.bindInput(SetReturn1, Ret1);
  Ev.bindInput(SetReturn2, Ret2);
}

void ProgramEncoder::bindSetReturn(Evaluator &Ev) {
  if (Ev.hasInput(SetReturn))
    return;
  BddManager &Mgr = Ev.manager();
  unsigned LBits = unsigned(Ev.layout().bits(F.RLCaller).size());
  unsigned GBits = unsigned(Ev.layout().bits(F.RGExit).size());
  BddCube Choices = choiceCube(Ev);

  Bdd RetFull = Mgr.zero();
  for (const ProcCfg &P : Cfg.Procs) {
    for (const CfgEdge &E : P.Edges) {
      if (E.K != CfgEdge::Kind::Call)
        continue;
      LhsSlots Target = lhsSlots(E, LBits, GBits);
      for (const CfgExit &X : Cfg.Procs[E.CalleeId].Exits) {
        unsigned ChoiceIdx = 0;
        std::vector<Bdd> Values;
        for (const Expr *R : X.ReturnExprs)
          Values.push_back(
              compileExpr(Ev, *R, F.RLExit, F.RGExit, ChoiceIdx));
        Bdd Body = Mgr.one();
        for (unsigned B = LBits; B-- > 0;) {
          Bdd RetBit = Ev.bitVar(F.RLRet, B);
          if (Target.Local[B] >= 0)
            Body &= RetBit.iff(Values[Target.Local[B]]);
          else
            Body &= RetBit.iff(Ev.bitVar(F.RLCaller, B));
        }
        for (unsigned B = GBits; B-- > 0;) {
          Bdd RetBit = Ev.bitVar(F.RGRet, B);
          if (Target.Global[B] >= 0)
            Body &= RetBit.iff(Values[Target.Global[B]]);
          else
            Body &= RetBit.iff(Ev.bitVar(F.RGExit, B));
        }
        RetFull |= Ev.encodeEqConst(F.RMod, P.ProcId) &
                   Ev.encodeEqConst(F.RModCallee, E.CalleeId) &
                   Ev.encodeEqConst(F.RPc, E.From) &
                   Ev.encodeEqConst(F.RPcExit, X.Pc) & Body.exists(Choices);
      }
    }
  }
  Ev.bindInput(SetReturn, RetFull);
}

void ProgramEncoder::bindStatics(Evaluator &Ev) {
  BddManager &Mgr = Ev.manager();
  const Program &Prog = *Cfg.Prog;

  Bdd Exits = Mgr.zero();
  for (const ProcCfg &P : Cfg.Procs)
    for (const CfgExit &X : P.Exits)
      Exits |= Ev.encodeEqConst(F.EMod, P.ProcId) &
               Ev.encodeEqConst(F.EPc, X.Pc);
  Ev.bindInput(ExitRel, Exits);

  // Entries: PC 0 of every module, with that module's unused local slots
  // (padding) pinned false — the encoding invariant for frame bits.
  {
    unsigned LBits = unsigned(Ev.layout().bits(F.YL).size());
    Bdd Entries = Mgr.zero();
    for (const ProcCfg &P : Cfg.Procs) {
      Bdd Term = Ev.encodeEqConst(F.YMod, P.ProcId) &
                 Ev.encodeEqConst(F.YPc, 0);
      unsigned Slots = Prog.proc(P.ProcId).numLocalSlots();
      for (unsigned B = Slots; B < LBits; ++B)
        Term &= !Ev.bitVar(F.YL, B);
      Entries |= Term;
    }
    Ev.bindInput(EntryRel, Entries);
  }

  // Init constrains only module and PC (Section 4's Init), plus: padding
  // bits of main's frame start false so they stay false everywhere.
  unsigned LBits = unsigned(Ev.layout().bits(F.NL).size());
  unsigned MainSlots = Prog.main().numLocalSlots();
  Bdd Init = Ev.encodeEqConst(F.NMod, Prog.MainId) &
             Ev.encodeEqConst(F.NPc, 0);
  for (unsigned B = MainSlots; B < LBits; ++B)
    Init &= !Ev.bitVar(F.NL, B);
  Ev.bindInput(InitRel, Init);
}

void ProgramEncoder::bind(Evaluator &Ev) {
  bindProgramInt(Ev);
  bindProgramCall(Ev);
  bindSkipCall(Ev);
  bindReturns(Ev);
  bindStatics(Ev);
}
