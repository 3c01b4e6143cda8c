//===- LalReps.cpp - Lal-Reps eager sequentialization ---------------------===//

#include "concurrent/LalReps.h"
#include "bp/Sema.h"

#include <set>

using namespace getafix;
using namespace getafix::conc;
using namespace getafix::bp;

//===----------------------------------------------------------------------===//
// Small AST builders
//===----------------------------------------------------------------------===//

namespace {

ExprPtr eTrue() { return std::make_unique<Expr>(ExprKind::True); }
ExprPtr eFalse() { return std::make_unique<Expr>(ExprKind::False); }
ExprPtr eStar() { return std::make_unique<Expr>(ExprKind::Nondet); }

ExprPtr eVar(const std::string &Name) {
  auto E = std::make_unique<Expr>(ExprKind::Var);
  E->VarName = Name;
  return E;
}

ExprPtr eNot(ExprPtr Body) {
  auto E = std::make_unique<Expr>(ExprKind::Not);
  E->Lhs = std::move(Body);
  return E;
}

ExprPtr eBin(ExprKind Kind, ExprPtr L, ExprPtr R) {
  auto E = std::make_unique<Expr>(Kind);
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  return E;
}

ExprPtr eAnd(ExprPtr L, ExprPtr R) {
  return eBin(ExprKind::And, std::move(L), std::move(R));
}
ExprPtr eOr(ExprPtr L, ExprPtr R) {
  return eBin(ExprKind::Or, std::move(L), std::move(R));
}

/// (a & b) | (!a & !b).
ExprPtr eIff(const std::string &A, const std::string &B) {
  return eOr(eAnd(eVar(A), eVar(B)), eAnd(eNot(eVar(A)), eNot(eVar(B))));
}

StmtPtr sAssign(std::vector<std::string> Lhs, std::vector<ExprPtr> Rhs) {
  auto S = std::make_unique<Stmt>(StmtKind::Assign);
  S->LhsNames = std::move(Lhs);
  S->Exprs = std::move(Rhs);
  return S;
}

StmtPtr sCall(const std::string &Callee) {
  auto S = std::make_unique<Stmt>(StmtKind::Call);
  S->CalleeName = Callee;
  return S;
}

StmtPtr sAssume(ExprPtr Cond) {
  auto S = std::make_unique<Stmt>(StmtKind::Assume);
  S->Cond = std::move(Cond);
  return S;
}

StmtPtr sIf(ExprPtr Cond, std::vector<StmtPtr> Then,
            std::vector<StmtPtr> Else = {}) {
  auto S = std::make_unique<Stmt>(StmtKind::If);
  S->Cond = std::move(Cond);
  S->ThenBody = std::move(Then);
  S->ElseBody = std::move(Else);
  return S;
}

StmtPtr sWhile(ExprPtr Cond, std::vector<StmtPtr> Body) {
  auto S = std::make_unique<Stmt>(StmtKind::While);
  S->Cond = std::move(Cond);
  S->ThenBody = std::move(Body);
  return S;
}

StmtPtr sLabeledSkip(const std::string &Label) {
  auto S = std::make_unique<Stmt>(StmtKind::Skip);
  S->Label = Label;
  return S;
}

//===----------------------------------------------------------------------===//
// The transformation
//===----------------------------------------------------------------------===//

class Sequentializer {
public:
  Sequentializer(const ConcurrentProgram &Conc, const std::string &Label,
                 unsigned K)
      : Conc(Conc), TargetLabel(Label), C(K + 1),
        N(Conc.numThreads()) {
    CtxBits = bitsFor(C + 1); // Values 0..C; C means "done".
    ThrBits = bitsFor(N);
    Shared = std::set<std::string>(Conc.SharedGlobals.begin(),
                                   Conc.SharedGlobals.end());
  }

  std::unique_ptr<Program> run(DiagnosticEngine &Diags);

private:
  static unsigned bitsFor(unsigned Values) {
    unsigned Bits = 1;
    while ((1u << Bits) < Values)
      ++Bits;
    return Bits;
  }

  // Name helpers.
  static std::string startName(unsigned Ctx, const std::string &S) {
    return "LR_st" + std::to_string(Ctx) + "_" + S;
  }
  static std::string curName(unsigned Ctx, const std::string &S) {
    return "LR_cur" + std::to_string(Ctx) + "_" + S;
  }
  static std::string nowName(const std::string &S) { return "LR_now_" + S; }
  std::string ctxBit(unsigned I) const {
    return "LR_ctx" + std::to_string(I);
  }
  std::string schBit(unsigned Ctx, unsigned I) const {
    return "LR_sch" + std::to_string(Ctx) + "_" + std::to_string(I);
  }
  static std::string advName(unsigned Thread) {
    return "LR_adv_t" + std::to_string(Thread);
  }
  static std::string procName(const std::string &Name, unsigned Thread) {
    return Name + "__t" + std::to_string(Thread);
  }

  /// Conjunction of ctx-bit literals testing ctx == Value.
  ExprPtr ctxEquals(unsigned Value) const;
  /// Conjunction of schedule-bit literals testing sched[Ctx] == Thread.
  ExprPtr schEquals(unsigned Ctx, unsigned Thread) const;
  /// Multi-assignment setting ctx := Value.
  StmtPtr setCtx(unsigned Value) const;
  /// cur[Ctx] := now (all shared vars), or now := start[Ctx], etc.
  StmtPtr copyShared(const std::string &ToPrefixKind, unsigned ToCtx,
                     const std::string &FromPrefixKind,
                     unsigned FromCtx) const;

  ExprPtr transformExpr(const Expr &E) const;
  StmtPtr transformStmt(const Stmt &S, unsigned Thread) const;
  std::vector<StmtPtr> transformBody(const std::vector<StmtPtr> &Body,
                                     unsigned Thread) const;

  std::unique_ptr<Proc> makeAdvProc(unsigned Thread) const;
  std::unique_ptr<Proc> makeMain() const;

  const ConcurrentProgram &Conc;
  std::string TargetLabel;
  unsigned C; ///< Number of contexts (k + 1).
  unsigned N;
  unsigned CtxBits = 0;
  unsigned ThrBits = 0;
  std::set<std::string> Shared;
};

ExprPtr Sequentializer::ctxEquals(unsigned Value) const {
  ExprPtr E;
  for (unsigned I = 0; I < CtxBits; ++I) {
    ExprPtr Bit = eVar(ctxBit(I));
    if (!((Value >> I) & 1))
      Bit = eNot(std::move(Bit));
    E = E ? eAnd(std::move(E), std::move(Bit)) : std::move(Bit);
  }
  return E;
}

ExprPtr Sequentializer::schEquals(unsigned Ctx, unsigned Thread) const {
  ExprPtr E;
  for (unsigned I = 0; I < ThrBits; ++I) {
    ExprPtr Bit = eVar(schBit(Ctx, I));
    if (!((Thread >> I) & 1))
      Bit = eNot(std::move(Bit));
    E = E ? eAnd(std::move(E), std::move(Bit)) : std::move(Bit);
  }
  return E;
}

StmtPtr Sequentializer::setCtx(unsigned Value) const {
  std::vector<std::string> Lhs;
  std::vector<ExprPtr> Rhs;
  for (unsigned I = 0; I < CtxBits; ++I) {
    Lhs.push_back(ctxBit(I));
    Rhs.push_back(((Value >> I) & 1) ? eTrue() : eFalse());
  }
  return sAssign(std::move(Lhs), std::move(Rhs));
}

StmtPtr Sequentializer::copyShared(const std::string &ToKind, unsigned ToCtx,
                                   const std::string &FromKind,
                                   unsigned FromCtx) const {
  auto NameOf = [&](const std::string &Kind, unsigned Ctx,
                    const std::string &S) {
    if (Kind == "now")
      return nowName(S);
    if (Kind == "cur")
      return curName(Ctx, S);
    return startName(Ctx, S);
  };
  std::vector<std::string> Lhs;
  std::vector<ExprPtr> Rhs;
  for (const std::string &S : Conc.SharedGlobals) {
    Lhs.push_back(NameOf(ToKind, ToCtx, S));
    Rhs.push_back(eVar(NameOf(FromKind, FromCtx, S)));
  }
  return sAssign(std::move(Lhs), std::move(Rhs));
}

ExprPtr Sequentializer::transformExpr(const Expr &E) const {
  auto Copy = std::make_unique<Expr>(E.Kind, E.Loc);
  switch (E.Kind) {
  case ExprKind::Var:
    Copy->VarName = Shared.count(E.VarName) ? nowName(E.VarName) : E.VarName;
    break;
  case ExprKind::Not:
    Copy->Lhs = transformExpr(*E.Lhs);
    break;
  case ExprKind::And:
  case ExprKind::Or:
    Copy->Lhs = transformExpr(*E.Lhs);
    Copy->Rhs = transformExpr(*E.Rhs);
    break;
  default:
    break;
  }
  return Copy;
}

StmtPtr Sequentializer::transformStmt(const Stmt &S, unsigned Thread) const {
  auto Copy = std::make_unique<Stmt>(S.Kind, S.Loc);
  if (!S.Label.empty())
    Copy->Label = procName(S.Label, Thread); // Keep labels unique.
  for (const std::string &Name : S.LhsNames)
    Copy->LhsNames.push_back(Shared.count(Name) ? nowName(Name) : Name);
  for (const ExprPtr &E : S.Exprs)
    Copy->Exprs.push_back(transformExpr(*E));
  if (!S.CalleeName.empty()) {
    // Goto targets and callees both live in CalleeName; both are renamed
    // with the thread suffix.
    Copy->CalleeName = procName(S.CalleeName, Thread);
  }
  if (S.Cond)
    Copy->Cond = transformExpr(*S.Cond);
  if (S.Kind == StmtKind::If || S.Kind == StmtKind::While) {
    Copy->ThenBody = transformBody(S.ThenBody, Thread);
    Copy->ElseBody = transformBody(S.ElseBody, Thread);
  }
  return Copy;
}

std::vector<StmtPtr>
Sequentializer::transformBody(const std::vector<StmtPtr> &Body,
                              unsigned Thread) const {
  std::vector<StmtPtr> Out;
  for (const StmtPtr &S : Body) {
    // A context switch may happen before every statement.
    Out.push_back(sCall(advName(Thread)));
    if (!S->Label.empty() && S->Label == TargetLabel) {
      // Record the hit — but only while the thread occupies a real context
      // (ctx != done); after its last context the execution is a ghost.
      Out.push_back(sAssign({"LR_hit"},
                            [&] {
                              std::vector<ExprPtr> Rhs;
                              Rhs.push_back(eOr(eVar("LR_hit"),
                                                eNot(ctxEquals(C))));
                              return Rhs;
                            }()));
    }
    Out.push_back(transformStmt(*S, Thread));
  }
  return Out;
}

std::unique_ptr<Proc> Sequentializer::makeAdvProc(unsigned Thread) const {
  auto P = std::make_unique<Proc>();
  P->Name = advName(Thread);

  // One advance step: finalize the current context, move ctx to the next
  // context this thread owns (or done), and load its guessed start.
  auto AdvanceFrom = [&](unsigned Ctx) {
    std::vector<StmtPtr> Steps;
    Steps.push_back(copyShared("cur", Ctx, "now", 0));
    Steps.push_back(setCtx(C)); // done
    for (unsigned Next = C; Next-- > Ctx + 1;) {
      std::vector<StmtPtr> Then;
      Then.push_back(setCtx(Next));
      Steps.push_back(sIf(schEquals(Next, Thread), std::move(Then)));
    }
    for (unsigned Next = Ctx + 1; Next < C; ++Next) {
      std::vector<StmtPtr> Then;
      Then.push_back(copyShared("now", 0, "st", Next));
      Steps.push_back(sIf(ctxEquals(Next), std::move(Then)));
    }
    return Steps;
  };

  // Nested if/else dispatch on the current context value.
  std::vector<StmtPtr> Dispatch;
  for (unsigned Ctx = C; Ctx-- > 0;) {
    std::vector<StmtPtr> Outer;
    Outer.push_back(
        sIf(ctxEquals(Ctx), AdvanceFrom(Ctx), std::move(Dispatch)));
    Dispatch = std::move(Outer);
  }

  std::vector<StmtPtr> LoopBody = std::move(Dispatch);
  P->Body.push_back(sWhile(eStar(), std::move(LoopBody)));
  return P;
}

std::unique_ptr<Proc> Sequentializer::makeMain() const {
  auto P = std::make_unique<Proc>();
  P->Name = "main";

  // Context 0 starts from the all-false shared valuation (the concurrent
  // engine's deterministic initial state).
  {
    std::vector<std::string> Lhs;
    std::vector<ExprPtr> Rhs;
    for (const std::string &S : Conc.SharedGlobals) {
      Lhs.push_back(startName(0, S));
      Rhs.push_back(eFalse());
    }
    P->Body.push_back(sAssign(std::move(Lhs), std::move(Rhs)));
  }
  // cur[c] := start[c] for every context (an unvisited context is empty).
  for (unsigned Ctx = 0; Ctx < C; ++Ctx)
    P->Body.push_back(copyShared("cur", Ctx, "st", Ctx));
  P->Body.push_back(sAssign({"LR_hit"}, [] {
    std::vector<ExprPtr> Rhs;
    Rhs.push_back(eFalse());
    return Rhs;
  }()));

  // Schedule sanity: valid thread ids, and adjacent contexts differ (a
  // switch activates another thread).
  for (unsigned Ctx = 0; Ctx < C; ++Ctx) {
    ExprPtr Valid;
    for (unsigned Thr = 0; Thr < N; ++Thr) {
      ExprPtr Eq = schEquals(Ctx, Thr);
      Valid = Valid ? eOr(std::move(Valid), std::move(Eq)) : std::move(Eq);
    }
    P->Body.push_back(sAssume(std::move(Valid)));
  }
  for (unsigned Ctx = 1; Ctx < C; ++Ctx) {
    ExprPtr Same;
    for (unsigned I = 0; I < ThrBits; ++I) {
      ExprPtr BitEq = eIff(schBit(Ctx, I), schBit(Ctx - 1, I));
      Same = Same ? eAnd(std::move(Same), std::move(BitEq))
                  : std::move(BitEq);
    }
    P->Body.push_back(sAssume(eNot(std::move(Same))));
  }

  // Run every thread once over all of its contexts.
  for (unsigned Thr = 0; Thr < N; ++Thr) {
    P->Body.push_back(setCtx(C));
    for (unsigned Ctx = C; Ctx-- > 0;) {
      std::vector<StmtPtr> Then;
      Then.push_back(setCtx(Ctx));
      P->Body.push_back(sIf(schEquals(Ctx, Thr), std::move(Then)));
    }
    for (unsigned Ctx = 0; Ctx < C; ++Ctx) {
      std::vector<StmtPtr> Then;
      Then.push_back(copyShared("now", 0, "st", Ctx));
      P->Body.push_back(sIf(ctxEquals(Ctx), std::move(Then)));
    }
    P->Body.push_back(sCall(procName("main", Thr)));
    for (unsigned Ctx = 0; Ctx < C; ++Ctx) {
      std::vector<StmtPtr> Then;
      Then.push_back(copyShared("cur", Ctx, "now", 0));
      P->Body.push_back(sIf(ctxEquals(Ctx), std::move(Then)));
    }
  }

  // Chain check: end of context c must equal the guessed start of c+1.
  for (unsigned Ctx = 0; Ctx + 1 < C; ++Ctx)
    for (const std::string &S : Conc.SharedGlobals)
      P->Body.push_back(
          sAssume(eIff(curName(Ctx, S), startName(Ctx + 1, S))));

  std::vector<StmtPtr> Goal;
  Goal.push_back(sLabeledSkip(lalRepsGoalLabel()));
  P->Body.push_back(sIf(eVar("LR_hit"), std::move(Goal)));
  return P;
}

std::unique_ptr<Program> Sequentializer::run(DiagnosticEngine &Diags) {
  // Locate the target label.
  bool Found = false;
  for (const auto &Thread : Conc.Threads)
    if (Thread->findLabel(TargetLabel, nullptr))
      Found = true;
  if (!Found) {
    Diags.error({}, "label '" + TargetLabel +
                        "' not found in any thread (Lal-Reps reduction)");
    return nullptr;
  }

  auto Prog = std::make_unique<Program>();

  // Globals, in the order the sequential engine lays their bits out: the
  // context cursor and the schedule bits first, so the bits that pick the
  // context sit on top (the rule the concurrent engine's order follows);
  // then each shared variable's copies together — per context its guessed
  // start and working copy, then its shadow — so the copies a context
  // switch compares sit on adjacent levels; the hit flag last.
  for (unsigned I = 0; I < CtxBits; ++I)
    Prog->Globals.push_back(ctxBit(I));
  for (unsigned Ctx = 0; Ctx < C; ++Ctx)
    for (unsigned I = 0; I < ThrBits; ++I)
      Prog->Globals.push_back(schBit(Ctx, I));
  for (const std::string &S : Conc.SharedGlobals) {
    for (unsigned Ctx = 0; Ctx < C; ++Ctx) {
      Prog->Globals.push_back(startName(Ctx, S));
      Prog->Globals.push_back(curName(Ctx, S));
    }
    Prog->Globals.push_back(nowName(S));
  }
  Prog->Globals.push_back("LR_hit");

  // Cloned thread procedures + per-thread advance procedures.
  for (unsigned Thr = 0; Thr < N; ++Thr) {
    const Program &Thread = *Conc.Threads[Thr];
    if (Thread.main().NumReturns != 0) {
      Diags.error({}, "thread main procedures must not return values");
      return nullptr;
    }
    for (const auto &ProcPtr : Thread.Procs) {
      auto Clone = std::make_unique<Proc>();
      Clone->Name = procName(ProcPtr->Name, Thr);
      Clone->Params = ProcPtr->Params;
      Clone->Locals = ProcPtr->Locals;
      Clone->Body = transformBody(ProcPtr->Body, Thr);
      Prog->Procs.push_back(std::move(Clone));
    }
    Prog->Procs.push_back(makeAdvProc(Thr));
  }
  Prog->Procs.push_back(makeMain());

  if (!analyzeProgram(*Prog, Diags))
    return nullptr;
  return Prog;
}

} // namespace

std::unique_ptr<Program>
conc::lalRepsSequentialize(const ConcurrentProgram &Conc,
                           const std::string &Label,
                           unsigned MaxContextSwitches,
                           DiagnosticEngine &Diags) {
  // One thread admits no context switch (a switch activates *another*
  // thread), so the guessed schedule's adjacent-contexts-differ constraint
  // would be unsatisfiable for k >= 1 and block every execution. Bounded
  // reachability then equals sequential reachability: transform with k = 0.
  if (Conc.numThreads() == 1)
    MaxContextSwitches = 0;
  Sequentializer Seq(Conc, Label, MaxContextSwitches);
  return Seq.run(Diags);
}
