//===- Witness.cpp - Counterexample extraction ----------------------------===//

#include "reach/Witness.h"

#include "fpcalc/Evaluator.h"
#include "interp/Eval.h"
#include "reach/SeqEngine.h"
#include "support/Timer.h"

#include <stdexcept>

using namespace getafix;
using namespace getafix::reach;
using namespace getafix::fpc;
using namespace getafix::sym;

WitnessExtractor::WitnessExtractor(SeqEngine &Engine, sym::SessionState &St)
    : Engine(Engine), St(St), S(Engine.conf()), X(Engine.scratch()),
      F(Engine.encoder().formals()) {
  assert((Engine.algorithm() == SeqAlgorithm::EntryForward ||
          Engine.algorithm() == SeqAlgorithm::EntryForwardSplit) &&
         "witness extraction needs an entry-forward system");
}

void WitnessExtractor::readOut(sym::SolveStats &Out) {
  sym::SolveMeter().finish(Out, St.Ev, Engine.roundRoots(),
                           Engine.condensationWidth(),
                           Engine.summaryRelations());
  Out.Iterations = St.Fix.rings().size();
}

Bdd WitnessExtractor::renamed(Bdd Value,
                              const std::vector<std::pair<VarId, VarId>> &FromTo) {
  const Layout &L = St.Ev.layout();
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (auto [From, To] : FromTo) {
    const std::vector<unsigned> &FromBits = L.bits(From);
    const std::vector<unsigned> &ToBits = L.bits(To);
    assert(FromBits.size() == ToBits.size() && "width mismatch");
    for (size_t B = 0; B < FromBits.size(); ++B)
      if (FromBits[B] != ToBits[B])
        Pairs.emplace_back(FromBits[B], ToBits[B]);
  }
  return Pairs.empty() ? Value : Value.permute(St.Mgr.makePermutation(Pairs));
}

uint64_t WitnessExtractor::decode(const std::vector<int8_t> &Path,
                                  VarId V) const {
  const std::vector<unsigned> &Bits = St.Ev.layout().bits(V);
  uint64_t Value = 0;
  for (size_t B = 0; B < Bits.size(); ++B)
    if (Bits[B] < Path.size() && Path[Bits[B]] == 1)
      Value |= uint64_t(1) << B;
  return Value;
}

Bdd WitnessExtractor::tuple(unsigned Mod, const InstState &At,
                            uint64_t EntryL, uint64_t EntryG) {
  return eq(S.Mod, Mod) & eq(S.Pc, At.Pc) & eq(S.CL, At.Locals) &
         eq(S.CG, At.Globals) & eq(S.ECL, EntryL) & eq(S.ECG, EntryG);
}

size_t WitnessExtractor::rankOf(const Bdd &T) const {
  const RingLog &Rings = St.Fix.rings();
  size_t I = Rings.firstIntersecting(T);
  if (I == Rings.size())
    throw std::logic_error("witness reconstruction: tuple not present in "
                           "any recorded ring (engine invariant violation)");
  return I;
}

bool WitnessExtractor::isInitSeed(unsigned Mod, uint64_t EntryL) {
  return !(St.Ev.input(Engine.encoder().InitRel) & eq(F.NMod, Mod) &
           eq(F.NPc, 0) & eq(F.NL, EntryL))
              .isZero();
}

bool WitnessExtractor::internalPred(const Bdd &Ring, unsigned Mod,
                                    uint64_t EntryL, uint64_t EntryG,
                                    const InstState &To, InstState &From) {
  // programInt constrained to land on `To`, renamed so its source state
  // lands on the summary tuple's current-state variables.
  Bdd Step = St.Ev.input(Engine.encoder().ProgramInt) & eq(F.IMod, Mod) &
             eq(F.IPcTo, To.Pc) & eq(F.ILTo, To.Locals) &
             eq(F.IGTo, To.Globals);
  Step = renamed(Step, {{F.IPcFrom, S.Pc}, {F.ILFrom, S.CL},
                        {F.IGFrom, S.CG}});
  Bdd Pred = Step & Ring & eq(S.Mod, Mod) & eq(S.ECL, EntryL) &
             eq(S.ECG, EntryG) & St.Ev.domainConstraint(S.Pc);
  if (Pred.isZero())
    return false;
  std::vector<int8_t> Path = Pred.onePath();
  From.Pc = unsigned(decode(Path, S.Pc));
  From.Locals = decode(Path, S.CL);
  From.Globals = decode(Path, S.CG);
  return true;
}

bool WitnessExtractor::skipPred(const Bdd &Ring, unsigned Mod,
                                uint64_t EntryL, uint64_t EntryG,
                                const InstState &To, InstState &From,
                                SkipInfo &Skip) {
  ProgramEncoder &Enc = Engine.encoder();

  // Caller summary tuple, renamed onto the t.* scratch variables.
  Bdd Caller = Ring & eq(S.Mod, Mod) & eq(S.ECL, EntryL) & eq(S.ECG, EntryG);
  Caller = renamed(Caller, {{S.Pc, X.TPc}, {S.CL, X.TCL}, {S.CG, X.TCG}});

  // Callee summary tuple (exit side), renamed onto the u.* scratch
  // variables; its entry globals are the caller's globals at the call.
  Bdd Callee = renamed(Ring, {{S.Mod, X.UMod},
                              {S.Pc, X.UPcX},
                              {S.CL, X.ULX},
                              {S.CG, X.UGX},
                              {S.ECL, X.UECL},
                              {S.ECG, X.TCG}});

  Bdd Across = renamed(St.Ev.input(Enc.SkipCall) & eq(F.SMod, Mod) &
                           eq(F.SPcRet, To.Pc),
                       {{F.SPcCall, X.TPc}});

  Bdd Call = renamed(St.Ev.input(Enc.ProgramCall) & eq(F.CModCaller, Mod),
                     {{F.CModCallee, X.UMod},
                      {F.CPc, X.TPc},
                      {F.CLCaller, X.TCL},
                      {F.CLEntry, X.UECL},
                      {F.CG, X.TCG}});

  Bdd Exit = renamed(St.Ev.input(Enc.ExitRel),
                     {{F.EMod, X.UMod}, {F.EPc, X.UPcX}});

  // The only direct read of the unsplit return: an `ef-split` session's
  // evaluator, which the walk may run on, has not bound it yet.
  Enc.bindSetReturn(St.Ev);
  Bdd Ret = renamed(St.Ev.input(Enc.SetReturn) & eq(F.RMod, Mod) &
                        eq(F.RLRet, To.Locals) & eq(F.RGRet, To.Globals),
                    {{F.RModCallee, X.UMod},
                     {F.RPc, X.TPc},
                     {F.RPcExit, X.UPcX},
                     {F.RLCaller, X.TCL},
                     {F.RLExit, X.ULX},
                     {F.RGExit, X.UGX}});

  Bdd Joint = Caller & Across & Call & Exit & Ret & Callee &
              St.Ev.domainConstraint(X.TPc) & St.Ev.domainConstraint(X.UMod) &
              St.Ev.domainConstraint(X.UPcX);
  if (Joint.isZero())
    return false;

  std::vector<int8_t> Path = Joint.onePath();
  From.Pc = unsigned(decode(Path, X.TPc));
  From.Locals = decode(Path, X.TCL);
  From.Globals = decode(Path, X.TCG);
  Skip.CalleeMod = unsigned(decode(Path, X.UMod));
  Skip.CalleeEntryL = decode(Path, X.UECL);
  Skip.CalleeExit.Pc = unsigned(decode(Path, X.UPcX));
  Skip.CalleeExit.Locals = decode(Path, X.ULX);
  Skip.CalleeExit.Globals = decode(Path, X.UGX);
  return true;
}

bool WitnessExtractor::appendProcPath(unsigned Mod, uint64_t EntryL,
                                      uint64_t EntryG,
                                      const InstState &Target) {
  InstState Entry{0, EntryL, EntryG};

  // Walk backwards from the target; every hop lands in the previous ring,
  // so the loop is well-founded.
  struct RevStep {
    InstState From;     ///< State the forward step leaves.
    InstState State;    ///< State reached by the forward step.
    bool IsSkip = false;
    SkipInfo Skip;      ///< Valid when IsSkip.
  };
  std::vector<RevStep> Reversed;
  InstState Cur = Target;
  while (!(Cur == Entry)) {
    size_t Rank = rankOf(tuple(Mod, Cur, EntryL, EntryG));
    if (Rank == 0)
      return false; // Only seeds live in ring 0; Cur is not the entry.
    Bdd Prev = St.Fix.rings().ring(Rank - 1);
    RevStep Step;
    Step.State = Cur;
    if (internalPred(Prev, Mod, EntryL, EntryG, Cur, Step.From)) {
      Reversed.push_back(Step);
      Cur = Step.From;
      continue;
    }
    Step.IsSkip = true;
    if (!skipPred(Prev, Mod, EntryL, EntryG, Cur, Step.From, Step.Skip))
      return false;
    Reversed.push_back(Step);
    Cur = Step.From;
  }

  // Emit forwards, expanding call-skips into call + callee run + return.
  for (size_t I = Reversed.size(); I-- > 0;) {
    const RevStep &R = Reversed[I];
    if (!R.IsSkip) {
      Steps.push_back({WitnessStepKind::Internal, Mod, R.State.Pc,
                       R.State.Locals, R.State.Globals});
      continue;
    }
    // The callee starts at its entry with the caller's globals at the call
    // site (the state the skip step leaves).
    uint64_t CallG = R.From.Globals;
    Steps.push_back({WitnessStepKind::Call, R.Skip.CalleeMod, 0,
                     R.Skip.CalleeEntryL, CallG});
    if (!appendProcPath(R.Skip.CalleeMod, R.Skip.CalleeEntryL, CallG,
                        R.Skip.CalleeExit))
      return false;
    Steps.push_back({WitnessStepKind::Return, Mod, R.State.Pc,
                     R.State.Locals, R.State.Globals});
  }
  return true;
}

bool WitnessExtractor::appendEntryChain(unsigned Mod, uint64_t EntryL,
                                        uint64_t EntryG) {
  if (isInitSeed(Mod, EntryL)) {
    Steps.push_back(
        {WitnessStepKind::Init, Mod, 0, EntryL, EntryG});
    return true;
  }

  // Entry discovered through a caller: find the caller tuple in the ring
  // below the entry tuple's rank, reach it, then take the call.
  InstState Entry{0, EntryL, EntryG};
  size_t Rank = rankOf(tuple(Mod, Entry, EntryL, EntryG));
  if (Rank == 0)
    return false;
  Bdd Prev = St.Fix.rings().ring(Rank - 1);

  ProgramEncoder &Enc = Engine.encoder();
  Bdd CallerRing = Prev & eq(S.CG, EntryG);
  CallerRing = renamed(CallerRing, {{S.Mod, X.DMod},
                                    {S.Pc, X.DPc},
                                    {S.CL, X.DL},
                                    {S.ECL, X.DEL},
                                    {S.ECG, X.DEG}});
  Bdd Call = renamed(St.Ev.input(Enc.ProgramCall) & eq(F.CModCallee, Mod) &
                         eq(F.CLEntry, EntryL) & eq(F.CG, EntryG),
                     {{F.CModCaller, X.DMod},
                      {F.CPc, X.DPc},
                      {F.CLCaller, X.DL}});
  Bdd Joint = CallerRing & Call & St.Ev.domainConstraint(X.DMod) &
              St.Ev.domainConstraint(X.DPc);
  if (Joint.isZero())
    return false;

  std::vector<int8_t> Path = Joint.onePath();
  unsigned CallerMod = unsigned(decode(Path, X.DMod));
  InstState CallSite;
  CallSite.Pc = unsigned(decode(Path, X.DPc));
  CallSite.Locals = decode(Path, X.DL);
  CallSite.Globals = EntryG;
  uint64_t CallerEntryL = decode(Path, X.DEL);
  uint64_t CallerEntryG = decode(Path, X.DEG);

  if (!appendEntryChain(CallerMod, CallerEntryL, CallerEntryG))
    return false;
  if (!appendProcPath(CallerMod, CallerEntryL, CallerEntryG, CallSite))
    return false;
  Steps.push_back({WitnessStepKind::Call, Mod, 0, EntryL, EntryG});
  return true;
}

void WitnessExtractor::ensureSolved() {
  if (SolveDone)
    return;
  // The "onion rings" are the per-round values of the summary relation;
  // the semi-naive core computes the paper's S_r per round, only cheaper,
  // so the rings are those of Section 3's `Evaluate`. `complete` drives
  // the persistent fixpoint to saturation, recording every
  // value-changing round — on an `ef`/`ef-split` session's state this
  // *finishes the session's solve in place*, so rounds an earlier plain
  // query already computed are never recomputed and later plain queries
  // replay the rounds recorded here: one solve per session, ever. A
  // governor-interrupted solve keeps its completed rounds and carries on
  // from them on retry — the recorded rings stay consistent either way.
  // No input names a target, so the solve (and therefore every ring) is
  // target-independent, which is what makes one solve serve every later
  // target query.
  EvalResult R = St.Fix.complete(St.Ev, Engine.mainRel());
  SolveDone = true;
  Solved = R.Value;
  TargetDomains =
      St.Ev.domainConstraint(S.Mod) & St.Ev.domainConstraint(S.Pc);
  Base.SummaryNodes = Solved.nodeCount();
  // Counters cover the ring-recording solve (reconstruction only walks
  // the recorded rings).
  readOut(Base);
}

WitnessResult WitnessExtractor::query(unsigned ProcId, unsigned Pc) {
  WitnessResult Result;
  Timer T;
  support::ResourceLimit Limit = St.governed([&] {
    ensureSolved();
    static_cast<sym::SolveStats &>(Result) = Base;
    Steps.clear();

    Bdd Hits = Solved & eq(S.Mod, ProcId) & eq(S.Pc, Pc) & TargetDomains;
    if (Hits.isZero())
      return;
    Result.Reachable = true;

    std::vector<int8_t> Path = Hits.onePath();
    InstState Target;
    Target.Pc = Pc;
    Target.Locals = decode(Path, S.CL);
    Target.Globals = decode(Path, S.CG);
    uint64_t EntryL = decode(Path, S.ECL);
    uint64_t EntryG = decode(Path, S.ECG);

    if (!appendEntryChain(ProcId, EntryL, EntryG) ||
        !appendProcPath(ProcId, EntryL, EntryG, Target)) {
      // Reconstruction failure indicates an engine bug; report reachable
      // with an empty trace rather than a bogus one.
      assert(false && "witness reconstruction failed on a reachable target");
      Result.Steps.clear();
    } else {
      Result.Steps = std::move(Steps);
    }
  });
  if (Limit != support::ResourceLimit::None) {
    // Clean limit stop mid-solve or mid-extraction: completed rounds (and
    // their rings) persist, so a retry resumes where this attempt stopped.
    Result = WitnessResult();
    Result.Limit = Limit;
    readOut(Result);
  }
  Result.Seconds = T.seconds();
  return Result;
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

WitnessResult
reach::checkReachabilityWithWitness(const bp::ProgramCfg &Cfg, unsigned ProcId,
                                    unsigned Pc,
                                    const sym::SolveConfig &Config) {
  SeqEngine Engine(Cfg, SeqAlgorithm::EntryForward);
  Timer T;
  // Bound ungoverned, as a session binds: the caller's limits apply from
  // the first fixpoint round on.
  sym::SessionState St(Engine.system(), Engine.factory(), Config.Threads);
  Engine.bindInputs(St.Ev);
  St.setGovernor(Config.Governor);
  WitnessResult R = WitnessExtractor(Engine, St).query(ProcId, Pc);
  R.Seconds = T.seconds(); // The set-up counts, as in a one-shot solve.
  return R;
}

//===----------------------------------------------------------------------===//
// Explicit replay verification
//===----------------------------------------------------------------------===//

namespace {

/// Explicit replay of a witness against the statement semantics; an
/// implementation independent of the symbolic encoder, so it can catch
/// extractor and encoder bugs alike.
class Replayer {
public:
  Replayer(const bp::ProgramCfg &Cfg) : Cfg(Cfg) {}

  bool replay(const std::vector<WitnessStep> &Steps, unsigned TargetProcId,
              unsigned TargetPc, std::string *Error);

private:
  struct Frame {
    unsigned Proc = 0;
    const bp::CfgEdge *CallEdge = nullptr;
    uint64_t CallerLocals = 0;
  };

  bool fail(std::string *Error, size_t Index, const std::string &Message) {
    if (Error)
      *Error = "step " + std::to_string(Index) + ": " + Message;
    return false;
  }

  /// Does some resolution of `*` choices evaluate \p Exprs to the bits of
  /// \p Want (taken LSB-first)?
  static bool someChoiceYields(const std::vector<const bp::Expr *> &Exprs,
                               uint32_t Locals, uint32_t Globals,
                               const std::vector<bool> &Want) {
    unsigned NumChoices = interp::countNondet(Exprs);
    assert(NumChoices <= 20 && "witness replay choice explosion");
    for (uint32_t C = 0; C < (1u << NumChoices); ++C)
      if (interp::evalExprs(Exprs, Locals, Globals, C) == Want)
        return true;
    return false;
  }

  bool checkInternal(const WitnessStep &Cur, const WitnessStep &Next,
                     size_t Index, std::string *Error);
  bool checkCall(const WitnessStep &Cur, const WitnessStep &Next,
                 size_t Index, std::string *Error);
  bool checkReturn(const WitnessStep &Cur, const WitnessStep &Next,
                   size_t Index, std::string *Error);

  const bp::ProgramCfg &Cfg;
  std::vector<Frame> Stack;
};

} // namespace

bool Replayer::checkInternal(const WitnessStep &Cur, const WitnessStep &Next,
                             size_t Index, std::string *Error) {
  if (Next.ProcId != Cur.ProcId)
    return fail(Error, Index, "internal step changes procedure");
  const bp::ProcCfg &P = Cfg.Procs[Cur.ProcId];
  uint32_t L = uint32_t(Cur.Locals), G = uint32_t(Cur.Globals);
  for (unsigned EdgeIdx : P.OutEdges[Cur.Pc]) {
    const bp::CfgEdge &E = P.Edges[EdgeIdx];
    if (E.To != Next.Pc)
      continue;
    if (E.K == bp::CfgEdge::Kind::Assume) {
      if (Next.Locals != Cur.Locals || Next.Globals != Cur.Globals)
        continue;
      if (!E.Cond)
        return true;
      unsigned NumChoices = interp::countNondet(*E.Cond);
      for (uint32_t C = 0; C < (1u << NumChoices); ++C) {
        unsigned Idx = 0;
        if (interp::evalExpr(*E.Cond, L, G, C, Idx) != E.NegateCond)
          return true;
      }
      continue;
    }
    if (E.K != bp::CfgEdge::Kind::Assign)
      continue;
    // Try every choice vector; apply the simultaneous assignment.
    unsigned NumChoices = interp::countNondet(E.Rhs);
    for (uint32_t C = 0; C < (1u << NumChoices); ++C) {
      std::vector<bool> Values = interp::evalExprs(E.Rhs, L, G, C);
      uint32_t NL = L, NG = G;
      for (size_t I = 0; I < E.Lhs.size(); ++I) {
        if (E.Lhs[I].IsGlobal)
          NG = interp::setBit(NG, E.Lhs[I].Index, Values[I]);
        else
          NL = interp::setBit(NL, E.Lhs[I].Index, Values[I]);
      }
      if (NL == uint32_t(Next.Locals) && NG == uint32_t(Next.Globals))
        return true;
    }
  }
  return fail(Error, Index, "no internal edge matches the step");
}

bool Replayer::checkCall(const WitnessStep &Cur, const WitnessStep &Next,
                         size_t Index, std::string *Error) {
  if (Next.Pc != 0)
    return fail(Error, Index, "call step does not land on an entry");
  if (Next.Globals != Cur.Globals)
    return fail(Error, Index, "call step changes globals");
  const bp::ProcCfg &P = Cfg.Procs[Cur.ProcId];
  const bp::Proc &Callee = *Cfg.Prog->Procs[Next.ProcId];
  for (unsigned EdgeIdx : P.OutEdges[Cur.Pc]) {
    const bp::CfgEdge &E = P.Edges[EdgeIdx];
    if (E.K != bp::CfgEdge::Kind::Call || E.CalleeId != Next.ProcId)
      continue;
    // Parameters are the callee's first local slots.
    std::vector<bool> Want;
    for (size_t I = 0; I < Callee.Params.size(); ++I)
      Want.push_back((Next.Locals >> I) & 1);
    if (!someChoiceYields(E.Rhs, uint32_t(Cur.Locals), uint32_t(Cur.Globals),
                          Want))
      continue;
    Stack.push_back(Frame{Cur.ProcId, &E, Cur.Locals});
    return true;
  }
  return fail(Error, Index, "no call edge matches the step");
}

bool Replayer::checkReturn(const WitnessStep &Cur, const WitnessStep &Next,
                           size_t Index, std::string *Error) {
  if (Stack.empty())
    return fail(Error, Index, "return with an empty call stack");
  Frame F = Stack.back();
  Stack.pop_back();
  if (Next.ProcId != F.Proc)
    return fail(Error, Index, "return to the wrong procedure");
  if (Next.Pc != F.CallEdge->To)
    return fail(Error, Index, "return to the wrong program point");
  const bp::ProcCfg &CalleeCfg = Cfg.Procs[Cur.ProcId];
  const bp::CfgExit *Exit = CalleeCfg.exitAt(Cur.Pc);
  if (!Exit)
    return fail(Error, Index, "return from a non-exit point");

  unsigned NumChoices = interp::countNondet(Exit->ReturnExprs);
  for (uint32_t C = 0; C < (1u << NumChoices); ++C) {
    std::vector<bool> Values = interp::evalExprs(
        Exit->ReturnExprs, uint32_t(Cur.Locals), uint32_t(Cur.Globals), C);
    uint32_t NL = uint32_t(F.CallerLocals), NG = uint32_t(Cur.Globals);
    const std::vector<bp::VarRef> &Lhs = F.CallEdge->Lhs;
    if (Values.size() < Lhs.size())
      return fail(Error, Index, "fewer return values than assignees");
    for (size_t I = 0; I < Lhs.size(); ++I) {
      if (Lhs[I].IsGlobal)
        NG = interp::setBit(NG, Lhs[I].Index, Values[I]);
      else
        NL = interp::setBit(NL, Lhs[I].Index, Values[I]);
    }
    if (NL == uint32_t(Next.Locals) && NG == uint32_t(Next.Globals))
      return true;
  }
  return fail(Error, Index, "no return-value resolution matches the step");
}

bool Replayer::replay(const std::vector<WitnessStep> &Steps,
                      unsigned TargetProcId, unsigned TargetPc,
                      std::string *Error) {
  if (Steps.empty())
    return fail(Error, 0, "empty trace");
  if (Steps.front().Kind != WitnessStepKind::Init)
    return fail(Error, 0, "trace does not start with an init step");
  if (Steps.front().ProcId != Cfg.Prog->MainId || Steps.front().Pc != 0)
    return fail(Error, 0, "trace does not start at main's entry");

  for (size_t I = 1; I < Steps.size(); ++I) {
    const WitnessStep &Cur = Steps[I - 1];
    const WitnessStep &Next = Steps[I];
    bool Ok = false;
    switch (Next.Kind) {
    case WitnessStepKind::Init:
      return fail(Error, I, "init step in the middle of a trace");
    case WitnessStepKind::Internal:
      Ok = checkInternal(Cur, Next, I, Error);
      break;
    case WitnessStepKind::Call:
      Ok = checkCall(Cur, Next, I, Error);
      break;
    case WitnessStepKind::Return:
      Ok = checkReturn(Cur, Next, I, Error);
      break;
    }
    if (!Ok)
      return false;
  }

  const WitnessStep &Last = Steps.back();
  if (Last.ProcId != TargetProcId || Last.Pc != TargetPc)
    return fail(Error, Steps.size() - 1, "trace does not end at the target");
  return true;
}

bool reach::verifyWitness(const bp::ProgramCfg &Cfg,
                          const std::vector<WitnessStep> &Steps,
                          unsigned TargetProcId, unsigned TargetPc,
                          std::string *Error) {
  return Replayer(Cfg).replay(Steps, TargetProcId, TargetPc, Error);
}

//===----------------------------------------------------------------------===//
// Formatting
//===----------------------------------------------------------------------===//

std::string reach::formatWitness(const bp::ProgramCfg &Cfg,
                                 const std::vector<WitnessStep> &Steps) {
  auto Bits = [](uint64_t Value, unsigned Width) {
    std::string Out;
    for (unsigned I = 0; I < Width; ++I)
      Out += ((Value >> I) & 1) ? '1' : '0';
    return Out.empty() ? std::string("-") : Out;
  };

  std::string Out;
  unsigned Depth = 0;
  for (size_t I = 0; I < Steps.size(); ++I) {
    const WitnessStep &St = Steps[I];
    const bp::Proc &P = *Cfg.Prog->Procs[St.ProcId];
    const bp::ProcCfg &PC = Cfg.Procs[St.ProcId];

    const char *Kind = "";
    switch (St.Kind) {
    case WitnessStepKind::Init:
      Kind = "init  ";
      break;
    case WitnessStepKind::Internal:
      Kind = "step  ";
      break;
    case WitnessStepKind::Call:
      Kind = "call  ";
      ++Depth;
      break;
    case WitnessStepKind::Return:
      Kind = "return";
      assert(Depth > 0 && "unbalanced trace");
      --Depth;
      break;
    }

    std::string Label;
    for (const auto &[Name, Pc] : PC.LabelPcs)
      if (Pc == St.Pc)
        Label = " (" + Name + ")";

    Out += "#" + std::to_string(I) + " " + Kind + " " +
           std::string(2 * Depth, ' ') + P.Name + "@" +
           std::to_string(St.Pc) + Label +
           " L=" + Bits(St.Locals, P.numLocalSlots()) +
           " G=" + Bits(St.Globals, Cfg.Prog->numGlobals()) + "\n";
  }
  return Out;
}
