//===- Evaluator.cpp - Symbolic fixed-point evaluation --------------------===//

#include "fpcalc/Evaluator.h"

#include "fpcalc/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <stdexcept>

using namespace getafix;
using namespace getafix::fpc;

namespace {

/// One worker's private solving state for one parallel schedule: a BDD
/// manager sharing the main manager's variable order (its computed cache
/// grows with its own node table, like every manager's), an evaluator
/// over the same system/layout, and the two cached cross-manager
/// importers (main->worker for inputs and seeded dependencies,
/// worker->main for solved SCC values). Built by its worker on its first
/// task, touched only by that worker until the join — only the
/// main-manager touches (both importers' main side) need the scheduler's
/// lock — then folded into the main evaluator and destroyed.
struct WorkerContext {
  BddManager Mgr;
  Evaluator Ev;
  BddImporter In;  ///< Main -> worker.
  BddImporter Out; ///< Worker -> main.

  WorkerContext(const System &Sys, BddManager &Main, const Layout &L,
                support::ResourceGovernor *Gov)
      : Mgr(Main.numVars()), Ev(Sys, Mgr, L), In(Main, Mgr), Out(Mgr, Main) {
    Mgr.setGcThreshold(Main.gcThreshold());
    Mgr.setGovernor(Gov);
  }
};

/// \p St translated by \p Imp. Only unsaturated states travel: a
/// saturated relation moves as its `Completed` value. A state stopped
/// before its first round completed carries no value.
FixpointState importState(BddImporter &Imp, const FixpointState &St) {
  FixpointState Out;
  Out.Rounds = St.Rounds;
  if (St.Rounds != 0)
    Out.Value = Imp.import(St.Value);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Layout
//===----------------------------------------------------------------------===//

Layout Layout::sequential(const System &Sys, BddManager &Mgr) {
  Layout L;
  L.Bits.resize(Sys.numVars());
  for (VarId V = 0; V < Sys.numVars(); ++V) {
    unsigned NumBits = Sys.domain(Sys.var(V).Dom).numBits();
    for (unsigned B = 0; B < NumBits; ++B)
      L.Bits[V].push_back(Mgr.newVar());
  }
  return L;
}

Layout Layout::interleaved(const System &Sys, BddManager &Mgr,
                           const std::vector<std::vector<VarId>> &Groups) {
  Layout L;
  L.Bits.resize(Sys.numVars());
  for (const std::vector<VarId> &Group : Groups) {
    assert(!Group.empty() && "empty layout group");
    unsigned NumBits = Sys.domain(Sys.var(Group.front()).Dom).numBits();
#ifndef NDEBUG
    for (VarId V : Group) {
      assert(Sys.domain(Sys.var(V).Dom).numBits() == NumBits &&
             "layout group members must share a domain width");
      assert(L.Bits[V].empty() && "variable allocated twice");
    }
#endif
    // Bit-major: bit 0 of every copy, then bit 1 of every copy, ...
    for (unsigned B = 0; B < NumBits; ++B)
      for (VarId V : Group)
        L.Bits[V].push_back(Mgr.newVar());
  }
  for (VarId V = 0; V < Sys.numVars(); ++V) {
    if (!L.Bits[V].empty())
      continue;
    unsigned NumBits = Sys.domain(Sys.var(V).Dom).numBits();
    for (unsigned B = 0; B < NumBits; ++B)
      L.Bits[V].push_back(Mgr.newVar());
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Evaluator: setup and encoding helpers
//===----------------------------------------------------------------------===//

Evaluator::Evaluator(const System &Sys, BddManager &Mgr, Layout L,
                     unsigned Threads)
    : Sys(Sys), Mgr(Mgr), L(std::move(L)), Threads(std::max(Threads, 1u)),
      NoVars(Mgr.makeCube({})) {
  ParStats.Threads = this->Threads;
}

void Evaluator::bindInput(RelId Rel, Bdd Value) {
  assert(Sys.relation(Rel).isInput() && "binding a defined relation");
  assert(InFlight.empty() && "rebinding an input mid-evaluation");
  auto [It, Inserted] = Inputs.emplace(Rel, Value);
  // A first binding invalidates nothing: no memo can have read an unbound
  // input (the read throws). So an input bound on first use (the unsplit
  // `setReturn` of the witness walk) keeps every memo.
  if (Inserted || It->second == Value)
    return;
  It->second = std::move(Value);
  // Both memo layers may hold BDDs built from the old binding: the
  // static-subformula cache mentions inputs directly, and a Completed
  // defined relation was solved under them (a partial one too). Serving
  // either after a rebind would silently answer the old query.
  invalidate();
}

void Evaluator::invalidate() {
  Completed.clear();
  Partial.clear();
  StaticCache.clear();
}

const DependencyGraph &Evaluator::dependencies() {
  if (!Graph)
    Graph = std::make_unique<DependencyGraph>(Sys);
  return *Graph;
}

const EquationPlan &Evaluator::plan(RelId Rel) {
  auto It = Plans.find(Rel);
  if (It == Plans.end())
    It = Plans.emplace(Rel, planEquation(Sys, dependencies(), Rel)).first;
  return It->second;
}

bool Evaluator::isStatic(const Formula &F) {
  auto It = StaticKind.find(&F);
  if (It != StaticKind.end())
    return It->second;
  bool Static = true;
  switch (F.Kind) {
  case FormulaKind::RelApp:
    Static = applyPlan(F).Static;
    break;
  case FormulaKind::Not:
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *Child : F.Children)
      Static = Static && isStatic(*Child);
    break;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    Static = isStatic(*F.Body);
    break;
  default:
    break;
  }
  StaticKind.emplace(&F, Static);
  return Static;
}

Bdd Evaluator::bitVar(VarId V, unsigned Bit) {
  const std::vector<unsigned> &Bits = L.bits(V);
  assert(Bit < Bits.size() && "bit index out of range");
  return Mgr.var(Bits[Bit]);
}

Bdd Evaluator::encodeEqConst(VarId V, uint64_t Value) {
  const std::vector<unsigned> &Bits = L.bits(V);
  assert(Value < Sys.domain(Sys.var(V).Dom).Size && "constant out of domain");
  Bdd Result = Mgr.one();
  for (unsigned B = 0; B < Bits.size(); ++B)
    Result &= ((Value >> B) & 1) ? Mgr.var(Bits[B]) : Mgr.nvar(Bits[B]);
  return Result;
}

Bdd Evaluator::encodeEqVar(VarId A, VarId B) {
  assert(Sys.var(A).Dom == Sys.var(B).Dom &&
         "equality between different domains");
  const std::vector<unsigned> &ABits = L.bits(A);
  const std::vector<unsigned> &BBits = L.bits(B);
  Bdd Result = Mgr.one();
  // Conjoin from the highest bit so the result grows bottom-up in the
  // (typically interleaved) order.
  for (size_t I = ABits.size(); I-- > 0;)
    Result &= Mgr.var(ABits[I]).iff(Mgr.var(BBits[I]));
  return Result;
}

Bdd Evaluator::domainConstraint(VarId V) {
  const Domain &D = Sys.domain(Sys.var(V).Dom);
  uint64_t Capacity = uint64_t(1) << L.bits(V).size();
  if (D.Size == Capacity)
    return Mgr.one();
  // V < Size: disjunction over valid values would be linear in Size; use a
  // bitwise comparison against Size-1 instead (V <= Size-1).
  uint64_t Max = D.Size - 1;
  const std::vector<unsigned> &Bits = L.bits(V);
  // lessEq built from msb down: acc(i) = (v_i < m_i) | (v_i == m_i) & acc.
  Bdd Acc = Mgr.one();
  for (size_t I = 0; I < Bits.size(); ++I) {
    bool MaxBit = (Max >> I) & 1;
    Bdd Vi = Mgr.var(Bits[I]);
    if (MaxBit)
      Acc = (!Vi) | Acc;
    else
      Acc = (!Vi) & Acc;
  }
  return Acc;
}

//===----------------------------------------------------------------------===//
// Evaluator: core
//===----------------------------------------------------------------------===//

bool Evaluator::dependsOnInFlight(RelId Rel) {
  const DependencyGraph &G = dependencies();
  for (const auto &[InFlightRel, Value] : InFlight) {
    (void)Value;
    if (Rel == InFlightRel || G.reaches(Rel, InFlightRel))
      return true;
  }
  return false;
}

void Evaluator::unboundInput(RelId Rel) const {
  throw std::logic_error("input relation '" + Sys.relation(Rel).Name +
                         "' is not bound");
}

Bdd Evaluator::relValue(RelId Rel) {
  auto FlightIt = InFlight.find(Rel);
  if (FlightIt != InFlight.end())
    return FlightIt->second;

  const Relation &R = Sys.relation(Rel);
  if (R.isInput())
    return input(Rel);

  // Defined relation used from another definition: per the algorithmic
  // semantics it is re-solved under the current in-flight interpretations.
  // Relations that cannot see any in-flight relation are memoized.
  if (!dependsOnInFlight(Rel))
    return solveScheduled(Rel);
  FixpointState St;
  return evalFixpoint(Rel, St, nullptr, nullptr);
}

namespace {

/// Whether \p F reads a variable \p Bound does not mark (the equation's
/// formals and the quantifiers around \p F).
bool readsUnbound(const Formula &F, std::vector<uint8_t> &Bound) {
  switch (F.Kind) {
  case FormulaKind::Const:
    return false;
  case FormulaKind::RelApp:
    return std::any_of(F.Args.begin(), F.Args.end(), [&](const Term &T) {
      return !T.IsConst && !Bound[T.Variable];
    });
  case FormulaKind::EqVar:
    return !Bound[F.Lhs] || !Bound[F.Rhs];
  case FormulaKind::EqConst:
    return !Bound[F.Lhs];
  case FormulaKind::Not:
  case FormulaKind::And:
  case FormulaKind::Or:
    return std::any_of(
        F.Children.begin(), F.Children.end(),
        [&](const Formula *Child) { return readsUnbound(*Child, Bound); });
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    std::vector<uint8_t> Inner = Bound;
    for (VarId V : F.Bound)
      Inner[V] = 1;
    return readsUnbound(*F.Body, Inner);
  }
  }
  return false;
}

/// Appends every application inside \p F, in print order.
void collectApplications(const Formula &F, std::vector<const Formula *> &Out) {
  if (F.Kind == FormulaKind::RelApp)
    Out.push_back(&F);
  for (const Formula *Child : F.Children)
    collectApplications(*Child, Out);
  if (F.Body)
    collectApplications(*F.Body, Out);
}

} // namespace

bool Evaluator::readsUnboundVariable(RelId Rel) {
  if (UnboundReaders.empty()) {
    // A definition that reads an unbound variable, and every definition
    // reaching one, can yield values beyond its formals' bits.
    std::vector<uint8_t> Readers(Sys.numRels(), 0);
    const DependencyGraph &G = dependencies();
    for (RelId R = 0; R < Sys.numRels(); ++R) {
      const Relation &Rl = Sys.relation(R);
      if (Rl.isInput())
        continue;
      std::vector<uint8_t> Bound(Sys.numVars(), 0);
      for (VarId V : Rl.Formals)
        Bound[V] = 1;
      Readers[R] = readsUnbound(*Rl.Def, Bound);
    }
    // The closure is transitive, so one pass over it propagates.
    for (RelId R = 0; R < Sys.numRels(); ++R)
      if (!Readers[R] && !Sys.relation(R).isInput())
        for (RelId D = 0; D < Sys.numRels(); ++D)
          if (Readers[D] && G.reaches(R, D)) {
            Readers[R] = 1;
            break;
          }
    UnboundReaders = std::move(Readers);
  }
  return UnboundReaders[Rel];
}

const Evaluator::ApplyPlan &Evaluator::applyPlan(const Formula &App) {
  auto Known = ApplyPlans.find(&App);
  if (Known != ApplyPlans.end())
    return Known->second;
  // Built aside and stored only when complete: a governor stop can throw
  // from any node it creates, and the resumed round must plan again.
  ApplyPlan P;
  const Relation &R = Sys.relation(App.Rel);
  const std::vector<Term> &Args = App.Args;
  assert(Args.size() == R.Formals.size() && "arity mismatch");
  P.Static = R.isInput();

  // Constant arguments are cofactored out, f|_{x=c} == exists x. (f & (x
  // == c)), against the cube of their literals built bottom-up; every
  // other formal bit is renamed to its argument's bit (a simultaneous
  // substitution, so R(u, u) maps two bits onto one).
  std::vector<std::pair<unsigned, bool>> Lits;
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::vector<unsigned> &From = L.bits(R.Formals[I]);
    if (Args[I].IsConst) {
      for (unsigned B = 0; B < From.size(); ++B)
        Lits.emplace_back(From[B], (Args[I].Value >> B) & 1);
      continue;
    }
    const std::vector<unsigned> &To = L.bits(Args[I].Variable);
    assert(From.size() == To.size() && "domain width mismatch");
    for (size_t B = 0; B < From.size(); ++B)
      Pairs.emplace_back(From[B], To[B]);
  }
  if (!Lits.empty()) {
    std::sort(Lits.begin(), Lits.end());
    std::vector<unsigned> Vars;
    Bdd Cube = Mgr.one();
    for (auto It = Lits.rbegin(); It != Lits.rend(); ++It) {
      Vars.push_back(It->first);
      Cube = It->second ? Mgr.node(It->first, Mgr.zero(), Cube)
                        : Mgr.node(It->first, Cube, Mgr.zero());
    }
    P.Literals = std::move(Cube);
    P.LiteralVars = Mgr.makeCube(Vars);
  }
  std::sort(Pairs.begin(), Pairs.end());
  for (size_t I = 1; I < Pairs.size(); ++I)
    if (Pairs[I - 1].second >= Pairs[I].second)
      P.KeepsOrder = false;
  if (!P.Static && readsUnboundVariable(App.Rel))
    P.KeepsOrder = false;
  Pairs.erase(std::remove_if(Pairs.begin(), Pairs.end(),
                             [](const auto &Pr) {
                               return Pr.first == Pr.second;
                             }),
              Pairs.end());
  if (!Pairs.empty())
    P.Perm = Mgr.makePermutation(Pairs);
  return ApplyPlans.emplace(&App, std::move(P)).first->second;
}

const Evaluator::ApplyPlan *Evaluator::fusedPlan(const Formula &F) {
  if (F.Kind != FormulaKind::RelApp)
    return nullptr;
  const ApplyPlan &P = applyPlan(F);
  return P.Perm.isValid() && P.KeepsOrder && !P.Static ? &P : nullptr;
}

Bdd Evaluator::cofactoredValue(const Formula &App, const ApplyPlan &P) {
  Bdd Value = relValue(App.Rel);
  if (P.Literals.isNull())
    return Value;
  return Value.andExists(P.Literals, P.LiteralVars);
}

Bdd Evaluator::applyArgs(const Formula &App) {
  const ApplyPlan &P = applyPlan(App);
  Bdd Value = cofactoredValue(App, P);
  return P.Perm.isValid() ? Value.permute(P.Perm) : Value;
}

BddCube Evaluator::boundCube(const Formula &Q) {
  auto It = BoundCubes.find(&Q);
  if (It != BoundCubes.end())
    return It->second;
  std::vector<unsigned> Vars;
  for (VarId V : Q.Bound)
    for (unsigned Bit : L.bits(V))
      Vars.push_back(Bit);
  return BoundCubes.emplace(&Q, Mgr.makeCube(Vars)).first->second;
}

std::vector<const Formula *> Evaluator::reorderingApplications() {
  std::vector<const Formula *> Out;
  for (RelId R = 0; R < Sys.numRels(); ++R) {
    if (Sys.relation(R).isInput())
      continue;
    std::vector<const Formula *> Apps;
    collectApplications(*Sys.relation(R).Def, Apps);
    for (const Formula *App : Apps) {
      const ApplyPlan &P = applyPlan(*App);
      if (!P.Static && P.Perm.isValid() && !P.KeepsOrder)
        Out.push_back(App);
    }
  }
  return Out;
}

Bdd Evaluator::evalFormula(const Formula &F) {
  // Input-only subtrees are constant; compute them once. That covers an
  // input applied to copies, whose rename would otherwise rerun every
  // round. Other leaves are cheap enough to rebuild (and hit the unique
  // table anyway).
  bool Leaf = F.Kind == FormulaKind::Const || F.Kind == FormulaKind::EqVar ||
              F.Kind == FormulaKind::EqConst;
  if (!Leaf && isStatic(F)) {
    auto It = StaticCache.find(&F);
    if (It != StaticCache.end())
      return It->second;
    Bdd Value = evalFormulaUncached(F);
    StaticCache.emplace(&F, Value);
    return Value;
  }
  return evalFormulaUncached(F);
}

Bdd Evaluator::evalFormulaUncached(const Formula &F) {
  switch (F.Kind) {
  case FormulaKind::Const:
    return F.ConstValue ? Mgr.one() : Mgr.zero();
  case FormulaKind::RelApp:
    return applyArgs(F);
  case FormulaKind::EqVar:
    return encodeEqVar(F.Lhs, F.Rhs);
  case FormulaKind::EqConst:
    return encodeEqConst(F.Lhs, F.Value);
  case FormulaKind::Not:
    return !evalFormula(*F.Children[0]);
  case FormulaKind::And: {
    // Left-to-right: formula authors control conjunction scheduling, which
    // is the point of the Section-4.2 clause-splitting rewrite.
    Bdd Result = evalFormula(*F.Children[0]);
    for (size_t I = 1; I < F.Children.size(); ++I) {
      if (Result.isZero())
        return Result;
      Result &= evalFormula(*F.Children[I]);
    }
    return Result;
  }
  case FormulaKind::Or: {
    Bdd Result = evalFormula(*F.Children[0]);
    for (size_t I = 1; I < F.Children.size(); ++I) {
      if (Result.isOne())
        return Result;
      Result |= evalFormula(*F.Children[I]);
    }
    return Result;
  }
  case FormulaKind::Exists:
    return evalExists(F);
  case FormulaKind::Forall:
    return evalFormula(*F.Body).forall(boundCube(F));
  }
  assert(false && "unhandled formula kind");
  return Mgr.zero();
}

Bdd Evaluator::evalExists(const Formula &F) {
  BddCube Cube = boundCube(F);
  const Formula &Body = *F.Body;
  // A lone application renamed in order: its quantified copy is never
  // built.
  if (const ApplyPlan *P = fusedPlan(Body))
    return cofactoredValue(Body, *P).andExistsRenamed(P->Perm, Mgr.one(),
                                                      Cube);
  if (Body.Kind != FormulaKind::And || Body.Children.size() < 2)
    return evalFormula(Body).exists(Cube);

  // Relational-product scheduling: conjoin all but the last child, then
  // fuse the last conjunction with the quantification. A leading
  // application renamed in order is fused with the second child instead
  // of being built: under the body's cube when there are just the two,
  // else under the empty one. Each child is still evaluated only once the
  // conjunction so far is non-empty.
  const std::vector<Formula *> &Kids = Body.Children;
  Bdd Acc;
  size_t Next = 1;
  if (const ApplyPlan *P = fusedPlan(*Kids[0])) {
    Acc = cofactoredValue(*Kids[0], *P);
    if (Acc.isZero())
      return Acc;
    Bdd Second = evalFormula(*Kids[1]);
    if (Kids.size() == 2)
      return Acc.andExistsRenamed(P->Perm, Second, Cube);
    Acc = Acc.andExistsRenamed(P->Perm, Second, NoVars);
    Next = 2;
  } else {
    Acc = evalFormula(*Kids[0]);
  }
  for (; Next + 1 < Kids.size(); ++Next) {
    if (Acc.isZero())
      return Acc;
    Acc &= evalFormula(*Kids[Next]);
  }
  if (Acc.isZero())
    return Acc;
  return Acc.andExists(evalFormula(*Kids.back()), Cube);
}

void Evaluator::scheduleDependencies(RelId Rel) {
  // Pre-solve the lower SCCs in topological (callees-first) order. Same-SCC
  // members are excluded: they see Rel in flight and must be re-solved per
  // round (the paper's algorithmic semantics). Relations that can see an
  // *outer* in-flight relation stay lazy for the same reason.
  std::vector<RelId> Pending;
  for (RelId T : dependencies().scheduleFor(Rel))
    if (!Completed.count(T) && !dependsOnInFlight(T))
      Pending.push_back(T);
  if (Pending.empty())
    return;
  // Parallel scheduling is a top-level-only move: a nested solve runs
  // inside a worker or inside a caller's round, where the in-flight
  // environment (and the pool itself) is not shareable.
  if (Threads > 1 && InFlight.empty() && Pending.size() > 1 &&
      scheduleDependenciesParallel(Pending))
    return;
  // A solve may complete later list entries transitively (nested
  // non-volatile evaluations are memoized); solveScheduled re-checks.
  for (RelId T : Pending)
    solveScheduled(T);
}

bool Evaluator::scheduleDependenciesParallel(
    const std::vector<RelId> &Pending) {
  const DependencyGraph &G = dependencies();

  // Group the pending relations into SCC tasks, preserving the
  // callees-first order within each task (members of one SCC are solved
  // sequentially by one worker, in the same order the sequential
  // scheduler uses — the nested re-solve cadence inside an SCC is part of
  // the algorithmic semantics).
  std::vector<unsigned> TaskScc;
  std::map<unsigned, unsigned> TaskOf; ///< Condensation index -> task.
  std::vector<std::vector<RelId>> Members;
  for (RelId T : Pending) {
    auto [It, New] = TaskOf.emplace(G.sccOf(T), unsigned(Members.size()));
    if (New) {
      TaskScc.push_back(G.sccOf(T));
      Members.emplace_back();
    }
    Members[It->second].push_back(T);
  }
  if (Members.size() < 2)
    return false; // A single SCC gains nothing from the pool.

  // Task-level dependency edges, via the members' direct dependencies.
  // Dependencies on SCCs outside the schedule are already Completed and
  // need no edge.
  std::vector<std::vector<unsigned>> Deps(Members.size());
  for (unsigned Task = 0; Task < Members.size(); ++Task) {
    std::set<unsigned> Ds;
    for (RelId M : Members[Task])
      for (RelId D : G.directDeps(M)) {
        auto It = TaskOf.find(G.sccOf(D));
        if (It != TaskOf.end() && It->second != Task)
          Ds.insert(It->second);
      }
    Deps[Task].assign(Ds.begin(), Ds.end());
  }

  // Read once, before any worker runs: workers install it on their
  // managers, and a stopped task lifts it from the main manager.
  support::ResourceGovernor *const Gov = Mgr.governor();

  /// One slot per worker; each worker builds its context on its first
  /// task, so `--threads 64` on a three-SCC system pays for three
  /// managers, not 64.
  std::vector<std::unique_ptr<WorkerContext>> Workers(Threads);
  /// Serializes every main-evaluator access while the schedule runs:
  /// imports of inputs, dependencies and partial states, exports of
  /// solved values and hand-backs, the main `Partial` map, the shared
  /// solved-value map (main-manager `Bdd` handles mutate external
  /// refcounts even when copied, so handle lifetime is locked too) and
  /// the first error.
  std::mutex MainLock;
  /// Solved SCC values as main-manager BDDs; written by workers under
  /// MainLock, merged into Completed by this thread after the run.
  std::map<RelId, Bdd> Solved;

  // Containment: runDag's Run must not throw, so each task catches its
  // own failures, and once one task failed, tasks that start later do
  // nothing (a dependent of the failed task would find its dependency
  // unsolved). A governor trip latches the first limit here (the shared
  // governor then trips the running workers at their next probes,
  // draining the schedule) and hands the task's completed work back; any
  // other exception is kept and rethrown after the join.
  std::atomic<bool> Failed{false};
  std::atomic<int> TrippedLimit{0};
  std::exception_ptr FirstError;

  auto RunTask = [&](unsigned Task, unsigned Worker) {
    if (Failed.load())
      return;
    std::unique_ptr<WorkerContext> &Slot = Workers[Worker];
    // The main-manager reads in construction (numVars, gc threshold) are
    // fields no concurrent import/export mutates.
    if (!Slot)
      Slot = std::make_unique<WorkerContext>(Sys, Mgr, L, Gov);
    WorkerContext &W = *Slot;
    Evaluator &WE = W.Ev;
    try {
      try {
        // What this task needs from outside. Collected over *all*
        // members of the condensation SCC — a member already Completed
        // on the main side is still re-solved nested (volatile) by the
        // worker, so its body's needs count too.
        //
        //   - Every *transitively* reachable lower-SCC defined relation
        //     (the member's own `scheduleFor` closure) is seeded as a
        //     worker Completed value, so the worker's scheduler solves
        //     nothing below this SCC — each such value was either
        //     Completed before the run or produced by an earlier task
        //     (the DAG edges chain transitively, so it is in Solved).
        //   - The inputs the SCC members' bodies apply directly; seeded
        //     dependencies never evaluate their bodies, so deeper inputs
        //     are not needed.
        //   - The partial state of every member an earlier, stopped
        //     schedule left unsaturated, so the worker resumes its rounds
        //     instead of computing (and counting) them again.
        std::set<RelId> NeedInputs;
        std::set<RelId> NeedDefined;
        for (RelId M : G.sccs()[TaskScc[Task]]) {
          std::vector<RelId> Applied;
          Sys.collectRels(*Sys.relation(M).Def, Applied);
          for (RelId A : Applied)
            if (Sys.relation(A).isInput())
              NeedInputs.insert(A);
          for (RelId D : G.scheduleFor(M))
            NeedDefined.insert(D);
        }
        {
          std::lock_guard<std::mutex> Lock(MainLock);
          for (RelId A : NeedInputs)
            WE.bindInput(A, W.In.import(input(A)));
          for (RelId D : NeedDefined) {
            auto SIt = Solved.find(D);
            const Bdd &V =
                SIt != Solved.end() ? SIt->second : Completed.at(D);
            WE.Completed[D] = W.In.import(V);
          }
          for (RelId M : Members[Task]) {
            auto PIt = Partial.find(M);
            if (PIt != Partial.end())
              WE.Partial[M] = importState(W.In, PIt->second);
          }
        }

        // Solve the scheduled members, callees-first, worker-locally.
        for (RelId M : Members[Task])
          WE.solveScheduled(M);

        // Export the solved values into the main manager. Canonicity
        // makes each imported BDD bit-identical to what a sequential
        // solve would have stored.
        std::lock_guard<std::mutex> Lock(MainLock);
        for (RelId M : Members[Task])
          Solved[M] = W.Out.import(WE.Completed[M]);
      } catch (const support::ResourceInterrupt &RI) {
        int Expected = 0;
        TrippedLimit.compare_exchange_strong(Expected,
                                             static_cast<int>(RI.Limit));
        Failed.store(true);
        // Hand back everything the task completed: members that
        // saturated but were not exported (the stop may land in the
        // export itself) and every other member's partial state, so a
        // retry on any worker carries on from them. The governor has
        // tripped and would throw again in these imports, so it is
        // lifted — from the main manager for the rest of the schedule.
        W.Mgr.setGovernor(nullptr);
        std::lock_guard<std::mutex> Lock(MainLock);
        Mgr.setGovernor(nullptr);
        for (RelId M : Members[Task]) {
          auto CIt = WE.Completed.find(M);
          if (CIt != WE.Completed.end()) {
            if (!Solved.count(M))
              Solved[M] = W.Out.import(CIt->second);
            continue;
          }
          auto PIt = WE.Partial.find(M);
          if (PIt != WE.Partial.end())
            Partial[M] = importState(W.Out, PIt->second);
        }
      }
    } catch (...) {
      Failed.store(true);
      std::lock_guard<std::mutex> Lock(MainLock);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  };

  // The workers live for this schedule only: an evaluator between solves
  // (a resident session, say) holds no threads and no worker manager.
  runDag(Threads, unsigned(Members.size()), Deps, RunTask);

  // Single-threaded from here: fold the run back into the main state.
  // A task counts as solved on the pool once every member was exported,
  // which a task that returned at once because another had stopped was
  // not.
  for (const std::vector<RelId> &Task : Members)
    if (std::all_of(Task.begin(), Task.end(),
                    [&](RelId M) { return Solved.count(M) != 0; }))
      ++ParStats.SccsSolvedParallel;
  // Exported SCC values are complete, valid solutions even when the run
  // as a whole aborted (each is a pure function of its callees), so they
  // are kept — a retry re-derives only what is missing, bit-identically.
  for (auto &[R, V] : Solved) {
    Partial.erase(R);
    Completed[R] = std::move(V);
  }
  Mgr.setGovernor(Gov);
  ++ParStats.Schedules;
  // Fold the workers in before they go. Every scheduled relation runs the
  // same deterministic rounds wherever it runs, so the per-relation totals
  // equal a sequential solve's. The schedule's managers coexisted, so
  // their peaks add up; none of their nodes outlives the schedule.
  BddStats ScheduleBdd;
  for (std::unique_ptr<WorkerContext> &W : Workers) {
    if (!W)
      continue;
    for (auto &[Name, RS] : W->Ev.Stats) {
      RelStats &Main = Stats[Name];
      Main.Iterations += RS.Iterations;
      Main.Evaluations += RS.Evaluations;
      Main.DeltaRounds += RS.DeltaRounds;
      if (RS.FinalNodes)
        Main.FinalNodes = RS.FinalNodes;
    }
    ScheduleBdd.merge(W->Mgr.stats());
    ParStats.ImportedNodes += W->In.translations() + W->Out.translations();
    W.reset();
  }
  ScheduleBdd.LiveNodes = 0;
  size_t Peak = std::max(WorkerBdd.PeakNodes, ScheduleBdd.PeakNodes);
  WorkerBdd.merge(ScheduleBdd);
  WorkerBdd.PeakNodes = Peak;
  if (FirstError)
    std::rethrow_exception(FirstError);
  if (int L = TrippedLimit.load())
    throw support::ResourceInterrupt{static_cast<support::ResourceLimit>(L)};
  return true;
}

Bdd Evaluator::evalFixpoint(RelId Rel, FixpointState &St,
                            const EvalOptions *Opts, bool *Stopped) {
  const Relation &R = Sys.relation(Rel);
  assert(R.Def && "evaluating an undefined relation");
  assert(!InFlight.count(Rel) && "relation already being solved");

  RelStats &RS = Stats[R.Name];
  if (!St.Saturated)
    ++RS.Evaluations;
  // Pre-solve the lower dependency SCCs callees-first (in parallel under
  // Threads > 1), so the iteration never discovers them mid-round and the
  // scheduler gets whole SCCs to dispatch.
  scheduleDependencies(Rel);
  runFixpoint(Rel, St, Opts, Stopped, RS);
  RS.FinalNodes = St.Value.nodeCount();
  return St.Value;
}

Bdd Evaluator::solveScheduled(RelId Rel) {
  auto Done = Completed.find(Rel);
  if (Done != Completed.end())
    return Done->second;
  // The state outlives a governor stop: runFixpoint writes the last
  // completed round back before the interrupt propagates, and the next
  // solve resumes it, so every round is computed and counted once.
  Bdd Value = evalFixpoint(Rel, Partial[Rel], nullptr, nullptr);
  Partial.erase(Rel);
  Completed[Rel] = Value;
  return Value;
}

/// Tarski iteration from the empty relation (or, for `nu`, the top
/// element). Non-monotone or `nu` equations re-evaluate the whole body
/// each round: S_r = Body(S_{r-1}). Monotone mu equations run semi-naive
/// rounds: after the first, each round computes
///
///   S_r = S_{r-1}  ∪  ⋃_{recursive D} D(S_{r-1})
///
/// skipping the non-recursive disjuncts, whose value N cannot change. This
/// is exactly the paper's Section-3 sequence S_r = Body(S_{r-1}): the chain
/// is increasing, so S_{r-1} = Body(S_{r-2}) ⊆ Body(S_{r-1}), and
/// N ⊆ S_1 ⊆ S_{r-1}; the union therefore lies between Body(S_{r-1}) and
/// itself. Hence rounds, early stops and witness rings are those of the
/// paper's `Evaluate`.
void Evaluator::runFixpoint(RelId Rel, FixpointState &St,
                            const EvalOptions *Opts, bool *Stopped,
                            RelStats &RS) {
  const Relation &R = Sys.relation(Rel);
  if (St.Saturated)
    return;
  const EquationPlan &Plan = plan(Rel);
  Bdd S;
  if (St.Rounds == 0) {
    // Least fixed-points start from the empty relation; greatest
    // fixed-points from the top element, which is the set of
    // *domain-valid* tuples (bits encoding values >= the domain size are
    // excluded so they can never leak into a result).
    S = Mgr.zero();
    if (R.IsNu) {
      S = Mgr.one();
      for (VarId Formal : R.Formals)
        S &= domainConstraint(Formal);
    }
  } else {
    S = St.Value;
  }
  uint64_t Iter = St.Rounds;
  try {
    while (true) {
      // Round-boundary governor check: a limit that fired between
      // makeNode probes (or a pure deadline expiry during cheap rounds)
      // stops here, before the next round starts, so the state written
      // back below is always a completed round.
      if (support::ResourceGovernor *G = Mgr.governor())
        G->check();
      InFlight[Rel] = S;
      Bdd Next;
      if (Plan.SemiNaive && Iter != 0) {
        Next = S;
        for (const DisjunctPlan &D : Plan.Disjuncts)
          if (D.Recursive)
            Next |= evalFormula(*D.Node);
        ++RS.DeltaRounds;
      } else {
        Next = evalFormula(*R.Def);
      }
      InFlight.erase(Rel);
      ++Iter;
      ++RS.Iterations;
      if (Next == S) {
        St.Saturated = true;
        break;
      }
      S = std::move(Next);
      if (Opts && Opts->Rings)
        Opts->Rings->append(S);
      if (Opts && Opts->EarlyStop && !(S & *Opts->EarlyStop).isZero()) {
        if (Stopped)
          *Stopped = true;
        break;
      }
    }
  } catch (...) {
    // A governor interrupt (or an injected fault) landed mid-round. The
    // aborted round's partial values are unreferenced garbage; the locals
    // still hold the last *completed* round, so writing them back leaves
    // the state at a round boundary and a retry resumes the deterministic
    // chain bit-identically to an uninterrupted solve.
    InFlight.erase(Rel);
    St.Value = std::move(S);
    St.Rounds = Iter;
    throw;
  }
  St.Value = std::move(S);
  St.Rounds = Iter;
}

EvalResult Evaluator::evaluate(RelId Rel, const EvalOptions &Opts) {
  EvalResult Result;
  // Without per-round observables (rings, an early stop) a top-level
  // solve is the scheduler's own: memoized — so one evaluator serves many
  // queries (fpsolve --eval R,S), and a later query over an already
  // solved relation costs nothing — and resumable after a governor stop.
  if (InFlight.empty() && !Opts.EarlyStop && !Opts.Rings) {
    Result.Value = solveScheduled(Rel);
    return Result;
  }
  FixpointState St;
  Result.Value = evalFixpoint(Rel, St, &Opts, &Result.EarlyStopped);
  // A complete top-level solve is a valid memo for later nested uses.
  if (InFlight.empty() && !Result.EarlyStopped)
    Completed[Rel] = Result.Value;
  return Result;
}

bool IncrementalFixpoint::tryReplay(const Bdd &Target, bool EarlyStop,
                                    Answer &A) const {
  // A changed round of a fresh solve tests the early-stop target; the
  // saturation round (no change) breaks before the test. Replaying the
  // test against the recorded ring values reproduces the fresh stop round
  // and verdict exactly. The rings are stored delta-compressed: the scan
  // for the first target-intersecting round runs over the stored pieces
  // directly (exact for arbitrary chains — see
  // RingLog::firstIntersecting), and at most one full ring is
  // reconstituted: the one whose value the answer carries. Reconstituted
  // rings are canonically identical to the recorded rounds, so answers
  // stay bit-for-bit those of a full-ring log.
  if (EarlyStop) {
    const size_t Hit = Rings.firstIntersecting(Target);
    if (Hit < Rings.size()) {
      A.Iterations = Hit + 1;
      A.Reachable = true;
      A.EarlyStopped = true;
      A.Value = Rings.ring(Hit);
      A.RoundsReused = Hit + 1;
      return true;
    }
  }
  if (St.Saturated) {
    A.Iterations = St.Rounds;
    A.Reachable = !(St.Value & Target).isZero();
    A.Value = St.Value;
    A.RoundsReused = St.Rounds;
    return true;
  }
  return false;
}

bool IncrementalFixpoint::answersFromState(const Bdd &Target,
                                           bool EarlyStop) const {
  Answer A;
  return tryReplay(Target, EarlyStop, A);
}

IncrementalFixpoint::Answer
IncrementalFixpoint::query(Evaluator &Ev, RelId Rel, const Bdd &Target,
                           bool EarlyStop) {
  Answer A;
  if (tryReplay(Target, EarlyStop, A))
    return A;

  uint64_t Before = St.Rounds;
  EvalOptions Opts;
  if (EarlyStop)
    Opts.EarlyStop = &Target;
  Opts.Rings = &Rings;
  EvalResult R = Ev.resume(Rel, St, Opts);
  A.Iterations = St.Rounds;
  A.Reachable = !(R.Value & Target).isZero();
  A.EarlyStopped = R.EarlyStopped;
  A.Value = R.Value;
  A.RoundsReused = Before;
  A.RoundsComputed = St.Rounds - Before;
  return A;
}

EvalResult IncrementalFixpoint::complete(Evaluator &Ev, RelId Rel) {
  // Already saturated: answer from state without touching the evaluator.
  // The deterministic round chain means the recorded state is exactly
  // what a fresh uninterrupted ring-recording solve would hold.
  if (St.Saturated) {
    EvalResult R;
    R.Value = St.Value;
    return R;
  }
  EvalOptions Opts;
  Opts.Rings = &Rings;
  return Ev.resume(Rel, St, Opts);
}

EvalResult Evaluator::resume(RelId Rel, FixpointState &State,
                             const EvalOptions &Opts) {
  assert(InFlight.empty() &&
         "resume is a top-level entry; no nested evaluation may be live");
  EvalResult Result;
  Result.Value = evalFixpoint(Rel, State, &Opts, &Result.EarlyStopped);
  // A saturated state is a complete solve: a valid memo for nested uses by
  // other relations evaluated against this same session state.
  if (State.Saturated)
    Completed[Rel] = State.Value;
  return Result;
}
