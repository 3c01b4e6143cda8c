//===- Calculus.cpp - First-order fixed-point calculus --------------------===//

#include "fpcalc/Calculus.h"

#include <algorithm>
#include <set>

using namespace getafix;
using namespace getafix::fpc;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

DomainId System::addDomain(std::string Name, uint64_t Size) {
  assert(Size >= 1 && "domains must be non-empty");
  Domains.push_back(Domain{std::move(Name), Size, 0});
  return DomainId(Domains.size() - 1);
}

DomainId System::addBitDomain(std::string Name, unsigned Bits) {
  assert(Bits >= 1 && Bits <= 4096 && "unreasonable bit-vector width");
  uint64_t Size = Bits < 64 ? (uint64_t(1) << Bits) : ~uint64_t(0);
  Domains.push_back(Domain{std::move(Name), Size, Bits});
  return DomainId(Domains.size() - 1);
}

VarId System::addVar(std::string Name, DomainId Dom) {
  assert(Dom < Domains.size() && "unknown domain");
  Vars.push_back(Var{std::move(Name), Dom});
  return VarId(Vars.size() - 1);
}

RelId System::declareRel(std::string Name, std::vector<VarId> Formals) {
#ifndef NDEBUG
  std::set<VarId> Unique(Formals.begin(), Formals.end());
  assert(Unique.size() == Formals.size() && "formals must be distinct");
  for (VarId V : Formals)
    assert(V < Vars.size() && "unknown formal variable");
#endif
  Relation R;
  R.Name = Name;
  R.Formals = std::move(Formals);
  Rels.push_back(std::move(R));
  RelId Id = RelId(Rels.size() - 1);
  auto [It, Inserted] = RelIds.emplace(std::move(Name), Id);
  (void)It;
  assert(Inserted && "duplicate relation name");
  return Id;
}

void System::define(RelId Rel, Formula *Rhs) {
  assert(Rel < Rels.size() && "unknown relation");
  assert(!Rels[Rel].Def && "relation already defined");
  assert(Rhs && "null definition");
  Rels[Rel].Def = Rhs;
}

void System::defineNu(RelId Rel, Formula *Rhs) {
  define(Rel, Rhs);
  Rels[Rel].IsNu = true;
}

//===----------------------------------------------------------------------===//
// Formula builders
//===----------------------------------------------------------------------===//

Formula *System::make(FormulaKind Kind) {
  Arena.push_back(std::make_unique<Formula>(Kind));
  return Arena.back().get();
}

Formula *System::top() {
  Formula *F = make(FormulaKind::Const);
  F->ConstValue = true;
  return F;
}

Formula *System::bottom() {
  Formula *F = make(FormulaKind::Const);
  F->ConstValue = false;
  return F;
}

Formula *System::apply(RelId Rel, std::vector<Term> Args) {
  Formula *F = make(FormulaKind::RelApp);
  F->Rel = Rel;
  F->Args = std::move(Args);
  return F;
}

Formula *System::applyVars(RelId Rel, const std::vector<VarId> &Args) {
  std::vector<Term> Terms;
  Terms.reserve(Args.size());
  for (VarId V : Args)
    Terms.push_back(Term::var(V));
  return apply(Rel, std::move(Terms));
}

Formula *System::eqVar(VarId Lhs, VarId Rhs) {
  Formula *F = make(FormulaKind::EqVar);
  F->Lhs = Lhs;
  F->Rhs = Rhs;
  return F;
}

Formula *System::eqConst(VarId Lhs, uint64_t Value) {
  Formula *F = make(FormulaKind::EqConst);
  F->Lhs = Lhs;
  F->Value = Value;
  return F;
}

Formula *System::mkNot(Formula *Body) {
  Formula *F = make(FormulaKind::Not);
  F->Children = {Body};
  return F;
}

Formula *System::mkAnd(std::vector<Formula *> Children) {
  assert(!Children.empty() && "empty conjunction; use top()");
  if (Children.size() == 1)
    return Children.front();
  Formula *F = make(FormulaKind::And);
  F->Children = std::move(Children);
  return F;
}

Formula *System::mkOr(std::vector<Formula *> Children) {
  assert(!Children.empty() && "empty disjunction; use bottom()");
  if (Children.size() == 1)
    return Children.front();
  Formula *F = make(FormulaKind::Or);
  F->Children = std::move(Children);
  return F;
}

Formula *System::exists(std::vector<VarId> Bound, Formula *Body) {
  Formula *F = make(FormulaKind::Exists);
  F->Bound = std::move(Bound);
  F->Body = Body;
  return F;
}

Formula *System::forall(std::vector<VarId> Bound, Formula *Body) {
  Formula *F = make(FormulaKind::Forall);
  F->Bound = std::move(Bound);
  F->Body = Body;
  return F;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool System::validateFormula(const Formula &F, DiagnosticEngine &Diags,
                             const std::string &Context) const {
  bool Ok = true;
  switch (F.Kind) {
  case FormulaKind::Const:
    break;
  case FormulaKind::RelApp: {
    if (F.Rel >= Rels.size()) {
      Diags.error({}, Context + ": application of unknown relation");
      return false;
    }
    const Relation &R = Rels[F.Rel];
    if (F.Args.size() != R.arity()) {
      Diags.error({}, Context + ": '" + R.Name + "' applied to " +
                          std::to_string(F.Args.size()) +
                          " arguments; arity is " +
                          std::to_string(R.arity()));
      Ok = false;
      break;
    }
    for (size_t I = 0; I < F.Args.size(); ++I) {
      const Term &T = F.Args[I];
      DomainId Expected = Vars[R.Formals[I]].Dom;
      if (T.IsConst) {
        if (T.Value >= Domains[Expected].Size) {
          Diags.error({}, Context + ": constant " +
                              std::to_string(T.Value) + " outside domain '" +
                              Domains[Expected].Name + "' in '" + R.Name +
                              "'");
          Ok = false;
        }
      } else if (T.Variable >= Vars.size()) {
        Diags.error({}, Context + ": unknown variable in application");
        Ok = false;
      } else if (Vars[T.Variable].Dom != Expected) {
        Diags.error({}, Context + ": argument " + std::to_string(I) +
                            " of '" + R.Name + "' has domain '" +
                            Domains[Vars[T.Variable].Dom].Name +
                            "'; expected '" + Domains[Expected].Name + "'");
        Ok = false;
      }
    }
    break;
  }
  case FormulaKind::EqVar:
    if (F.Lhs >= Vars.size() || F.Rhs >= Vars.size()) {
      Diags.error({}, Context + ": equality over unknown variable");
      return false;
    }
    if (Vars[F.Lhs].Dom != Vars[F.Rhs].Dom) {
      Diags.error({}, Context + ": equality between '" + Vars[F.Lhs].Name +
                          "' and '" + Vars[F.Rhs].Name +
                          "' of different domains");
      Ok = false;
    }
    break;
  case FormulaKind::EqConst:
    if (F.Lhs >= Vars.size()) {
      Diags.error({}, Context + ": equality over unknown variable");
      return false;
    }
    if (F.Value >= Domains[Vars[F.Lhs].Dom].Size) {
      Diags.error({}, Context + ": constant " + std::to_string(F.Value) +
                          " outside domain of '" + Vars[F.Lhs].Name + "'");
      Ok = false;
    }
    break;
  case FormulaKind::Not:
    assert(F.Children.size() == 1 && "negation is unary");
    Ok &= validateFormula(*F.Children[0], Diags, Context);
    break;
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *Child : F.Children)
      Ok &= validateFormula(*Child, Diags, Context);
    break;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    for (VarId V : F.Bound)
      if (V >= Vars.size()) {
        Diags.error({}, Context + ": quantification over unknown variable");
        Ok = false;
      }
    Ok &= validateFormula(*F.Body, Diags, Context);
    break;
  }
  return Ok;
}

bool System::validate(DiagnosticEngine &Diags) const {
  bool Ok = true;
  for (const Relation &R : Rels)
    if (R.Def)
      Ok &= validateFormula(*R.Def, Diags, "in definition of '" + R.Name +
                                               "'");
  return Ok;
}

void System::collectRels(const Formula &F, std::vector<RelId> &Out) const {
  switch (F.Kind) {
  case FormulaKind::RelApp:
    Out.push_back(F.Rel);
    break;
  case FormulaKind::Not:
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *Child : F.Children)
      collectRels(*Child, Out);
    break;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    collectRels(*F.Body, Out);
    break;
  default:
    break;
  }
}

bool System::dependsOn(RelId Rel, RelId Target) const {
  std::set<RelId> Visited;
  std::vector<RelId> Stack{Rel};
  while (!Stack.empty()) {
    RelId Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur).second)
      continue;
    const Relation &R = Rels[Cur];
    if (!R.Def)
      continue;
    std::vector<RelId> Used;
    collectRels(*R.Def, Used);
    for (RelId U : Used) {
      if (U == Target)
        return true;
      Stack.push_back(U);
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Dependency analysis
//===----------------------------------------------------------------------===//

const char *fpc::strategyName(EvalStrategy S) {
  return S == EvalStrategy::Naive ? "naive" : "semi-naive";
}

namespace {

/// Collects the relations applied in \p F, split by the parity of the
/// negations above each occurrence. Forall is monotone and does not flip.
void collectByPolarity(const Formula &F, bool Negated,
                       std::vector<RelId> &Pos, std::vector<RelId> &Neg) {
  switch (F.Kind) {
  case FormulaKind::RelApp:
    (Negated ? Neg : Pos).push_back(F.Rel);
    break;
  case FormulaKind::Not:
    collectByPolarity(*F.Children[0], !Negated, Pos, Neg);
    break;
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *Child : F.Children)
      collectByPolarity(*Child, Negated, Pos, Neg);
    break;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    collectByPolarity(*F.Body, Negated, Pos, Neg);
    break;
  default:
    break;
  }
}

void sortUnique(std::vector<RelId> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

/// Iterative Tarjan SCC over the dependency edges. Emits SCCs in reverse
/// topological order (callees before callers), which is exactly the
/// scheduling order the evaluator wants.
struct TarjanScc {
  const std::vector<std::vector<RelId>> &Deps;
  std::vector<unsigned> Index, Low;
  std::vector<bool> OnStack;
  std::vector<RelId> Stack;
  unsigned Counter = 0;
  std::vector<unsigned> SccIndex;
  std::vector<std::vector<RelId>> Sccs;

  explicit TarjanScc(const std::vector<std::vector<RelId>> &Deps)
      : Deps(Deps), Index(Deps.size(), UINT32_MAX), Low(Deps.size(), 0),
        OnStack(Deps.size(), false), SccIndex(Deps.size(), 0) {
    for (RelId R = 0; R < Deps.size(); ++R)
      if (Index[R] == UINT32_MAX)
        run(R);
  }

  void run(RelId Root) {
    // Explicit DFS stack: (node, next child position).
    std::vector<std::pair<RelId, size_t>> Work{{Root, 0}};
    while (!Work.empty()) {
      auto &[R, Child] = Work.back();
      if (Child == 0) {
        Index[R] = Low[R] = Counter++;
        Stack.push_back(R);
        OnStack[R] = true;
      }
      if (Child < Deps[R].size()) {
        RelId Next = Deps[R][Child++];
        if (Index[Next] == UINT32_MAX) {
          Work.emplace_back(Next, 0);
        } else if (OnStack[Next]) {
          Low[R] = std::min(Low[R], Index[Next]);
        }
        continue;
      }
      if (Low[R] == Index[R]) {
        std::vector<RelId> Scc;
        RelId Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          SccIndex[Member] = unsigned(Sccs.size());
          Scc.push_back(Member);
        } while (Member != R);
        Sccs.push_back(std::move(Scc));
      }
      RelId Done = R;
      Work.pop_back();
      if (!Work.empty())
        Low[Work.back().first] =
            std::min(Low[Work.back().first], Low[Done]);
    }
  }
};

} // namespace

DependencyGraph::DependencyGraph(const System &Sys) : Sys(Sys) {
  unsigned N = Sys.numRels();
  Deps.resize(N);
  NegDeps.resize(N);
  Recursive.assign(N, false);
  MonotoneSelf.assign(N, true);
  Closure.resize(N);

  for (RelId R = 0; R < N; ++R) {
    const Relation &Rel = Sys.relation(R);
    if (!Rel.Def)
      continue;
    std::vector<RelId> Pos, Neg;
    collectByPolarity(*Rel.Def, false, Pos, Neg);
    // Dependencies are on *defined* relations only; inputs are constants.
    auto OnlyDefined = [&](std::vector<RelId> &V) {
      V.erase(std::remove_if(V.begin(), V.end(),
                             [&](RelId T) {
                               return Sys.relation(T).isInput();
                             }),
              V.end());
      sortUnique(V);
    };
    // NegDeps keeps input relations too? No: monotonicity cycles can only
    // pass through defined relations, and inputs never close a cycle.
    OnlyDefined(Pos);
    OnlyDefined(Neg);
    Deps[R] = Pos;
    for (RelId T : Neg)
      if (std::find(Deps[R].begin(), Deps[R].end(), T) == Deps[R].end())
        Deps[R].push_back(T);
    sortUnique(Deps[R]);
    NegDeps[R] = std::move(Neg);
  }

  TarjanScc Scc(Deps);
  SccIndex = std::move(Scc.SccIndex);
  SccMembers = std::move(Scc.Sccs);

  // Transitive closure, SCC order (callees first): Closure[R] = direct
  // deps plus their closures.
  for (const std::vector<RelId> &Members : SccMembers)
    for (RelId R : Members) {
      std::vector<RelId> Out = Deps[R];
      for (RelId D : Deps[R]) {
        // Same-SCC members may not be closed yet; the loop below patches
        // intra-SCC reachability wholesale.
        Out.insert(Out.end(), Closure[D].begin(), Closure[D].end());
      }
      sortUnique(Out);
      Closure[R] = std::move(Out);
    }
  // Within an SCC every member reaches every other (and itself).
  for (const std::vector<RelId> &Members : SccMembers) {
    if (Members.size() == 1) {
      RelId R = Members.front();
      Recursive[R] = std::binary_search(Closure[R].begin(),
                                        Closure[R].end(), R);
      continue;
    }
    std::vector<RelId> Union;
    for (RelId R : Members)
      Union.insert(Union.end(), Closure[R].begin(), Closure[R].end());
    Union.insert(Union.end(), Members.begin(), Members.end());
    sortUnique(Union);
    for (RelId R : Members) {
      Closure[R] = Union;
      Recursive[R] = true;
    }
  }

  // MonotoneSelf[R]: no negative edge (Q -neg-> T) lies on a cycle through
  // R, i.e. R reaches Q and T reaches R.
  for (RelId R = 0; R < N; ++R) {
    if (!Recursive[R])
      continue; // Trivially monotone: nothing iterates.
    bool Ok = true;
    for (RelId Q = 0; Q < N && Ok; ++Q) {
      if (NegDeps[Q].empty())
        continue;
      bool RReachesQ = Q == R || reaches(R, Q);
      if (!RReachesQ)
        continue;
      for (RelId T : NegDeps[Q])
        if (T == R || reaches(T, R)) {
          Ok = false;
          break;
        }
    }
    MonotoneSelf[R] = Ok;
  }
}

bool DependencyGraph::reaches(RelId Rel, RelId Target) const {
  return std::binary_search(Closure[Rel].begin(), Closure[Rel].end(),
                            Target);
}

std::vector<RelId> DependencyGraph::scheduleFor(RelId Rel) const {
  std::vector<RelId> Out;
  unsigned Home = SccIndex[Rel];
  // SCC numbering is callees-first, so a single ascending sweep over the
  // SCCs that Rel depends on yields a valid topological schedule.
  for (unsigned S = 0; S < SccMembers.size(); ++S) {
    if (S == Home)
      continue;
    for (RelId Member : SccMembers[S]) {
      if (Member == Rel || Sys.relation(Member).isInput())
        continue;
      if (reaches(Rel, Member))
        Out.push_back(Member);
    }
  }
  return Out;
}

unsigned fpc::definedCondensationWidth(const System &Sys,
                                       const DependencyGraph &Deps) {
  std::vector<bool> Seen(Deps.sccs().size(), false);
  unsigned Width = 0;
  for (RelId R = 0; R < Sys.numRels(); ++R) {
    if (Sys.relation(R).isInput())
      continue;
    unsigned S = Deps.sccOf(R);
    if (!Seen[S]) {
      Seen[S] = true;
      ++Width;
    }
  }
  return Width;
}

namespace {

/// Does \p F transitively depend on \p Rel? (Direct application, or an
/// application of a defined relation that reaches \p Rel.)
bool formulaDependsOn(const System &Sys, const DependencyGraph &G,
                      const Formula &F, RelId Rel) {
  switch (F.Kind) {
  case FormulaKind::RelApp:
    return F.Rel == Rel ||
           (!Sys.relation(F.Rel).isInput() && G.reaches(F.Rel, Rel));
  case FormulaKind::Not:
  case FormulaKind::And:
  case FormulaKind::Or:
    for (const Formula *Child : F.Children)
      if (formulaDependsOn(Sys, G, *Child, Rel))
        return true;
    return false;
  case FormulaKind::Exists:
  case FormulaKind::Forall:
    return formulaDependsOn(Sys, G, *F.Body, Rel);
  default:
    return false;
  }
}

} // namespace

EquationPlan fpc::planEquation(const System &Sys, const DependencyGraph &G,
                               RelId Rel) {
  const Relation &R = Sys.relation(Rel);
  assert(R.Def && "planning an input relation");

  EquationPlan Plan;
  // Union accumulation requires an increasing Tarski chain: mu equations
  // whose self-cycles are negation-free. Everything else runs naively.
  Plan.SemiNaive = !R.IsNu && G.isMonotoneSelf(Rel);

  std::vector<const Formula *> Disjuncts = {R.Def};
  if (R.Def->Kind == FormulaKind::Or)
    Disjuncts.assign(R.Def->Children.begin(), R.Def->Children.end());
  for (const Formula *D : Disjuncts)
    Plan.Disjuncts.push_back({D, formulaDependsOn(Sys, G, *D, Rel)});
  return Plan;
}

//===----------------------------------------------------------------------===//
// Printing (MUCKE-like concrete syntax)
//===----------------------------------------------------------------------===//

std::string System::printFormula(const Formula &F) const {
  switch (F.Kind) {
  case FormulaKind::Const:
    return F.ConstValue ? "true" : "false";
  case FormulaKind::RelApp: {
    std::string Out = Rels[F.Rel].Name + "(";
    for (size_t I = 0; I < F.Args.size(); ++I) {
      if (I)
        Out += ", ";
      const Term &T = F.Args[I];
      Out += T.IsConst ? std::to_string(T.Value) : Vars[T.Variable].Name;
    }
    return Out + ")";
  }
  case FormulaKind::EqVar:
    return Vars[F.Lhs].Name + " = " + Vars[F.Rhs].Name;
  case FormulaKind::EqConst:
    return Vars[F.Lhs].Name + " = " + std::to_string(F.Value);
  case FormulaKind::Not:
    return "!(" + printFormula(*F.Children[0]) + ")";
  case FormulaKind::And:
  case FormulaKind::Or: {
    std::string Sep = F.Kind == FormulaKind::And ? " & " : " | ";
    std::string Out = "(";
    for (size_t I = 0; I < F.Children.size(); ++I) {
      if (I)
        Out += Sep;
      Out += printFormula(*F.Children[I]);
    }
    return Out + ")";
  }
  case FormulaKind::Exists:
  case FormulaKind::Forall: {
    std::string Out = F.Kind == FormulaKind::Exists ? "exists " : "forall ";
    for (size_t I = 0; I < F.Bound.size(); ++I) {
      if (I)
        Out += ", ";
      const Var &V = Vars[F.Bound[I]];
      Out += Domains[V.Dom].Name + " " + V.Name;
    }
    return Out + ". (" + printFormula(*F.Body) + ")";
  }
  }
  return "<?>";
}

std::string System::print() const {
  std::string Out;
  for (const Domain &D : Domains) {
    if (D.ExplicitBits != 0)
      Out += "domain " + D.Name + " [bits " + std::to_string(D.ExplicitBits) +
             "];\n";
    else
      Out += "domain " + D.Name + " [" + std::to_string(D.Size) + "];\n";
  }
  Out += '\n';
  for (const Relation &R : Rels) {
    Out += R.Def ? (R.IsNu ? "nu bool " : "mu bool ") : "input bool ";
    Out += R.Name + "(";
    for (size_t I = 0; I < R.Formals.size(); ++I) {
      if (I)
        Out += ", ";
      const Var &V = Vars[R.Formals[I]];
      Out += Domains[V.Dom].Name + " " + V.Name;
    }
    Out += ")";
    if (R.Def)
      Out += " :=\n  " + printFormula(*R.Def) + ";\n";
    else
      Out += ";\n";
    Out += '\n';
  }
  return Out;
}
