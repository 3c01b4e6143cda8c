//===- Calculus.h - First-order fixed-point calculus ------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's programming language for model checkers (Section 3): a
/// first-order logic over finite domains with least fixed-point definitions,
/// the calculus MUCKE evaluates. A `System` owns:
///
///   - finite *domains* (Boolean, program counters, module ids, bit-vector
///     valuation domains, ...),
///   - typed scalar *variables* (struct-like tuples such as the paper's
///     `Conf s` are flattened to scalars by the caller),
///   - *relations* over domains. A relation is either an *input* (bound to
///     a BDD by the caller — the program encoding: ProgramInt, IntoCall,
///     ...) or *defined* by an equation `R(formals) = Formula` evaluated
///     with the paper's algorithmic (Tarskian iteration) semantics.
///
/// Formulas are n-ary and/or, negation, variable/constant equalities,
/// relation application (arguments may be variables or domain constants),
/// and exists/forall over variable sets. Formulas need not be positive:
/// the optimized entry-forward algorithm (Section 4.3) negates a relation
/// inside `Relevant`, which is exactly why the paper defines operational
/// semantics rather than relying on Knaster–Tarski alone.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_FPCALC_CALCULUS_H
#define GETAFIX_FPCALC_CALCULUS_H

#include "support/Diagnostics.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace fpc {

using DomainId = unsigned;
using VarId = unsigned;
using RelId = unsigned;

/// A finite domain; values are 0..Size-1, encoded in ceil(log2(Size)) bits.
/// Bit-vector domains wider than 63 bits set ExplicitBits and use the
/// all-ones Size sentinel (constants in such domains are still uint64).
struct Domain {
  std::string Name;
  uint64_t Size = 2;
  unsigned ExplicitBits = 0;

  unsigned numBits() const {
    if (ExplicitBits != 0)
      return ExplicitBits;
    unsigned Bits = 0;
    uint64_t Capacity = 1;
    while (Capacity < Size) {
      Capacity <<= 1;
      ++Bits;
    }
    return Bits == 0 ? 1 : Bits;
  }
};

/// A typed scalar variable.
struct Var {
  std::string Name;
  DomainId Dom = 0;
};

/// Relation-application argument: a variable or a domain constant.
struct Term {
  bool IsConst = false;
  VarId Variable = 0;
  uint64_t Value = 0;

  static Term var(VarId V) { return Term{false, V, 0}; }
  static Term constant(uint64_t Value) { return Term{true, 0, Value}; }
};

enum class FormulaKind {
  Const,   ///< true / false.
  RelApp,  ///< R(t1, ..., tn).
  EqVar,   ///< x = y (same domain).
  EqConst, ///< x = c.
  Not,
  And, ///< n-ary.
  Or,  ///< n-ary.
  Exists,
  Forall,
};

struct Formula {
  FormulaKind Kind;

  bool ConstValue = false;          // Const.
  RelId Rel = 0;                    // RelApp.
  std::vector<Term> Args;           // RelApp.
  VarId Lhs = 0, Rhs = 0;           // EqVar / EqConst (Lhs).
  uint64_t Value = 0;               // EqConst.
  std::vector<Formula *> Children;  // Not (1), And, Or.
  std::vector<VarId> Bound;         // Exists / Forall.
  Formula *Body = nullptr;          // Exists / Forall.

  explicit Formula(FormulaKind Kind) : Kind(Kind) {}
};

/// A relation: input (bound externally) or defined by an equation.
struct Relation {
  std::string Name;
  std::vector<VarId> Formals; ///< Distinct variables; give arity and types.
  Formula *Def = nullptr;     ///< Null for input relations.
  bool IsNu = false;          ///< Greatest fixed-point (iterate from top).

  bool isInput() const { return Def == nullptr; }
  unsigned arity() const { return unsigned(Formals.size()); }
};

/// Owns domains, variables, relations and all formula nodes.
class System {
public:
  // Declarations ----------------------------------------------------------
  DomainId addDomain(std::string Name, uint64_t Size);
  /// A 2^Bits bit-vector domain (supports widths above 63).
  DomainId addBitDomain(std::string Name, unsigned Bits);
  VarId addVar(std::string Name, DomainId Dom);
  /// Declares a relation whose formal parameters are \p Formals.
  RelId declareRel(std::string Name, std::vector<VarId> Formals);
  /// Attaches the defining equation `R(formals) = Rhs`.
  void define(RelId Rel, Formula *Rhs);
  /// Attaches a greatest-fixed-point equation: iteration starts from the
  /// full relation (all domain-valid tuples) instead of the empty one. For
  /// positive bodies this computes the GFP (Knaster–Tarski dual); MUCKE
  /// accepts such `nu` definitions, and they express safety properties
  /// (e.g. AG p) directly.
  void defineNu(RelId Rel, Formula *Rhs);

  // Accessors -------------------------------------------------------------
  const Domain &domain(DomainId Id) const { return Domains[Id]; }
  const Var &var(VarId Id) const { return Vars[Id]; }
  const Relation &relation(RelId Id) const { return Rels[Id]; }
  unsigned numDomains() const { return unsigned(Domains.size()); }
  unsigned numVars() const { return unsigned(Vars.size()); }
  unsigned numRels() const { return unsigned(Rels.size()); }
  DomainId boolDomain() const { return BoolDom; }

  // Formula builders (arena-owned) ----------------------------------------
  Formula *top();
  Formula *bottom();
  Formula *apply(RelId Rel, std::vector<Term> Args);
  /// Convenience: all-variable application.
  Formula *applyVars(RelId Rel, const std::vector<VarId> &Args);
  Formula *eqVar(VarId Lhs, VarId Rhs);
  Formula *eqConst(VarId Lhs, uint64_t Value);
  Formula *mkNot(Formula *F);
  Formula *mkAnd(std::vector<Formula *> Children);
  Formula *mkOr(std::vector<Formula *> Children);
  Formula *exists(std::vector<VarId> Bound, Formula *Body);
  Formula *forall(std::vector<VarId> Bound, Formula *Body);

  /// Type/arity checking of all definitions. Reports into \p Diags.
  bool validate(DiagnosticEngine &Diags) const;

  /// Appends every relation applied anywhere inside \p F (with
  /// repetition; callers dedupe). The one formula walker for dependency
  /// collection — the parallel scheduler's needs analysis uses it too.
  void collectRels(const Formula &F, std::vector<RelId> &Out) const;

  /// Renders the whole system in a MUCKE-like concrete syntax.
  std::string print() const;
  std::string printFormula(const Formula &F) const;

private:
  Formula *make(FormulaKind Kind);
  bool validateFormula(const Formula &F, DiagnosticEngine &Diags,
                       const std::string &Context) const;

  std::vector<Domain> Domains;
  std::vector<Var> Vars;
  std::vector<Relation> Rels;
  std::vector<std::unique_ptr<Formula>> Arena;
  std::map<std::string, RelId> RelIds;
  DomainId BoolDom = 0;

public:
  System() { BoolDom = addDomain("bool", 2); }
  /// Looks up a relation id by name; asserts existence.
  RelId relId(const std::string &Name) const {
    auto It = RelIds.find(Name);
    assert(It != RelIds.end() && "unknown relation");
    return It->second;
  }
  bool hasRel(const std::string &Name) const { return RelIds.count(Name); }
};

//===----------------------------------------------------------------------===//
// Dependency analysis
//===----------------------------------------------------------------------===//

/// Per-relation evaluation statistics (lives here rather than next to the
/// evaluator so result structs up the stack can carry it without seeing
/// the BDD package).
struct RelStats {
  uint64_t Iterations = 0;  ///< Outer Tarski rounds (accumulated).
  uint64_t Evaluations = 0; ///< Full fixpoint solves (nested re-solves).
  /// Semi-naive rounds after the first: the rounds that skip the
  /// non-recursive disjuncts.
  uint64_t DeltaRounds = 0;
  size_t FinalNodes = 0;    ///< Dag size of the last computed value.
};

/// The relation dependency graph of an equation system, with its SCC
/// condensation and occurrence-polarity summary. Built once per `System`
/// (after all `define` calls) and consulted by the evaluator for
/// scheduling and for the semi-naive applicability checks.
class DependencyGraph {
public:
  explicit DependencyGraph(const System &Sys);

  /// Defined relations referenced directly by \p Rel's body (deduplicated;
  /// input relations are not dependencies). Empty for input relations.
  const std::vector<RelId> &directDeps(RelId Rel) const {
    return Deps[Rel];
  }

  /// Does \p Rel's value (transitively) depend on the defined relation
  /// \p Target? A binary search of the precomputed closure; false for an
  /// input \p Target, since inputs are not dependencies.
  bool reaches(RelId Rel, RelId Target) const;

  /// Is \p Rel part of a dependency cycle (including self-loops)?
  bool isRecursive(RelId Rel) const { return Recursive[Rel]; }

  /// Index of \p Rel's SCC in the condensation. SCCs are numbered in
  /// *reverse* topological order: sccOf(R) > sccOf(T) whenever R depends
  /// on T across SCCs, so solving SCC 0, 1, ... visits callees first.
  unsigned sccOf(RelId Rel) const { return SccIndex[Rel]; }

  /// Members of each SCC, indexed by SCC number (callees-first order).
  const std::vector<std::vector<RelId>> &sccs() const { return SccMembers; }

  /// The defined relations \p Rel transitively depends on (excluding
  /// \p Rel's own SCC), SCC-by-SCC in topological (callees-first) order —
  /// the schedule the evaluator pre-solves before iterating \p Rel.
  std::vector<RelId> scheduleFor(RelId Rel) const;

  /// No occurrence of \p Rel inside any dependency cycle through \p Rel
  /// sits under a negation: the self-iteration of \p Rel is monotone, so
  /// its Tarski sequence is an increasing chain and union-accumulating
  /// semi-naive evaluation is exact. (Forall preserves monotonicity and
  /// does not count; conservatively, *any* negative edge on a cycle
  /// through \p Rel disqualifies it.)
  bool isMonotoneSelf(RelId Rel) const { return MonotoneSelf[Rel]; }

private:
  const System &Sys;
  std::vector<std::vector<RelId>> Deps;
  /// NegativeEdge[R] = targets R's body applies under an odd number of
  /// negations (directly or anywhere below a Not).
  std::vector<std::vector<RelId>> NegDeps;
  std::vector<bool> Recursive;
  std::vector<bool> MonotoneSelf;
  std::vector<unsigned> SccIndex;
  std::vector<std::vector<RelId>> SccMembers;
  /// Reachability closure, as per-relation sorted vectors.
  std::vector<std::vector<RelId>> Closure;
};

/// Number of condensation SCCs containing at least one *defined*
/// relation — the width the DAG scheduler has to play with. Input-only
/// relations cost no fixpoint work, so they are excluded; what remains is
/// the count of independent solve units (`condensation_width` in stats).
unsigned definedCondensationWidth(const System &Sys,
                                  const DependencyGraph &Deps);

/// One top-level disjunct of a defining equation.
struct DisjunctPlan {
  const Formula *Node = nullptr;
  /// Depends on the iterated relation, directly or through other defined
  /// relations. A non-recursive disjunct's value is fixed for the whole
  /// solve, so semi-naive evaluation folds it in on round 1 only.
  bool Recursive = false;
};

/// The evaluation plan for one equation: whether union-accumulating
/// semi-naive iteration applies at all, and its disjuncts.
struct EquationPlan {
  /// False for `nu` equations and for non-monotone systems — the evaluator
  /// then re-evaluates the whole body every round.
  bool SemiNaive = false;
  std::vector<DisjunctPlan> Disjuncts;
};

/// Plans the semi-naive evaluation of \p Rel's equation (top-level `Or`
/// children are the disjuncts; any other body is one disjunct).
EquationPlan planEquation(const System &Sys, const DependencyGraph &G,
                          RelId Rel);

} // namespace fpc
} // namespace getafix

#endif // GETAFIX_FPCALC_CALCULUS_H
