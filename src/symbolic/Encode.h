//===- Encode.h - Symbolic encoding of Boolean programs ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates a Boolean program's CFG into the input relations the paper's
/// algorithms consume (Section 4's template formulae), as BDDs:
///
///   - `programInt(mod, pc, pc', L, L', G, G')`   internal transitions
///   - `programCall(mod, mod', pc, L, L', G)`      transitions into a call
///   - `skipCall(mod, pc, pc')`                    the Across pairs
///   - `setReturn1` / `setReturn2`                 the split Return relation
///     of Section 4.2 (caller-side local copying vs exit-side return-value
///     assignment), and `setReturn`, their unsplit conjunction (bound on
///     demand, by `bindSetReturn`)
///   - `exitRel(mod, pc)`, `entryRel(mod, pc, L)`, `initRel(mod, pc, L)`
///
/// State layout follows the Appendix's `Conf` tuple: module id, module-local
/// PC (entries are PC 0), a local bit-vector padded to the largest frame,
/// and a global bit-vector. Nondeterministic `*` subexpressions compile to
/// existentially quantified choice bits.
///
/// `VarFactory` centralizes variable creation so that every copy of the
/// same field lands in one interleaving group — the variable-ordering
/// heuristic Getafix hands MUCKE (copies of a field on adjacent levels).
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SYMBOLIC_ENCODE_H
#define GETAFIX_SYMBOLIC_ENCODE_H

#include "bp/Cfg.h"
#include "fpcalc/Evaluator.h"

#include <map>
#include <string>
#include <vector>

namespace getafix {
namespace sym {

/// The shared finite domains of a program encoding.
struct StateDomains {
  fpc::DomainId Mod = 0;  ///< Module (procedure) ids.
  fpc::DomainId Pc = 0;   ///< Module-local program counters.
  fpc::DomainId LVec = 0; ///< Local-frame bit-vectors (padded).
  fpc::DomainId GVec = 0; ///< Global bit-vectors.
};

/// Creates calculus variables and records them in per-domain interleaving
/// groups for the layout. Creation order within a domain is the BDD order:
/// groups follow domain ids, and a group places bit b of every member, in
/// creation order, before bit b+1 of any. Engines therefore create each
/// quantified copy right after the formal it stands in for, so applying a
/// relation to its copies (`Reach(d.mod, d.pc, ...)`) renames every bit
/// onto a level between the formal's and the next formal's: the rename
/// keeps the order and builds each node directly, with no ite rebuild.
///
/// Each engine orders the groups by the order it creates its domains in.
/// The sequential engines and the post* baseline use Module, PrCount,
/// Global, Local, Choice. The concurrent engine uses Context, Module,
/// PrCount, Local, Global, Thread, Choice: a Reach tuple's context
/// counter decides which switch-point copies g_j/t_j it constrains, so
/// with the counter on top each context's part of Reach holds only its
/// own switch points; and the globals sit below the module and pc that
/// decide how a step changes them. On bluetooth 2a2s at k = 4 that order
/// creates 0.59x the nodes and makes 0.42x the cache probes of the old
/// Module, PrCount, Global, Local, Context one, and every order that puts
/// Global above Module or PrCount makes at least 2.6x its probes
/// (docs/EVALUATION.md, "Variable order").
class VarFactory {
public:
  VarFactory(fpc::System &Sys) : Sys(Sys) {}

  fpc::VarId makeVar(const std::string &Name, fpc::DomainId Dom) {
    fpc::VarId V = Sys.addVar(Name, Dom);
    Groups[Dom].push_back(V);
    return V;
  }

  /// Interleaves each domain's variables; groups ordered by domain id.
  fpc::Layout makeLayout(BddManager &Mgr) const {
    std::vector<std::vector<fpc::VarId>> Ordered;
    for (const auto &[Dom, Vars] : Groups) {
      (void)Dom;
      Ordered.push_back(Vars);
    }
    return fpc::Layout::interleaved(Sys, Mgr, Ordered);
  }

private:
  fpc::System &Sys;
  std::map<fpc::DomainId, std::vector<fpc::VarId>> Groups;
};

/// The flattened `Conf` tuple of the Appendix: current state plus the
/// entry-state copies used by summary relations.
struct ConfVars {
  fpc::VarId Mod = 0;
  fpc::VarId Pc = 0;
  fpc::VarId CL = 0;  ///< Current locals.
  fpc::VarId CG = 0;  ///< Current globals.
  fpc::VarId ECL = 0; ///< Locals at the last entry of this module.
  fpc::VarId ECG = 0; ///< Globals at the last entry of this module.
};

/// Declares and (later) binds one program's input relations. Several
/// encoders can share a System (one per thread of a concurrent program).
class ProgramEncoder {
public:
  /// Declares relations named with \p Suffix (empty for sequential use).
  ProgramEncoder(fpc::System &Sys, VarFactory &Factory,
                 const StateDomains &Doms, const bp::ProgramCfg &Cfg,
                 fpc::DomainId ChoiceDom, std::string Suffix = "");

  /// Builds the relation BDDs into \p Ev, all but the unsplit `setReturn`.
  /// No relation names a target (the solvers intersect with it
  /// themselves), so one binding serves every query.
  void bind(fpc::Evaluator &Ev);

  /// Builds the unsplit `setReturn` into \p Ev unless it is bound there
  /// already. Only the systems that apply the unsplit return clause
  /// (`summary`, `ef`) and the witness walk's skip step read it, so `bind`
  /// leaves it to them.
  void bindSetReturn(fpc::Evaluator &Ev);

  // Relation ids -----------------------------------------------------------
  fpc::RelId ProgramInt = 0;
  fpc::RelId ProgramCall = 0;
  fpc::RelId SkipCall = 0;
  fpc::RelId SetReturn1 = 0;
  fpc::RelId SetReturn2 = 0;
  fpc::RelId SetReturn = 0;
  fpc::RelId ExitRel = 0;
  fpc::RelId EntryRel = 0;
  fpc::RelId InitRel = 0;

  const bp::ProgramCfg &cfg() const { return Cfg; }

  /// Largest number of `*` choice bits used by any edge of \p Cfg.
  static unsigned maxChoiceBits(const bp::ProgramCfg &Cfg);

  // Formal parameter variables per relation (created at declaration time).
  // Exposed so native (non-calculus) solvers can build their renamings.
  struct FormalSets {
    // programInt(Mod, PcFrom, PcTo, LFrom, LTo, GFrom, GTo).
    fpc::VarId IMod, IPcFrom, IPcTo, ILFrom, ILTo, IGFrom, IGTo;
    // programCall(ModCaller, ModCallee, PcCall, LCaller, LEntry, G).
    fpc::VarId CModCaller, CModCallee, CPc, CLCaller, CLEntry, CG;
    // skipCall(Mod, PcCall, PcRet).
    fpc::VarId SMod, SPcCall, SPcRet;
    // setReturn1(Mod, ModCallee, PcCall, LCaller, LRet).
    fpc::VarId R1Mod, R1ModCallee, R1Pc, R1LCaller, R1LRet;
    // setReturn2(Mod, ModCallee, PcCall, PcExit, LExit, LRet, GExit, GRet).
    fpc::VarId R2Mod, R2ModCallee, R2Pc, R2PcExit, R2LExit, R2LRet, R2GExit,
        R2GRet;
    // setReturn(Mod, ModCallee, PcCall, PcExit, LCaller, LExit, GExit,
    //           LRet, GRet).
    fpc::VarId RMod, RModCallee, RPc, RPcExit, RLCaller, RLExit, RGExit,
        RLRet, RGRet;
    // exitRel(Mod, Pc); entryRel(Mod, Pc, L); initRel(Mod, Pc, L).
    fpc::VarId EMod, EPc, YMod, YPc, YL, NMod, NPc, NL;
  };

  const FormalSets &formals() const { return F; }

private:
  Bdd compileExpr(fpc::Evaluator &Ev, const bp::Expr &E, fpc::VarId LVar,
                  fpc::VarId GVar, unsigned &ChoiceIdx);
  Bdd frameEq(fpc::Evaluator &Ev, fpc::VarId From, fpc::VarId To);
  BddCube choiceCube(fpc::Evaluator &Ev);

  void bindProgramInt(fpc::Evaluator &Ev);
  void bindProgramCall(fpc::Evaluator &Ev);
  void bindSkipCall(fpc::Evaluator &Ev);
  void bindReturns(fpc::Evaluator &Ev);
  void bindStatics(fpc::Evaluator &Ev);

  fpc::System &Sys;
  const StateDomains Doms;
  const bp::ProgramCfg &Cfg;
  fpc::VarId Choice; ///< Shared existential choice-bit vector.

  FormalSets F;
};

} // namespace sym
} // namespace getafix

#endif // GETAFIX_SYMBOLIC_ENCODE_H
