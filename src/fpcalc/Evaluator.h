//===- Evaluator.h - Symbolic fixed-point evaluation ------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic (BDD-backed) evaluator for the fixed-point calculus — the
/// MUCKE stand-in. It implements the paper's *algorithmic semantics*
/// (Section 3, `Evaluate`): to solve `R = B`, iterate from the empty
/// relation, and on every round re-evaluate each relation occurring in `B`
/// under the current interpretation of the in-flight relations. For
/// positive systems this converges to the least fixed-point
/// (Knaster–Tarski); for non-positive systems (the optimized entry-forward
/// algorithm) it is the paper's operational algorithm, and termination is
/// the algorithm author's obligation.
///
/// Variables are mapped to blocks of BDD bits by a `Layout`; the
/// `interleaved` layout places the same field's copies on adjacent levels,
/// which is the variable-ordering style Getafix feeds MUCKE.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_FPCALC_EVALUATOR_H
#define GETAFIX_FPCALC_EVALUATOR_H

#include "bdd/Bdd.h"
#include "fpcalc/Calculus.h"
#include "fpcalc/RingLog.h"

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace getafix {
namespace fpc {

/// Maps every calculus variable to its block of BDD variables (bit 0 is the
/// least significant bit of the encoded value).
class Layout {
public:
  /// Allocates variables in declaration order, bits consecutive.
  static Layout sequential(const System &Sys, BddManager &Mgr);

  /// Allocates the listed groups first, interleaving the bits of each
  /// group's members (copies of the same field sit on adjacent levels);
  /// remaining variables follow sequentially. All members of a group must
  /// share a domain.
  static Layout interleaved(const System &Sys, BddManager &Mgr,
                            const std::vector<std::vector<VarId>> &Groups);

  const std::vector<unsigned> &bits(VarId V) const {
    assert(V < Bits.size() && "unknown variable in layout");
    return Bits[V];
  }

private:
  std::vector<std::vector<unsigned>> Bits;
};

struct EvalOptions {
  /// When non-null, fixpoint iteration of the *requested* relation stops as
  /// soon as the partial result intersects this set (reachability early
  /// termination — the engineered form of the Appendix formula's first
  /// disjunct).
  const Bdd *EarlyStop = nullptr;
  /// When non-null, receives the requested relation's value after every
  /// outer Tarski round (the "onion rings" witness extraction walks
  /// backwards through; see reach::checkReachabilityWithWitness). The log
  /// stores rounds delta-compressed and reconstitutes full rings on
  /// demand, bit-identically (see RingLog.h).
  RingLog *Rings = nullptr;
};

struct EvalResult {
  Bdd Value;
  bool EarlyStopped = false;
};

/// The persistent half of one relation's fixpoint iteration: everything a
/// later continuation needs to carry on exactly where a previous
/// (early-stopped or governor-stopped) solve left off. The fixpoint round
/// sequence is deterministic, so `resume` extends the identical Tarski
/// chain a single uninterrupted solve would have produced — this is what
/// lets a query session stop at one target's round and pick up from there
/// for the next target, bit-identically to solving each query fresh.
struct FixpointState {
  Bdd Value;  ///< S_r: the accumulated relation after `Rounds` rounds.
  /// Body evaluations performed so far (the final, no-change round of a
  /// saturated solve included — matching the `Iterations` a fresh solve
  /// reports).
  uint64_t Rounds = 0;
  bool Saturated = false; ///< `Value` is the fixpoint; resume is a no-op.
};

class Evaluator;
struct ParallelContext; // Evaluator.cpp: per-worker managers.
struct WorkerContext;   // Evaluator.cpp: one worker's solving state.

/// Counters of the evaluator's parallel SCC scheduling (zero until a
/// `Threads > 1` solve actually dispatched work). Cumulative over the
/// evaluator's lifetime, like `stats()`.
struct ParallelStats {
  /// SCC tasks solved on the worker pool: every member exported to the
  /// main manager (a stopped schedule's unstarted tasks do not count).
  uint64_t SccsSolvedParallel = 0;
  uint64_t Schedules = 0;          ///< Parallel scheduling rounds.
  uint64_t Steals = 0;             ///< Pool-level work-stealing events.
  /// Nodes translated across manager boundaries by the cached importers
  /// (both directions, all workers): the cost of seeding SCC tasks and
  /// exporting their solutions.
  uint64_t ImportedNodes = 0;
  unsigned Threads = 1; ///< Configured worker count.

  ParallelStats since(const ParallelStats &Before) const {
    ParallelStats D = *this;
    D.SccsSolvedParallel -= Before.SccsSolvedParallel;
    D.Schedules -= Before.Schedules;
    D.Steals -= Before.Steals;
    D.ImportedNodes -= Before.ImportedNodes;
    return D;
  }
};

/// A `FixpointState` bundled with its recorded per-round values (the
/// "onion rings") and the cross-query replay logic: given a new target,
/// `query` first re-runs the per-round early-stop check a fresh solve
/// performs against the *recorded* rings, answering entirely from state
/// whenever a fresh solve would have stopped within the rounds already
/// computed; only when the answer needs rounds beyond the recorded state
/// does it resume live iteration. Since
/// ring values are target-independent and the round sequence is
/// deterministic, every answer (verdict, stop round, stopped-at value) is
/// bit-identical to a fresh uninterrupted solve under the same options.
class IncrementalFixpoint {
public:
  struct Answer {
    uint64_t Iterations = 0; ///< The round a fresh solve would stop at.
    bool Reachable = false;  ///< Target intersects the stopped-at value.
    bool EarlyStopped = false;
    Bdd Value;               ///< The value a fresh solve would return.
    uint64_t RoundsReused = 0;   ///< Rounds served from recorded state.
    uint64_t RoundsComputed = 0; ///< Rounds evaluated live for this query.
  };

  /// Answers one reachability query over \p Rel, replaying recorded
  /// rounds first and resuming \p Ev only as needed.
  Answer query(Evaluator &Ev, RelId Rel, const Bdd &Target, bool EarlyStop);

  /// Would `query` answer without evaluating any new round? (Used by
  /// batch drivers to serve state-answerable targets first.)
  bool answersFromState(const Bdd &Target, bool EarlyStop) const;

  /// Drives the recorded iteration to saturation with no early-stop
  /// target, recording every round. This is the witness extractor's solve:
  /// idempotent over an already-saturated state, so one recorded chain
  /// serves any number of witness extractions *and* plain replay queries
  /// (one solve per session, ever).
  EvalResult complete(Evaluator &Ev, RelId Rel);

  const RingLog &rings() const { return Rings; }
  const FixpointState &state() const { return St; }

private:
  /// Replay core: true when the recorded state determines the answer.
  bool tryReplay(const Bdd &Target, bool EarlyStop, Answer &A) const;

  FixpointState St;
  RingLog Rings;
};

class Evaluator {
public:
  Evaluator(const System &Sys, BddManager &Mgr, Layout L);
  ~Evaluator();

  /// Solves independent dependency SCCs of a top-level fixpoint on \p N
  /// worker threads (1 = sequential, the default). Each worker owns a
  /// private `BddManager` sharing the main manager's variable order;
  /// solved SCC values are imported back into the main manager, where
  /// ROBDD canonicity makes every downstream round bit-identical to a
  /// sequential solve (the schedule respects dependencies, and an SCC's
  /// solution is a pure function of its callees' values). The worker
  /// managers are created lazily on the first parallel schedule and
  /// persist for the evaluator's lifetime; the pool's threads live for
  /// one schedule, so an idle evaluator holds none.
  void setThreads(unsigned N);
  unsigned threads() const { return Threads; }
  /// Parallel-scheduling counters (cumulative, like `stats()`).
  const ParallelStats &parallelStats() const { return ParStats; }
  /// Aggregate BDD counters of the per-worker managers (all zero until a
  /// parallel schedule ran). Monotone; callers report per-query work via
  /// `BddStats::since`.
  BddStats workerBddStats() const;
  /// Memory gauges of the per-worker managers, which sessions own along
  /// with the main manager (all zero before a parallel schedule): their
  /// `BddManager::gauge()` readings summed, one mark pass per worker.
  BddGauge workerGauge() const;
  /// Releases every per-worker manager's computed cache (see
  /// `BddManager::clearComputedCache`). Call between solves only.
  void clearWorkerCaches();

  /// Binds an input relation to its BDD over the formals' bits. Rebinding
  /// an already-bound input to a new value drops every memo built from
  /// the old binding (the static-subformula cache and the completed and
  /// partial defined relations); a first binding keeps them, since no
  /// memo can have read an unbound input.
  void bindInput(RelId Rel, Bdd Value);

  /// Whether \p Rel has a binding.
  bool hasInput(RelId Rel) const { return Inputs.count(Rel) != 0; }

  /// The BDD bound to an input relation. Reading an unbound input is an
  /// engine bug, reported as a `std::logic_error` naming the relation.
  const Bdd &input(RelId Rel) const {
    auto It = Inputs.find(Rel);
    if (It == Inputs.end())
      unboundInput(Rel);
    return It->second;
  }

  /// Solves the defining equation of \p Rel per the algorithmic semantics.
  /// Without an early stop or a ring log, \p Rel is solved like every
  /// relation the scheduler pre-solves: memoized, and resumed by the next
  /// call after a governor stop (see `solveScheduled`).
  EvalResult evaluate(RelId Rel, const EvalOptions &Opts = EvalOptions());

  /// Continues (or begins, when \p State is fresh) the fixpoint iteration
  /// of \p Rel from the caller-held \p State, honoring this call's
  /// early-stop target and ring recording. Returns when the iteration
  /// saturates or hits the caller's target; \p State then holds
  /// everything needed to continue under a different target. Because the
  /// round sequence is deterministic, the rounds a resumed iteration
  /// appends are exactly the rounds a fresh uninterrupted solve would have
  /// computed. Top-level use only (no nested evaluation may be in flight).
  EvalResult resume(RelId Rel, FixpointState &State,
                    const EvalOptions &Opts = EvalOptions());

  /// Resets memoized and partial values of defined relations (bindings
  /// stay).
  void invalidate();

  const std::map<std::string, RelStats> &stats() const { return Stats; }
  const System &system() const { return Sys; }
  BddManager &manager() { return Mgr; }
  const Layout &layout() const { return L; }

  // Encoding helpers (used to build input-relation BDDs) ------------------
  /// BDD for `V == Value`.
  Bdd encodeEqConst(VarId V, uint64_t Value);
  /// BDD for `A == B` (same domain).
  Bdd encodeEqVar(VarId A, VarId B);
  /// BDD constraining V to valid domain values (< domain size).
  Bdd domainConstraint(VarId V);
  /// Literal for bit \p Bit of variable \p V.
  Bdd bitVar(VarId V, unsigned Bit);

  /// The dependency analysis of the system (built lazily on the first
  /// solve, after all definitions are in place).
  const DependencyGraph &dependencies();
  /// The evaluation plan for \p Rel's equation (memoized).
  const EquationPlan &plan(RelId Rel);

  /// The applications of defined relations, in definition order, whose
  /// rename this layout does not keep in order: their `exists` clauses
  /// build the renamed copy (`permute`) instead of taking the fused
  /// product (`Bdd::andExistsRenamed`). Plans every application site.
  std::vector<const Formula *> reorderingApplications();

private:
  /// One relation application site compiled against the layout, once per
  /// evaluator, so rounds intern nothing.
  struct ApplyPlan {
    /// The constant arguments' formal-bit literals as one cube BDD, and
    /// their variables: the value is cofactored by them first. Null when
    /// every argument is a variable.
    Bdd Literals;
    BddCube LiteralVars;
    /// Formal bits to argument bits; invalid for the identity.
    BddPerm Perm;
    /// `Perm` is strictly increasing on every bit the relation's values
    /// can depend on, its non-constant formal bits: the fused product
    /// applies. False for a reordering or many-to-one map such as
    /// `R(u, u)`, and for a relation whose definitions read a variable
    /// they do not bind, whose support the formals do not bound.
    bool KeepsOrder = true;
    /// An input relation: the application is constant across rounds.
    bool Static = false;
  };

  const ApplyPlan &applyPlan(const Formula &App);
  /// The plan of \p F when it is an application the fused product takes
  /// (a defined relation, renamed in order), else null.
  const ApplyPlan *fusedPlan(const Formula &F);
  /// The value \p App applies, its constant arguments cofactored out.
  Bdd cofactoredValue(const Formula &App, const ApplyPlan &P);
  /// The interned cube of an `Exists`/`Forall` node's bound bits.
  BddCube boundCube(const Formula &Q);
  /// Whether a definition \p Rel reaches reads a variable its equation
  /// neither takes as a formal nor quantifies.
  bool readsUnboundVariable(RelId Rel);

  /// Schedules \p Rel's dependencies, then iterates \p Rel from \p St:
  /// fresh local state for the nested re-solve of a relation that reads
  /// an in-flight one and for an early-stopping or ring-recording
  /// top-level solve, `Partial` state for `solveScheduled`, session state
  /// for `resume`.
  Bdd evalFixpoint(RelId Rel, FixpointState &St, const EvalOptions *Opts,
                   bool *Stopped);
  /// Solves a relation that reads no in-flight relation to saturation and
  /// memoizes it in `Completed`, resuming its `Partial` state when an
  /// earlier, governor-stopped solve left one.
  Bdd solveScheduled(RelId Rel);
  /// The iteration core of `evalFixpoint`.
  void runFixpoint(RelId Rel, FixpointState &St, const EvalOptions *Opts,
                   bool *Stopped, RelStats &RS);
  /// Pre-solves (and memoizes) the defined relations \p Rel depends on
  /// that cannot see any in-flight relation, SCC-by-SCC in topological
  /// order, so the main iteration never discovers them mid-round. Under
  /// `Threads > 1` (top level only), independent SCCs are dispatched onto
  /// the worker pool instead of solved in sequence.
  void scheduleDependencies(RelId Rel);
  /// The parallel core of `scheduleDependencies`: solves \p Pending
  /// (callees-first, no member Completed or volatile) as an SCC-task DAG
  /// on the worker pool. Returns false — leaving every relation unsolved —
  /// when the schedule has no exploitable parallelism (fewer than two
  /// SCCs). A governor stop hands every task's completed work back:
  /// saturated members into `Completed`, partial ones into `Partial`.
  bool scheduleDependenciesParallel(const std::vector<RelId> &Pending);
  /// Cumulative importer translations across all live workers
  /// (before/after deltas bracket one parallel run).
  uint64_t importerTranslations() const;
  /// Drains every worker's per-relation counters into the main
  /// evaluator's (merge-then-reset, so the next drain cannot
  /// double-count). Single-threaded use, after a run has joined.
  void mergeWorkerStats();
  void ensureParallelContext();
  /// The per-worker solving state for pool worker \p Worker, built on its
  /// first task (each slot is touched only by its owning worker).
  WorkerContext &workerContext(unsigned Worker);
  /// Drops every worker evaluator's memo layers; must accompany any drop
  /// of this evaluator's own Completed/StaticCache (rebind, invalidate),
  /// or the next parallel schedule could export values solved under the
  /// old bindings.
  void resetWorkerMemos();
  Bdd evalFormula(const Formula &F);
  Bdd evalFormulaUncached(const Formula &F);
  /// An `Exists` node: fuses its body's leading application, when the
  /// plan allows, with the rest of the product.
  Bdd evalExists(const Formula &F);
  bool isStatic(const Formula &F);
  Bdd relValue(RelId Rel);
  Bdd applyArgs(const Formula &App);
  /// Whether \p Rel is in flight or reaches one through its dependency
  /// closure (`DependencyGraph::reaches`; no formula walk).
  bool dependsOnInFlight(RelId Rel);
  [[noreturn]] void unboundInput(RelId Rel) const;

  const System &Sys;
  BddManager &Mgr;
  Layout L;

  /// Parallel SCC scheduling (Threads > 1): the per-worker BDD
  /// managers/evaluators/importers. Lazily created, persistent across
  /// solves and `resume` calls; the pool's threads are not.
  unsigned Threads = 1;
  std::unique_ptr<ParallelContext> Par;
  ParallelStats ParStats;
  /// Counters of worker managers retired by `setThreads` pool rebuilds,
  /// so `workerBddStats()` stays monotone for `since`-style callers.
  BddStats RetiredWorkerBdd;

  std::map<RelId, Bdd> Inputs;
  std::map<RelId, Bdd> InFlight;  ///< Current interpretation per Section 3.
  std::map<RelId, Bdd> Completed; ///< Memo for env-independent relations.
  /// The rounds of env-independent relations a governor stopped before
  /// they saturated; `solveScheduled` resumes them.
  std::map<RelId, FixpointState> Partial;
  std::map<std::string, RelStats> Stats;

  /// Subformulas mentioning only input relations are constant across
  /// fixpoint rounds; their BDDs are memoized here.
  std::map<const Formula *, Bdd> StaticCache;
  std::map<const Formula *, bool> StaticKind;

  /// Per-site plans; the layout is fixed, so they never go stale.
  std::unordered_map<const Formula *, ApplyPlan> ApplyPlans;
  std::unordered_map<const Formula *, BddCube> BoundCubes;
  /// The empty cube: a fused product of two conjuncts of a longer body
  /// quantifies nothing.
  BddCube NoVars;
  /// Per relation: 1 when `readsUnboundVariable`; empty until first asked.
  std::vector<uint8_t> UnboundReaders;

  /// Built on first use; safe to cache because definitions are frozen once
  /// evaluation starts (System::define asserts single definition).
  std::unique_ptr<DependencyGraph> Graph;
  std::map<RelId, EquationPlan> Plans;
};

} // namespace fpc
} // namespace getafix

#endif // GETAFIX_FPCALC_EVALUATOR_H
