//===- Solver.h - Unified reachability-solver facade ------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one entry point the paper's thesis calls for: every reachability
/// algorithm in this repository — the four fixed-point formulations of
/// Sections 4.1–4.3, the per-SCC split of Section 4.1's summaries, the two
/// natively-coded baselines, the Section-5 bounded context-switching
/// engine, and the Lal–Reps eager sequentialization — answers the same
/// `Query` through `Solver::solve`.
///
///   - `Query`        — the program (source text or a pre-built
///     `bp::ProgramCfg` / `bp::ConcurrentProgram`), the target (a label or
///     an explicit (thread, proc, pc) point), and an optional witness
///     request.
///   - `SolverOptions` — engine name plus the union of all engine knobs
///     (`sym::SolveConfig`: early stop, threads, context bound,
///     round-robin/rounds) and the resource limits.
///   - `SolveResult`  — status + the union of every engine's statistics
///     (`sym::SolveStats`), plus the witness trace when one was requested
///     and extracted.
///   - `Engine`       — the pluggable backend interface; Engines.cpp adds
///     each implementation to the `EngineRegistry` keyed by name, which is
///     also where CLI `--algo` help and `--list-algos` come from.
///
/// Engines take the `sym::SolveConfig` half of the options and return
/// `sym::SolveStats` directly, so nothing is translated between per-module
/// Options/Result structs; string→algorithm dispatch and the mapping of a
/// tripped limit onto a status live here, once.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_API_SOLVER_H
#define GETAFIX_API_SOLVER_H

#include "bp/Ast.h"
#include "bp/Cfg.h"
#include "reach/Witness.h"
#include "support/ResourceGovernor.h"
#include "symbolic/Solve.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace api {

//===----------------------------------------------------------------------===//
// Query
//===----------------------------------------------------------------------===//

/// One reachability question: a program, a target, and whether a
/// counterexample trace is wanted. Build with the named constructors and
/// chain the target/witness setters:
///
///   auto R = Solver::solve(Query::fromSource(Text).target("ERR"), Opts);
///
/// Pre-built-program queries borrow the CFG/program; the caller keeps it
/// alive for the duration of the solve.
struct Query {
  /// Program source; parsed (and auto-detected as sequential or concurrent)
  /// when no pre-built program is given.
  std::string Source;
  /// Pre-built sequential program.
  const bp::ProgramCfg *Cfg = nullptr;
  /// Pre-built concurrent program, with optional pre-built per-thread CFGs
  /// (built on demand otherwise).
  const bp::ConcurrentProgram *Conc = nullptr;
  const std::vector<bp::ProgramCfg> *ThreadCfgs = nullptr;

  /// Target label (ignored when `UsePoint`).
  std::string Label = "ERR";
  /// Explicit target point; `Thread` is meaningful for concurrent queries.
  bool UsePoint = false;
  unsigned Thread = 0;
  unsigned ProcId = 0;
  unsigned Pc = 0;

  /// Request a counterexample trace (engines that cannot extract one leave
  /// `SolveResult::Witness` empty and `HasWitness` false).
  bool WantWitness = false;

  static Query fromSource(std::string Text) {
    Query Q;
    Q.Source = std::move(Text);
    return Q;
  }
  static Query fromCfg(const bp::ProgramCfg &Cfg) {
    Query Q;
    Q.Cfg = &Cfg;
    return Q;
  }
  static Query
  fromConcurrent(const bp::ConcurrentProgram &Conc,
                 const std::vector<bp::ProgramCfg> *ThreadCfgs = nullptr) {
    Query Q;
    Q.Conc = &Conc;
    Q.ThreadCfgs = ThreadCfgs;
    return Q;
  }

  Query &target(std::string TargetLabel) {
    Label = std::move(TargetLabel);
    UsePoint = false;
    return *this;
  }
  Query &targetPoint(unsigned TargetProcId, unsigned TargetPc,
                     unsigned TargetThread = 0) {
    UsePoint = true;
    ProcId = TargetProcId;
    Pc = TargetPc;
    Thread = TargetThread;
    return *this;
  }
  Query &witness(bool Want = true) {
    WantWitness = Want;
    return *this;
  }
};

//===----------------------------------------------------------------------===//
// Options and result
//===----------------------------------------------------------------------===//

/// The union of every engine's knobs: the engine's name, the solver knobs
/// every engine takes (`sym::SolveConfig`), and the resource limits the
/// dispatcher arms a governor with. Engines read what applies to them and
/// ignore the rest, so one options struct configures any engine.
struct SolverOptions : sym::SolveConfig {
  /// Registry key of the engine to run. Empty selects the default for the
  /// query kind: `summary-scc` for sequential programs, `conc` for
  /// concurrent.
  std::string Engine;

  // Resource governance (see support/ResourceGovernor.h). When any of
  // these (or `Governor`) is set, the solve runs under a governor and a
  // tripped limit is reported as SolveStatus::HitDeadline /
  // HitNodeBudget / Cancelled — stopped at a completed round boundary, so
  // a session retry with a larger (or no) budget resumes the
  // deterministic round chain and stays bit-identical to an uninterrupted
  // solve. The limits are installed on the caller's `Governor` when one
  // is given (so the caller can also cancel() it directly); otherwise
  // the dispatcher creates a governor per solve attempt.
  /// Wall-clock deadline for one solve, in milliseconds; 0 = none.
  uint64_t TimeoutMs = 0;
  /// Cap on BDD nodes allocated during one solve (shared across the main
  /// and worker managers); 0 = unlimited. Enumerative engines (bebop)
  /// allocate no BDD nodes, so only the deadline/cancel limits apply.
  uint64_t NodeBudget = 0;
  /// External cooperative-cancellation flag (not owned; may be set from
  /// any thread). Null = none.
  const std::atomic<bool> *CancelFlag = nullptr;

  /// True when any governance knob is active.
  bool governed() const {
    return TimeoutMs != 0 || NodeBudget != 0 || CancelFlag != nullptr ||
           Governor != nullptr;
  }
};

enum class SolveStatus {
  Ok,             ///< The engine answered the query.
  ParseError,     ///< The program source failed to parse/analyze.
  UnknownEngine,  ///< No registered engine has the requested name.
  TargetNotFound, ///< The target label does not exist in the program.
  BadQuery,       ///< Query/engine mismatch (see `Error`).
  // Resource-limit terminal statuses (`ok()` false; no verdict). The
  // solve stopped at a completed round boundary, so a session retry with
  // a larger budget resumes bit-identically.
  HitDeadline,    ///< `SolverOptions::TimeoutMs` expired.
  HitNodeBudget,  ///< `SolverOptions::NodeBudget` exhausted.
  Cancelled,      ///< The cancel flag (or `ResourceGovernor::cancel`) fired.
};

/// Maps a tripped governor limit to its terminal status;
/// `ResourceLimit::None` maps to `Ok`.
inline SolveStatus statusForLimit(support::ResourceLimit L) {
  switch (L) {
  case support::ResourceLimit::None:
    return SolveStatus::Ok;
  case support::ResourceLimit::Deadline:
    return SolveStatus::HitDeadline;
  case support::ResourceLimit::NodeBudget:
    return SolveStatus::HitNodeBudget;
  case support::ResourceLimit::Cancelled:
    return SolveStatus::Cancelled;
  }
  return SolveStatus::Ok;
}

/// True for the three resource-limit terminal statuses.
inline bool isResourceLimit(SolveStatus S) {
  return S == SolveStatus::HitDeadline || S == SolveStatus::HitNodeBudget ||
         S == SolveStatus::Cancelled;
}

/// Status + the union of every engine's statistics (`sym::SolveStats`),
/// plus the witness trace when one was requested and extracted.
struct SolveResult : sym::SolveStats {
  SolveResult() = default;
  /// An engine's statistics, status `Ok`; the dispatcher maps a tripped
  /// `Limit` onto the status.
  SolveResult(sym::SolveStats Stats) : sym::SolveStats(std::move(Stats)) {}

  SolveStatus Status = SolveStatus::Ok;
  std::string Error; ///< Human-readable detail when `Status != Ok`.

  /// Lal–Reps: globals in the sequentialized program (the O(k) copy blowup
  /// the paper's formulation avoids).
  size_t TransformedGlobals = 0;
  /// Always 0: no engine fans a round out over the pool any more. Kept
  /// only because the benchmark, whose `perfbench/` sources are frozen,
  /// reads it (`perfbench/perfbench.cpp:600`, `fpcalc.rounds_parallel`);
  /// delete it with that read.
  uint64_t RoundsParallel = 0;
  /// Always false: there is no round cap any more. Kept, like
  /// `RoundsParallel`, only because the frozen benchmark reads it
  /// (`perfbench/perfbench.cpp:450`); delete it with that read.
  bool HitIterationLimit = false;

  /// Witness trace, when requested and the engine supports extraction.
  bool HasWitness = false;
  std::vector<reach::WitnessStep> Witness;
  std::string WitnessText; ///< `reach::formatWitness` rendering.

  bool ok() const { return Status == SolveStatus::Ok; }

  /// BDD computed-cache hit rate in [0, 1]; 0 when nothing was probed.
  double bddCacheHitRate() const {
    return Bdd.CacheLookups != 0
               ? double(Bdd.CacheHits) / double(Bdd.CacheLookups)
               : 0.0;
  }
};

//===----------------------------------------------------------------------===//
// Compiled queries
//===----------------------------------------------------------------------===//

/// A `Query` resolved against a concrete program: source parsed, CFGs
/// built, the target located. This is what engines consume; building it
/// once here is what deletes the per-caller parse/lookup boilerplate.
/// Not movable: engines hold pointers into the owned storage.
class CompiledQuery {
public:
  CompiledQuery() = default;
  CompiledQuery(const CompiledQuery &) = delete;
  CompiledQuery &operator=(const CompiledQuery &) = delete;

  bool isConcurrent() const { return Conc != nullptr; }
  const bp::ProgramCfg &cfg() const { return *Cfg; }
  const bp::ConcurrentProgram &concurrent() const { return *Conc; }
  const std::vector<bp::ProgramCfg> &threadCfgs() const { return *ThreadCfgs; }

  unsigned thread() const { return Thread; }
  unsigned procId() const { return ProcId; }
  unsigned pc() const { return Pc; }
  /// The queried label; empty for point queries on unlabelled points.
  const std::string &label() const { return Label; }
  bool wantWitness() const { return WantWitness; }

private:
  friend class Solver;

  // Borrowed views (into owned storage below, or the caller's objects).
  const bp::ProgramCfg *Cfg = nullptr;
  const bp::ConcurrentProgram *Conc = nullptr;
  const std::vector<bp::ProgramCfg> *ThreadCfgs = nullptr;

  // Owned storage for source-text queries / on-demand thread CFGs.
  std::unique_ptr<bp::Program> OwnedProg;
  std::unique_ptr<bp::ConcurrentProgram> OwnedConc;
  std::unique_ptr<bp::ProgramCfg> OwnedCfg;
  std::vector<bp::ProgramCfg> OwnedThreadCfgs;

  unsigned Thread = 0;
  unsigned ProcId = 0;
  unsigned Pc = 0;
  std::string Label;
  bool WantWitness = false;
};

//===----------------------------------------------------------------------===//
// Engines
//===----------------------------------------------------------------------===//

/// Persistent per-program solver state an engine holds across queries: the
/// compiled equation system, BDD manager, and the summary rounds solved so
/// far. Obtained from `Engine::open`; consumed by `SolverSession`. Every
/// `solve` must produce results bit-identical to a fresh `Engine::run` of
/// the same query — reuse is a pure performance property, enforced by the
/// session differential tests.
class EngineSession {
public:
  virtual ~EngineSession() = default;

  /// Solves one query against the session's program (the target fields of
  /// \p Q are resolved against that program by the caller).
  virtual SolveResult solve(const CompiledQuery &Q) = 0;

  /// Would `solve` answer \p Q entirely from already-solved state, without
  /// evaluating new fixpoint rounds? Batch drivers (`solveAll`) serve such
  /// queries first. Non-const: probing may encode the target over the
  /// session's BDD manager. Conservative default: unknown, treated as no.
  virtual bool answersFromState(const CompiledQuery &Q) {
    (void)Q;
    return false;
  }

  /// Installs (or clears, with null) a per-attempt resource governor on
  /// the session's solving state; the next `solve` runs under it and, on
  /// a tripped limit, stops at a completed round boundary leaving the
  /// session valid for a bit-identical retry. Default: engines without
  /// governor support ignore it.
  virtual void setGovernor(support::ResourceGovernor *G) { (void)G; }

  /// Frees BDD computed caches (a memory valve for long-lived sessions);
  /// solved state is kept and later queries stay bit-identical.
  virtual void clearComputedCache() {}

  /// The session's memory gauge (`sym::SessionState::Gauge`): live BDD
  /// nodes held by its managers, the peak of that count, and a bytes
  /// estimate of the resident solver state — the signal a memory-budgeted
  /// session pool evicts on. The session samples it once per query, at
  /// its end (one mark pass per manager), so a read costs nothing and
  /// stays exact until the next query; `clearComputedCache` removes the
  /// caches' share from it. All zero for engines without persistent BDD
  /// state.
  virtual sym::SessionState::Gauge gauge() const { return {}; }
};

/// A pluggable reachability backend. Implementations read the knobs of
/// `sym::SolveConfig` that apply to them, solve the compiled query, and
/// return its statistics as a `SolveResult`. The dispatcher has already
/// armed `SolveConfig::Governor` with the options' limits, and maps a
/// tripped `SolveStats::Limit` onto the status afterwards. The nine
/// engines live in Engines.cpp, which adds each to the registry once.
class Engine {
public:
  virtual ~Engine() = default;

  /// Registry key (`--algo` value), e.g. "ef-split".
  virtual const char *name() const = 0;
  /// One-line description for `--list-algos`.
  virtual const char *description() const = 0;
  /// Whether this engine answers concurrent (vs sequential) queries.
  virtual bool handlesConcurrent() const = 0;
  /// Whether this engine can extract a counterexample trace.
  virtual bool supportsWitness() const { return false; }

  /// Solves \p Q. The query kind is pre-checked against
  /// `handlesConcurrent()` by the dispatcher.
  virtual SolveResult run(const CompiledQuery &Q,
                          const sym::SolveConfig &Config) const = 0;

  /// Opens persistent solver state over \p Program (whose target fields
  /// are ignored) for cross-query reuse. Engines without a session mode
  /// return null — `SolverSession` then falls back to a fresh `run` per
  /// query, so every registry engine works in session mode either way.
  virtual std::unique_ptr<EngineSession>
  open(const CompiledQuery &Program, const sym::SolveConfig &Config) const {
    (void)Program;
    (void)Config;
    return nullptr;
  }

  /// The fixed-point equation system this engine solves for \p Q (the
  /// paper's "one page of formulae"); empty for natively-coded engines.
  virtual std::string formulaText(const CompiledQuery &Q) const {
    (void)Q;
    return "";
  }
};

/// Name-keyed engine registry. `instance()` registers the built-in engines
/// on first use, so they are available even when the api library is linked
/// statically and nothing else references Engines.cpp.
class EngineRegistry {
public:
  static EngineRegistry &instance();

  /// Takes ownership; names are unique.
  void add(std::unique_ptr<Engine> E);
  /// Null when no engine has that name.
  const Engine *lookup(const std::string &Name) const;
  /// All engines, in registration order.
  std::vector<const Engine *> engines() const;

private:
  std::vector<std::unique_ptr<Engine>> Engines;
};

namespace detail {
/// Defined in Engines.cpp; called once by `EngineRegistry::instance()`.
void registerBuiltinEngines(EngineRegistry &R);
} // namespace detail

//===----------------------------------------------------------------------===//
// SolverSession
//===----------------------------------------------------------------------===//

/// A program opened for many queries: holds the compiled program plus the
/// selected engine's persistent solver state (compiled calculus, BDD
/// manager, solved summary rounds), so each `solve` reuses everything
/// earlier queries paid for. Obtained from `Solver::open`; check `ok()`
/// (a failed open reports its error from every subsequent `solve`).
///
/// The contract is bit-identical results: for any query and any query
/// order, `session.solve(Q)` returns the same verdict, iteration count,
/// and witness as a fresh `Solver::solve(Q, Opts)` — reuse shows up only
/// in wall-clock and in the `SummariesReused` statistics. Engines without
/// session support transparently fall back to fresh per-query solves.
///
/// Queries carry only the target (label or point) and the witness flag;
/// their program fields are ignored — the session's program is the one
/// answered against. Options are fixed at `open`.
class SolverSession {
public:
  ~SolverSession();
  SolverSession(const SolverSession &) = delete;
  SolverSession &operator=(const SolverSession &) = delete;

  bool ok() const { return Status == SolveStatus::Ok; }
  SolveStatus status() const { return Status; }
  const std::string &error() const { return Error; }
  /// The engine answering this session's queries.
  const Engine *engine() const { return Eng; }

  SolveResult solve(const Query &Q);

  /// Answers a batch, ordered to maximize reuse: duplicate targets are
  /// solved once and copied, and queries answerable entirely from
  /// already-solved state are served before queries that must extend it.
  /// Results come back in input order and are bit-identical to issuing
  /// the `solve` calls individually (in any order).
  std::vector<SolveResult> solveAll(const std::vector<Query> &Qs);

  /// Installs (or clears, with null) a per-request resource governor:
  /// subsequent `solve`/`solveAll` calls run under it until it is
  /// replaced or cleared. Governors are one-shot — install a fresh one
  /// per attempt. A tripped limit surfaces as a resource-limit status
  /// (HitDeadline / HitNodeBudget / Cancelled) with the session stopped
  /// at a completed round boundary, so a retry under a larger (or no)
  /// budget resumes the deterministic chain bit-identically. The caller
  /// owns the governor and must keep it alive across the governed calls.
  /// This is how a server applies per-request limits to pooled sessions
  /// whose options are fixed at `open`.
  void setResourceGovernor(support::ResourceGovernor *G);

  /// Drops the engine's BDD computed caches (a memory valve for
  /// long-lived sessions); solved state is kept and later queries stay
  /// bit-identical.
  void clearComputedCache();

  /// Session memory introspection (see `EngineSession::gauge`): live/peak
  /// BDD node counts and a bytes estimate of the resident solver state.
  /// All 0 for engines that fall back to fresh per-query solves (they
  /// hold no state) and before the engine state is first opened.
  sym::SessionState::Gauge gauge() const;

  /// The footprint estimate sampled at the end of the last query (or
  /// cache clear / gauge read) on this session, readable without
  /// touching the engine state. A memory-budgeted pool reads this for
  /// sessions currently *leased out* — their engine state may be mid-query
  /// on another thread, so calling `gauge()` would race, but the
  /// end-of-last-query sample is exactly the growth the pool would
  /// otherwise not see until the lease is released. 0 until a query runs.
  size_t lastSampledFootprint() const {
    return FootGauge.load(std::memory_order_relaxed);
  }

  /// Cross-query bookkeeping.
  struct SessionStats {
    uint64_t Queries = 0;       ///< Total queries answered.
    uint64_t SessionSolves = 0; ///< Served by persistent engine state.
    uint64_t FreshSolves = 0;   ///< Fell back to one-shot Engine::run.
    uint64_t DedupHits = 0;     ///< solveAll duplicates copied, not solved.
    uint64_t SummariesReused = 0;     ///< Sum over queries.
    uint64_t SummariesRecomputed = 0; ///< Sum over queries.
  };
  const SessionStats &stats() const { return Stats; }

private:
  friend class Solver;
  SolverSession() = default;

  /// The dispatch half of `solve`, for callers that already retargeted.
  SolveResult solveCompiled(const CompiledQuery &Q);
  SolveResult failResult() const;
  /// The engine's persistent state, opened on first use; null for
  /// fresh-fallback engines.
  EngineSession *engineSession();

  SolveStatus Status = SolveStatus::Ok;
  std::string Error;
  SolverOptions Opts;
  const Engine *Eng = nullptr;
  /// The session's program (target fields unresolved).
  std::unique_ptr<CompiledQuery> Program;
  /// The engine's persistent state (see `engineSession`).
  std::unique_ptr<EngineSession> Session;
  bool OpenAttempted = false;
  /// Per-request governor (not owned); each solve runs under it.
  support::ResourceGovernor *Gov = nullptr;
  SessionStats Stats;
  /// Backs `lastSampledFootprint`; updated at the end of every query,
  /// cache clear, and `gauge` call.
  mutable std::atomic<size_t> FootGauge{0};
};

//===----------------------------------------------------------------------===//
// Solver
//===----------------------------------------------------------------------===//

/// The facade. Stateless; all the work is compile (parse + resolve
/// target) then dispatch through the registry.
class Solver {
public:
  /// Compiles \p Q and dispatches it to the engine `Opts.Engine` names.
  static SolveResult solve(const Query &Q, const SolverOptions &Opts);

  /// Opens \p Program (a query whose target fields are ignored) for
  /// cross-query solving under \p Opts. Never returns null; a failed open
  /// (parse error, unknown engine, kind mismatch) is reported through the
  /// session's `ok()`/`error()` and by every subsequent `solve`.
  static std::unique_ptr<SolverSession> open(const Query &Program,
                                             const SolverOptions &Opts);

  /// The equation system the selected engine would solve for \p Q; empty
  /// (with \p Error set when non-null) on failure or for natively-coded
  /// engines.
  static std::string formulaText(const Query &Q, const SolverOptions &Opts,
                                 std::string *Error = nullptr);

  /// Result of `compile`: a resolved query, or a status + message.
  struct Compilation {
    std::unique_ptr<CompiledQuery> Query; ///< Null when compilation failed.
    SolveStatus Status = SolveStatus::Ok;
    std::string Error;
  };

  /// Parses/resolves \p Q without running an engine. With
  /// \p RequireTarget false, a missing target label is not an error — the
  /// compiled query's target fields stay zero (used by `formulaText`,
  /// whose output does not depend on the target).
  static Compilation compile(const Query &Q, bool RequireTarget = true);

  /// Registry conveniences (also usable via EngineRegistry directly).
  static const Engine *findEngine(const std::string &Name);
  static std::vector<const Engine *> engines();
  /// "summary|ef|ef-split|..." — for usage strings.
  static std::string engineList(const char *Sep = "|");
  /// Aligned name/kind/description table — for `--list-algos`.
  static std::string engineTable();

private:
  friend class SolverSession;

  /// Builds a compiled query that borrows \p Program's program views and
  /// resolves \p Q's target (label or point) against it — the per-query
  /// half of `compile`, for sessions that compiled the program once.
  static Compilation retarget(const CompiledQuery &Program, const Query &Q);
};

} // namespace api

// The facade types are the public API of the library; export them into the
// top-level namespace.
using api::Query;
using api::SolveResult;
using api::Solver;
using api::SolverOptions;
using api::SolverSession;
using api::SolveStatus;

} // namespace getafix

#endif // GETAFIX_API_SOLVER_H
