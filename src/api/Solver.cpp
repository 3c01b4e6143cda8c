//===- Solver.cpp - Facade dispatch and query compilation -----------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "bp/Parser.h"
#include "concurrent/ConcReach.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <utility>

using namespace getafix;
using namespace getafix::api;

//===----------------------------------------------------------------------===//
// EngineRegistry
//===----------------------------------------------------------------------===//

EngineRegistry &EngineRegistry::instance() {
  static EngineRegistry Registry;
  // Deliberately outside the registry's own initializer: builtin
  // registration calls back into `Registry.add`.
  static bool BuiltinsRegistered =
      (detail::registerBuiltinEngines(Registry), true);
  (void)BuiltinsRegistered;
  return Registry;
}

void EngineRegistry::add(std::unique_ptr<Engine> E) {
  assert(!lookup(E->name()) && "engine registered twice");
  Engines.push_back(std::move(E));
}

const Engine *EngineRegistry::lookup(const std::string &Name) const {
  for (const std::unique_ptr<Engine> &E : Engines)
    if (Name == E->name())
      return E.get();
  return nullptr;
}

std::vector<const Engine *> EngineRegistry::engines() const {
  std::vector<const Engine *> Out;
  Out.reserve(Engines.size());
  for (const std::unique_ptr<Engine> &E : Engines)
    Out.push_back(E.get());
  return Out;
}

//===----------------------------------------------------------------------===//
// Query compilation
//===----------------------------------------------------------------------===//

namespace {

/// The concurrent grammar starts with `shared`; skip leading whitespace and
/// look for the keyword (the same sniff the CLI used to hand-roll).
bool isConcurrentSource(const std::string &Text) {
  size_t Pos = Text.find_first_not_of(" \t\r\n");
  if (Pos == std::string::npos || Text.compare(Pos, 6, "shared") != 0)
    return false;
  if (Pos + 6 == Text.size())
    return true;
  // Keyword boundary: reject identifiers like `shared_init`.
  char Next = Text[Pos + 6];
  return !isalnum(static_cast<unsigned char>(Next)) && Next != '_';
}

Solver::Compilation fail(SolveStatus Status, std::string Error) {
  Solver::Compilation C;
  C.Status = Status;
  C.Error = std::move(Error);
  return C;
}

} // namespace

Solver::Compilation Solver::compile(const Query &Q, bool RequireTarget) {
  Compilation C;
  C.Query = std::make_unique<CompiledQuery>();
  CompiledQuery &CQ = *C.Query;
  CQ.WantWitness = Q.WantWitness;

  if (Q.Cfg) {
    CQ.Cfg = Q.Cfg;
  } else if (Q.Conc) {
    CQ.Conc = Q.Conc;
    if (Q.ThreadCfgs) {
      CQ.ThreadCfgs = Q.ThreadCfgs;
    } else {
      CQ.OwnedThreadCfgs = conc::buildThreadCfgs(*Q.Conc);
      CQ.ThreadCfgs = &CQ.OwnedThreadCfgs;
    }
  } else if (!Q.Source.empty()) {
    DiagnosticEngine Diags;
    if (isConcurrentSource(Q.Source)) {
      CQ.OwnedConc = bp::parseConcurrentProgram(Q.Source, Diags);
      if (!CQ.OwnedConc)
        return fail(SolveStatus::ParseError, Diags.str());
      CQ.Conc = CQ.OwnedConc.get();
      CQ.OwnedThreadCfgs = conc::buildThreadCfgs(*CQ.Conc);
      CQ.ThreadCfgs = &CQ.OwnedThreadCfgs;
    } else {
      CQ.OwnedProg = bp::parseProgram(Q.Source, Diags);
      if (!CQ.OwnedProg)
        return fail(SolveStatus::ParseError, Diags.str());
      CQ.OwnedCfg =
          std::make_unique<bp::ProgramCfg>(bp::buildCfg(*CQ.OwnedProg));
      CQ.Cfg = CQ.OwnedCfg.get();
    }
  } else {
    return fail(SolveStatus::BadQuery,
                "query carries no program (source, Cfg, or Conc)");
  }

  // Resolve the target to a concrete (thread,) proc, pc.
  if (CQ.isConcurrent()) {
    const std::vector<bp::ProgramCfg> &Cfgs = CQ.threadCfgs();
    if (Q.UsePoint) {
      if (Q.Thread >= Cfgs.size() ||
          Q.ProcId >= Cfgs[Q.Thread].Procs.size() ||
          Q.Pc >= Cfgs[Q.Thread].Procs[Q.ProcId].NumPcs)
        return fail(SolveStatus::TargetNotFound,
                    "target point (thread " + std::to_string(Q.Thread) +
                        ", " + std::to_string(Q.ProcId) + ", " +
                        std::to_string(Q.Pc) + ") out of range");
      CQ.Thread = Q.Thread;
      CQ.ProcId = Q.ProcId;
      CQ.Pc = Q.Pc;
      return C;
    }
    for (unsigned Thread = 0; Thread < Cfgs.size(); ++Thread)
      if (Cfgs[Thread].findLabelPc(Q.Label, CQ.ProcId, CQ.Pc)) {
        CQ.Thread = Thread;
        CQ.Label = Q.Label;
        return C;
      }
    if (!RequireTarget)
      return C;
    return fail(SolveStatus::TargetNotFound,
                "label '" + Q.Label + "' not found");
  }

  if (Q.UsePoint) {
    if (Q.ProcId >= CQ.cfg().Procs.size() ||
        Q.Pc >= CQ.cfg().Procs[Q.ProcId].NumPcs)
      return fail(SolveStatus::TargetNotFound,
                  "target point (" + std::to_string(Q.ProcId) + ", " +
                      std::to_string(Q.Pc) + ") out of range");
    CQ.ProcId = Q.ProcId;
    CQ.Pc = Q.Pc;
    return C;
  }
  if (!CQ.cfg().findLabelPc(Q.Label, CQ.ProcId, CQ.Pc)) {
    if (!RequireTarget)
      return C;
    return fail(SolveStatus::TargetNotFound,
                "label '" + Q.Label + "' not found");
  }
  CQ.Label = Q.Label;
  return C;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

namespace {

/// Resolves `Opts.Engine` (empty = per-kind default) against the registry
/// and the query kind, and checks the context bound of a concurrent
/// query. Null with \p Out filled on failure.
const Engine *selectEngine(const CompiledQuery &Q, const SolverOptions &Opts,
                           SolveResult &Out) {
  std::string Name = Opts.Engine;
  if (Name.empty())
    Name = Q.isConcurrent() ? "conc" : "summary-scc";
  const Engine *E = Solver::findEngine(Name);
  if (!E) {
    Out.Status = SolveStatus::UnknownEngine;
    Out.Error = "unknown engine '" + Name + "' (have: " +
                Solver::engineList(", ") + ")";
    return nullptr;
  }
  if (E->handlesConcurrent() != Q.isConcurrent()) {
    Out.Status = SolveStatus::BadQuery;
    Out.Error = std::string("engine '") + E->name() + "' answers " +
                (E->handlesConcurrent() ? "concurrent" : "sequential") +
                " queries, but the program is " +
                (Q.isConcurrent() ? "concurrent" : "sequential");
    return nullptr;
  }
  // The concurrent encodings allocate k + 1 context copies: a bound whose
  // k + 1 wraps, or whose `Rounds * threads - 1` overflows, would size
  // them at zero.
  if (Q.isConcurrent()) {
    uint64_t Threads = std::max<uint64_t>(Q.concurrent().numThreads(), 1);
    uint64_t K = Opts.Rounds != 0 ? uint64_t(Opts.Rounds) * Threads - 1
                                  : uint64_t(Opts.ContextBound);
    if (K >= UINT_MAX) {
      Out.Status = SolveStatus::BadQuery;
      Out.Error = "context bound out of range";
      return nullptr;
    }
  }
  return E;
}

/// Arms the governor one solve attempt runs under: \p Installed (a
/// session's per-request governor) when set; otherwise, when \p Opts sets
/// any limit, the caller's `Opts.Governor` or \p Local armed with those
/// limits. Governors latch, so every attempt arms afresh. Null when the
/// attempt is ungoverned.
support::ResourceGovernor *armGovernor(const SolverOptions &Opts,
                                       support::ResourceGovernor *Installed,
                                       support::ResourceGovernor &Local) {
  if (Installed || !Opts.governed())
    return Installed;
  support::ResourceGovernor *G = Opts.Governor ? Opts.Governor : &Local;
  if (Opts.TimeoutMs != 0)
    G->setDeadlineIn(static_cast<int64_t>(Opts.TimeoutMs));
  if (Opts.NodeBudget != 0)
    G->setNodeBudget(Opts.NodeBudget);
  if (Opts.CancelFlag)
    G->setCancelFlag(Opts.CancelFlag);
  return G;
}

/// Maps a tripped limit onto the result's status and error text — the one
/// place where any engine's limit stop becomes a status.
void applyLimit(SolveResult &R) {
  switch (R.Limit) {
  case support::ResourceLimit::None:
    return;
  case support::ResourceLimit::Deadline:
    R.Error = "solve stopped: wall-clock deadline exceeded";
    break;
  case support::ResourceLimit::NodeBudget:
    R.Error = "solve stopped: BDD node budget exhausted";
    break;
  case support::ResourceLimit::Cancelled:
    R.Error = "solve stopped: cancelled";
    break;
  }
  R.Status = statusForLimit(R.Limit);
}

} // namespace

SolveResult Solver::solve(const Query &Q, const SolverOptions &Opts) {
  Compilation C = compile(Q);
  SolveResult R;
  if (!C.Query) {
    R.Status = C.Status;
    R.Error = std::move(C.Error);
    return R;
  }
  const Engine *E = selectEngine(*C.Query, Opts, R);
  if (!E)
    return R;
  support::ResourceGovernor Local;
  sym::SolveConfig Config = Opts;
  Config.Governor = armGovernor(Opts, nullptr, Local);
  R = E->run(*C.Query, Config);
  applyLimit(R);
  return R;
}

//===----------------------------------------------------------------------===//
// SolverSession
//===----------------------------------------------------------------------===//

Solver::Compilation Solver::retarget(const CompiledQuery &Program,
                                     const Query &Q) {
  // Share compile()'s resolution logic by synthesizing a query that
  // borrows the session's prebuilt program views; only the target and
  // witness fields of \p Q matter.
  Query Borrowed = Q;
  Borrowed.Source.clear();
  Borrowed.Cfg = nullptr;
  Borrowed.Conc = nullptr;
  Borrowed.ThreadCfgs = nullptr;
  if (Program.isConcurrent()) {
    Borrowed.Conc = &Program.concurrent();
    Borrowed.ThreadCfgs = &Program.threadCfgs();
  } else {
    Borrowed.Cfg = &Program.cfg();
  }
  return compile(Borrowed);
}

std::unique_ptr<SolverSession> Solver::open(const Query &Program,
                                            const SolverOptions &Opts) {
  std::unique_ptr<SolverSession> S(new SolverSession());
  S->Opts = Opts;
  // The program may lack the (per-query) target; that is not an error.
  Compilation C = compile(Program, /*RequireTarget=*/false);
  if (!C.Query) {
    S->Status = C.Status;
    S->Error = std::move(C.Error);
    return S;
  }
  SolveResult R;
  const Engine *E = selectEngine(*C.Query, Opts, R);
  if (!E) {
    S->Status = R.Status;
    S->Error = std::move(R.Error);
    return S;
  }
  S->Program = std::move(C.Query);
  S->Eng = E;
  return S;
}

SolverSession::~SolverSession() = default;

SolveResult SolverSession::failResult() const {
  SolveResult R;
  R.Status = Status;
  R.Error = Error;
  return R;
}

SolveResult SolverSession::solve(const Query &Q) {
  ++Stats.Queries;
  if (!ok())
    return failResult();
  Solver::Compilation C = Solver::retarget(*Program, Q);
  if (!C.Query) {
    SolveResult R;
    R.Status = C.Status;
    R.Error = std::move(C.Error);
    return R;
  }
  return solveCompiled(*C.Query);
}

EngineSession *SolverSession::engineSession() {
  if (!OpenAttempted) {
    OpenAttempted = true;
    Session = Eng->open(*Program, Opts);
  }
  return Session.get();
}

SolveResult SolverSession::solveCompiled(const CompiledQuery &Q) {
  // A per-request governor (setResourceGovernor) wins; otherwise
  // options-level limits arm a fresh one-shot governor per solve
  // (governors latch, so the one fixed at open cannot be reused across
  // queries).
  support::ResourceGovernor Local;
  sym::SolveConfig Config = Opts;
  Config.Governor = armGovernor(Opts, Gov, Local);

  SolveResult R;
  if (EngineSession *ES = engineSession()) {
    ++Stats.SessionSolves;
    ES->setGovernor(Config.Governor);
    R = ES->solve(Q);
    ES->setGovernor(nullptr); // `Local` dies with this frame.
  } else {
    ++Stats.FreshSolves;
    R = Eng->run(Q, Config);
  }
  applyLimit(R);
  Stats.SummariesReused += R.SummariesReused;
  Stats.SummariesRecomputed += R.SummariesRecomputed;
  // Keep the lock-free footprint gauge current: a pool budgeting many
  // sessions reads it for leased-out sessions it cannot safely sample.
  if (Session)
    FootGauge.store(Session->gauge().Bytes, std::memory_order_relaxed);
  return R;
}

std::vector<SolveResult>
SolverSession::solveAll(const std::vector<Query> &Qs) {
  std::vector<SolveResult> Results(Qs.size());

  // Duplicate targets are pure repeats (results are a function of the
  // resolved target and the fixed session options), so each distinct
  // target is solved once and copied to its twins.
  auto keyOf = [](const Query &Q) {
    std::string Key = Q.WantWitness ? "w|" : "-|";
    if (Q.UsePoint)
      Key += "p|" + std::to_string(Q.Thread) + "|" +
             std::to_string(Q.ProcId) + "|" + std::to_string(Q.Pc);
    else
      Key += "l|" + Q.Label;
    return Key;
  };
  std::map<std::string, size_t> FirstOf;
  std::vector<size_t> Twin(Qs.size(), SIZE_MAX);
  std::vector<size_t> Distinct;
  for (size_t I = 0; I < Qs.size(); ++I) {
    auto [It, Inserted] = FirstOf.emplace(keyOf(Qs[I]), I);
    if (Inserted)
      Distinct.push_back(I);
    else
      Twin[I] = It->second;
  }

  // Compile each distinct target once up front; failed compilations
  // report their error in place and take no further part.
  std::vector<std::unique_ptr<CompiledQuery>> Compiled(Qs.size());
  std::vector<bool> Done(Qs.size(), false);
  size_t Remaining = 0;
  for (size_t I : Distinct) {
    ++Stats.Queries;
    if (!ok()) {
      Results[I] = failResult();
      Done[I] = true;
      continue;
    }
    Solver::Compilation C = Solver::retarget(*Program, Qs[I]);
    if (!C.Query) {
      Results[I].Status = C.Status;
      Results[I].Error = std::move(C.Error);
      Done[I] = true;
      continue;
    }
    Compiled[I] = std::move(C.Query);
    ++Remaining;
  }

  // Two passes over the distinct targets: queries the engine answers
  // entirely from already-solved state go first (cheap replays), then the
  // remaining ones in input order — each of those extends the state, so
  // the scan re-runs until none is answerable without new rounds. Order
  // never changes any result (state only accumulates rounds of the one
  // deterministic sequence); it only front-loads the free answers.
  auto solveOne = [&](size_t I) {
    Results[I] = solveCompiled(*Compiled[I]);
    Done[I] = true;
    --Remaining;
  };
  EngineSession *ES = ok() ? engineSession() : nullptr;
  while (Remaining != 0) {
    bool Progress = false;
    if (ES)
      for (size_t I : Distinct) {
        if (Done[I])
          continue;
        if (ES->answersFromState(*Compiled[I])) {
          solveOne(I);
          Progress = true;
        }
      }
    if (Remaining == 0)
      break;
    if (!Progress || !ES) {
      // Nothing is answerable from state: advance with the first pending
      // query (its solve extends the state), then rescan.
      for (size_t I : Distinct)
        if (!Done[I]) {
          solveOne(I);
          break;
        }
    }
  }

  for (size_t I = 0; I < Qs.size(); ++I)
    if (Twin[I] != SIZE_MAX) {
      ++Stats.Queries;
      ++Stats.DedupHits;
      Results[I] = Results[Twin[I]];
    }
  return Results;
}

void SolverSession::setResourceGovernor(support::ResourceGovernor *G) {
  Gov = G;
}

void SolverSession::clearComputedCache() {
  if (Session) {
    Session->clearComputedCache();
    FootGauge.store(Session->gauge().Bytes, std::memory_order_relaxed);
  }
}

sym::SessionState::Gauge SolverSession::gauge() const {
  sym::SessionState::Gauge G = Session ? Session->gauge()
                                       : sym::SessionState::Gauge();
  FootGauge.store(G.Bytes, std::memory_order_relaxed);
  return G;
}

std::string Solver::formulaText(const Query &Q, const SolverOptions &Opts,
                                std::string *Error) {
  // The equation system does not depend on the target, so a missing label
  // must not block printing it.
  Compilation C = compile(Q, /*RequireTarget=*/false);
  if (!C.Query) {
    if (Error)
      *Error = C.Error;
    return "";
  }
  SolveResult R;
  const Engine *E = selectEngine(*C.Query, Opts, R);
  if (!E) {
    if (Error)
      *Error = R.Error;
    return "";
  }
  std::string Text = E->formulaText(*C.Query);
  if (Text.empty() && Error)
    *Error = std::string("engine '") + E->name() +
             "' does not expose its equation system";
  return Text;
}

const Engine *Solver::findEngine(const std::string &Name) {
  return EngineRegistry::instance().lookup(Name);
}

std::vector<const Engine *> Solver::engines() {
  return EngineRegistry::instance().engines();
}

std::string Solver::engineList(const char *Sep) {
  std::string Out;
  for (const Engine *E : engines()) {
    if (!Out.empty())
      Out += Sep;
    Out += E->name();
  }
  return Out;
}

std::string Solver::engineTable() {
  size_t Width = 0;
  for (const Engine *E : engines())
    Width = std::max(Width, std::string(E->name()).size());
  std::string Out;
  for (const Engine *E : engines()) {
    std::string Name = E->name();
    Out += "  " + Name + std::string(Width - Name.size() + 2, ' ') +
           (E->handlesConcurrent() ? "concurrent  " : "sequential  ") +
           E->description() + "\n";
  }
  return Out;
}
