//===- Engines.cpp - The built-in engines behind the facade ---------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nine built-in `Engine` implementations, each a thin adapter from
/// a `CompiledQuery` to one of the underlying solvers:
///
///   summary, ef, ef-split, ef-opt — the paper's fixed-point algorithms
///     (Sections 4.1–4.3), solved by the calculus evaluator,
///   summary-scc                   — Section 4.1's summaries split per
///     call-graph SCC (the default sequential engine),
///   moped, bebop                  — the natively-coded Figure-2 baselines,
///   conc                          — Section 5's bounded context-switching
///     fixed-point,
///   lal-reps                      — the eager Lal–Reps sequentialization
///     run as a real engine: transform, solve the sequential program with
///     summary-scc, and map the result back.
///
/// Every engine hands its `sym::SolveConfig` straight to the solver below
/// and returns that solver's `sym::SolveStats` as its result. The
/// fixed-point engines additionally implement `Engine::open`: their
/// session objects wrap `reach::SeqSession` / `conc::ConcSession`, which
/// persist the compiled calculus, BDD manager, and solved summary rounds
/// across queries. The natively-coded baselines and the (target-dependent)
/// Lal–Reps transformation keep the null default, so `SolverSession` falls
/// back to fresh per-query solves for them.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "concurrent/ConcReach.h"
#include "concurrent/LalReps.h"
#include "reach/Baselines.h"
#include "reach/SeqReach.h"
#include "reach/Witness.h"
#include "support/Timer.h"

#include <cassert>
#include <memory>

using namespace getafix;
using namespace getafix::api;

namespace {

/// A witness query's statistics, plus its trace and the trace's rendering
/// when the target is reachable.
SolveResult withWitness(const bp::ProgramCfg &Cfg, reach::WitnessResult W) {
  std::vector<reach::WitnessStep> Steps = std::move(W.Steps);
  SolveResult Out(std::move(W));
  if (Out.Reachable) {
    Out.HasWitness = true;
    Out.Witness = std::move(Steps);
    Out.WitnessText = reach::formatWitness(Cfg, Out.Witness);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Sequential fixed-point engines (Sections 4.1–4.3)
//===----------------------------------------------------------------------===//

/// Session adapter over `reach::SeqSession` (witness queries included):
/// one per `Solver::open` on a sequential fixed-point engine.
class SeqEngineSession : public EngineSession {
public:
  SeqEngineSession(const bp::ProgramCfg &Cfg, reach::SeqAlgorithm Alg,
                   const sym::SolveConfig &Config)
      : Cfg(Cfg), Session(Cfg, Alg, Config) {}

  SolveResult solve(const CompiledQuery &Q) override {
    if (Q.wantWitness())
      return withWitness(Cfg, Session.solveWithWitness(Q.procId(), Q.pc()));
    return Session.solve(Q.procId(), Q.pc());
  }

  bool answersFromState(const CompiledQuery &Q) override {
    return Session.answersFromState(Q.procId(), Q.pc(), Q.wantWitness());
  }

  void setGovernor(support::ResourceGovernor *G) override {
    Session.setGovernor(G);
  }

  void clearComputedCache() override { Session.clearComputedCache(); }

  sym::SessionState::Gauge gauge() const override { return Session.gauge(); }

private:
  const bp::ProgramCfg &Cfg;
  reach::SeqSession Session;
};

class SeqFixpointEngine : public Engine {
public:
  SeqFixpointEngine(const char *Name, const char *Desc,
                    reach::SeqAlgorithm Alg)
      : Name(Name), Desc(Desc), Alg(Alg) {}

  const char *name() const override { return Name; }
  const char *description() const override { return Desc; }
  bool handlesConcurrent() const override { return false; }
  bool supportsWitness() const override { return true; }

  SolveResult run(const CompiledQuery &Q,
                  const sym::SolveConfig &Config) const override {
    if (Q.wantWitness())
      return withWitness(Q.cfg(), reach::checkReachabilityWithWitness(
                                      Q.cfg(), Q.procId(), Q.pc(), Config));
    return reach::checkReachability(Q.cfg(), Q.procId(), Q.pc(), Alg, Config);
  }

  std::unique_ptr<EngineSession>
  open(const CompiledQuery &Program,
       const sym::SolveConfig &Config) const override {
    return std::make_unique<SeqEngineSession>(Program.cfg(), Alg, Config);
  }

  std::string formulaText(const CompiledQuery &Q) const override {
    return reach::formulaText(Q.cfg(), Alg);
  }

private:
  const char *Name;
  const char *Desc;
  reach::SeqAlgorithm Alg;
};

//===----------------------------------------------------------------------===//
// Baseline engines (Figure 2's comparison columns)
//===----------------------------------------------------------------------===//

class MopedEngine : public Engine {
public:
  const char *name() const override { return "moped"; }
  const char *description() const override {
    return "natively coded symbolic post* saturation (Moped stand-in)";
  }
  bool handlesConcurrent() const override { return false; }

  SolveResult run(const CompiledQuery &Q,
                  const sym::SolveConfig &Config) const override {
    return reach::mopedPostStar(Q.cfg(), Q.procId(), Q.pc(), Config);
  }
};

class BebopEngine : public Engine {
public:
  const char *name() const override { return "bebop"; }
  const char *description() const override {
    return "explicit path-edge/summary-edge tabulation (Bebop stand-in)";
  }
  bool handlesConcurrent() const override { return false; }

  SolveResult run(const CompiledQuery &Q,
                  const sym::SolveConfig &Config) const override {
    // Enumerative: no BDD knobs apply, but the deadline/cancel limits do.
    return reach::bebopTabulate(Q.cfg(), Q.procId(), Q.pc(), Config);
  }
};

//===----------------------------------------------------------------------===//
// Concurrent engines (Section 5)
//===----------------------------------------------------------------------===//

/// Session adapter over `conc::ConcSession`.
class ConcEngineSession : public EngineSession {
public:
  ConcEngineSession(const CompiledQuery &Program,
                    const sym::SolveConfig &Config)
      : Session(Program.concurrent(), Program.threadCfgs(), Config) {}

  SolveResult solve(const CompiledQuery &Q) override {
    return Session.solve(Q.thread(), Q.procId(), Q.pc());
  }

  bool answersFromState(const CompiledQuery &Q) override {
    return Session.answersFromState(Q.thread(), Q.procId(), Q.pc());
  }

  void setGovernor(support::ResourceGovernor *G) override {
    Session.setGovernor(G);
  }

  void clearComputedCache() override { Session.clearComputedCache(); }

  sym::SessionState::Gauge gauge() const override { return Session.gauge(); }

private:
  conc::ConcSession Session;
};

class ConcFixpointEngine : public Engine {
public:
  const char *name() const override { return "conc"; }
  const char *description() const override {
    return "bounded context-switching fixed-point (Section 5, k+1 global "
           "copies)";
  }
  bool handlesConcurrent() const override { return true; }

  SolveResult run(const CompiledQuery &Q,
                  const sym::SolveConfig &Config) const override {
    return conc::checkConcReachability(Q.concurrent(), Q.threadCfgs(),
                                       Q.thread(), Q.procId(), Q.pc(),
                                       Config);
  }

  std::unique_ptr<EngineSession>
  open(const CompiledQuery &Program,
       const sym::SolveConfig &Config) const override {
    return std::make_unique<ConcEngineSession>(Program, Config);
  }
};

class LalRepsEngine : public Engine {
public:
  const char *name() const override { return "lal-reps"; }
  const char *description() const override {
    return "eager Lal-Reps sequentialization, solved with summary-scc "
           "(O(k) global copies)";
  }
  bool handlesConcurrent() const override { return true; }

  // No session mode: the sequentialization rewrites the program around the
  // *target* label, so there is no target-independent solver state to
  // persist — `SolverSession` falls back to fresh per-query solves.

  SolveResult run(const CompiledQuery &Q,
                  const sym::SolveConfig &Config) const override {
    SolveResult Out;
    // The sequentialization rewrites the program around a *label*; a point
    // query works when some label names its point.
    std::string Label = Q.label();
    if (Label.empty()) {
      const bp::ProcCfg &Proc = Q.threadCfgs()[Q.thread()].Procs[Q.procId()];
      for (const auto &[Name, Pc] : Proc.LabelPcs)
        if (Pc == Q.pc()) {
          Label = Name;
          break;
        }
      if (Label.empty()) {
        Out.Status = SolveStatus::BadQuery;
        Out.Error = "lal-reps needs a labelled target (the "
                    "sequentialization rewrites the program around the "
                    "label), but the queried point carries no label";
        return Out;
      }
    }

    Timer T;
    unsigned K = conc::contextBound(Config, Q.concurrent().numThreads());
    DiagnosticEngine Diags;
    std::unique_ptr<bp::Program> Seq =
        conc::lalRepsSequentialize(Q.concurrent(), Label, K, Diags);
    if (!Seq) {
      Out.Status = SolveStatus::BadQuery;
      Out.Error = "lal-reps sequentialization failed:\n" + Diags.str();
      return Out;
    }
    bp::ProgramCfg SeqCfg = bp::buildCfg(*Seq);
    unsigned GoalProc = 0, GoalPc = 0;
    bool HasGoal =
        SeqCfg.findLabelPc(conc::lalRepsGoalLabel(), GoalProc, GoalPc);
    assert(HasGoal && "the sequentialization plants the goal label");
    (void)HasGoal;

    // Under the reduction's global order (cursor and schedule bits first,
    // each shared variable's copies together) summary-scc is the faster
    // compilation of the transformed program (docs/EVALUATION.md, "The
    // Lal–Reps reduction's global order"). The sequentialization above
    // never consults the governor; the limits govern this solve.
    Out = reach::checkReachability(SeqCfg, GoalProc, GoalPc,
                                   reach::SeqAlgorithm::SummaryScc, Config);
    Out.TransformedGlobals = Seq->numGlobals();
    Out.Seconds = T.seconds(); // Transform + solve: the cost being compared.
    return Out;
  }
};

} // namespace

void api::detail::registerBuiltinEngines(EngineRegistry &R) {
  R.add(std::make_unique<SeqFixpointEngine>(
      "summary", "summaries from all entries (Section 4.1)",
      reach::SeqAlgorithm::SummarySimple));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef", "entry-forward summaries, unsplit return clause (Section 4.2)",
      reach::SeqAlgorithm::EntryForward));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef-split", "entry-forward with the split return clause (Appendix)",
      reach::SeqAlgorithm::EntryForwardSplit));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef-opt", "frontier-restricted entry-forward (Section 4.3)",
      reach::SeqAlgorithm::EntryForwardOpt));
  R.add(std::make_unique<SeqFixpointEngine>(
      "summary-scc",
      "Section 4.1's summaries, one relation pair per call-graph SCC",
      reach::SeqAlgorithm::SummaryScc));
  R.add(std::make_unique<MopedEngine>());
  R.add(std::make_unique<BebopEngine>());
  R.add(std::make_unique<ConcFixpointEngine>());
  R.add(std::make_unique<LalRepsEngine>());
}
