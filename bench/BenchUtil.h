//===- BenchUtil.h - Shared helpers for the table benchmarks ----*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the Figure-2/Figure-3 reproduction binaries: parsing
/// workloads, running engines by registry name through the `Solver`
/// facade, and printing aligned table rows. (The micro-benchmarks use
/// google-benchmark; the paper-table binaries print rows that mirror the
/// paper's layout instead, which is the deliverable.)
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_BENCH_BENCHUTIL_H
#define GETAFIX_BENCH_BENCHUTIL_H

#include "api/Solver.h"
#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "concurrent/ConcReach.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace getafix {
namespace bench {

struct ParsedProgram {
  std::unique_ptr<bp::Program> Prog;
  bp::ProgramCfg Cfg;
};

inline ParsedProgram parseOrDie(const std::string &Src) {
  DiagnosticEngine Diags;
  ParsedProgram P;
  P.Prog = bp::parseProgram(Src, Diags);
  if (!P.Prog) {
    std::fprintf(stderr, "benchmark workload failed to parse:\n%s",
                 Diags.str().c_str());
    std::exit(1);
  }
  P.Cfg = bp::buildCfg(*P.Prog);
  return P;
}

struct ParsedConcProgram {
  std::unique_ptr<bp::ConcurrentProgram> Conc;
  std::vector<bp::ProgramCfg> Cfgs;
};

inline ParsedConcProgram parseConcOrDie(const std::string &Src) {
  DiagnosticEngine Diags;
  ParsedConcProgram P;
  P.Conc = bp::parseConcurrentProgram(Src, Diags);
  if (!P.Conc) {
    std::fprintf(stderr, "benchmark workload failed to parse:\n%s",
                 Diags.str().c_str());
    std::exit(1);
  }
  P.Cfgs = conc::buildThreadCfgs(*P.Conc);
  return P;
}

/// Results of one engine on one workload (a view of SolveResult that the
/// table printers index).
struct EngineRow {
  bool Reachable = false;
  double Seconds = 0.0;
  size_t Nodes = 0;
  uint64_t Iterations = 0;
  double ReachStates = 0.0;
  size_t TransformedGlobals = 0;
  uint64_t NodesCreated = 0; ///< Total BDD nodes allocated (op-count proxy).
  uint64_t DeltaRounds = 0;  ///< Semi-naive rounds after the first.
  size_t PeakLiveNodes = 0;  ///< Peak BDD nodes in the manager.
  double CacheHitRate = 0.0; ///< Computed-cache hit rate of the solve.
  /// Session mode: rounds served from persisted state vs newly evaluated.
  uint64_t SummariesReused = 0;
  uint64_t SummariesRecomputed = 0;
  /// Per-procedure summary split: condensation width of the compiled
  /// system, number of summary relations, and SCC tasks the DAG
  /// scheduler actually ran on the worker pool.
  unsigned CondensationWidth = 0;
  unsigned SummaryRelations = 0;
  uint64_t SccsSolvedParallel = 0;
};

inline EngineRow rowOrDie(const SolveResult &R, const char *Engine) {
  if (!R.ok()) {
    std::fprintf(stderr, "engine '%s' failed: %s\n", Engine,
                 R.Error.c_str());
    std::exit(1);
  }
  EngineRow Row;
  Row.Reachable = R.Reachable;
  Row.Seconds = R.Seconds;
  Row.Nodes = R.SummaryNodes;
  Row.Iterations = R.Iterations;
  Row.ReachStates = R.ReachStates;
  Row.TransformedGlobals = R.TransformedGlobals;
  Row.NodesCreated = R.Bdd.NodesCreated;
  Row.DeltaRounds = R.DeltaRounds;
  Row.PeakLiveNodes = R.Bdd.PeakNodes;
  Row.CacheHitRate = R.bddCacheHitRate();
  Row.SummariesReused = R.SummariesReused;
  Row.SummariesRecomputed = R.SummariesRecomputed;
  Row.CondensationWidth = R.CondensationWidth;
  Row.SummaryRelations = R.SummaryRelations;
  Row.SccsSolvedParallel = R.SccsSolvedParallel;
  return Row;
}

/// Runs \p Engine on a sequential label query with fully specified options
/// (the ablation drivers vary the strategy and early stop this way).
inline EngineRow runEngine(const bp::ProgramCfg &Cfg,
                           const std::string &Label, const char *Engine,
                           SolverOptions Opts) {
  Opts.Engine = Engine;
  return rowOrDie(Solver::solve(Query::fromCfg(Cfg).target(Label), Opts),
                  Engine);
}

/// Runs the engine \p Engine (a registry name) on a sequential label query.
inline EngineRow runEngine(const bp::ProgramCfg &Cfg,
                           const std::string &Label, const char *Engine,
                           bool EarlyStop = true,
                           fpc::EvalStrategy Strategy =
                               fpc::EvalStrategy::SemiNaive) {
  SolverOptions Opts;
  Opts.EarlyStop = EarlyStop;
  Opts.Strategy = Strategy;
  return runEngine(Cfg, Label, Engine, std::move(Opts));
}

/// Runs \p Engine on a concurrent label query under \p Opts (which carries
/// the context bound / scheduling policy).
inline EngineRow runConcEngine(const ParsedConcProgram &P,
                               const std::string &Label, const char *Engine,
                               SolverOptions Opts) {
  Opts.Engine = Engine;
  return rowOrDie(
      Solver::solve(Query::fromConcurrent(*P.Conc, &P.Cfgs).target(Label),
                    Opts),
      Engine);
}

/// Flat-row JSON recorder for the `BENCH_*.json` files the CI uploads as
/// artifacts and diffs for verdict drift. Rows are objects of
/// string/number/bool fields, emitted as `{"rows": [...]}`. Keys and
/// string values here are benchmark identifiers (no escaping needed
/// beyond quotes/backslashes).
class JsonReport {
public:
  class Row {
  public:
    Row &field(const char *Key, const std::string &Value) {
      add(Key, '"' + escape(Value) + '"');
      return *this;
    }
    Row &field(const char *Key, const char *Value) {
      return field(Key, std::string(Value));
    }
    Row &field(const char *Key, double Value) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6f", Value);
      add(Key, Buf);
      return *this;
    }
    Row &field(const char *Key, uint64_t Value) {
      add(Key, std::to_string(Value));
      return *this;
    }
    Row &field(const char *Key, unsigned Value) {
      return field(Key, uint64_t(Value));
    }
    Row &field(const char *Key, bool Value) {
      add(Key, Value ? "true" : "false");
      return *this;
    }

  private:
    friend class JsonReport;
    static std::string escape(const std::string &S) {
      std::string Out;
      for (char C : S) {
        if (C == '"' || C == '\\')
          Out += '\\';
        Out += C;
      }
      return Out;
    }
    void add(const char *Key, const std::string &Rendered) {
      if (!Buf.empty())
        Buf += ", ";
      Buf += '"';
      Buf += escape(Key);
      Buf += "\": ";
      Buf += Rendered;
    }
    std::string Buf;
  };

  void add(const Row &R) { Rows.push_back(R.Buf); }

  /// Writes the report; exits loudly on I/O failure so CI cannot mistake
  /// a missing artifact for an empty one.
  void write(const std::string &Path) const {
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
      std::exit(1);
    }
    std::fprintf(Out, "{\"rows\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(Out, "  {%s}%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(Out, "]}\n");
    std::fclose(Out);
  }

private:
  std::vector<std::string> Rows;
};

/// Counts non-blank source lines (the paper's LOC column).
inline unsigned countLoc(const std::string &Src) {
  unsigned Loc = 0;
  bool Blank = true;
  for (char C : Src) {
    if (C == '\n') {
      Loc += !Blank;
      Blank = true;
    } else if (!isspace(static_cast<unsigned char>(C))) {
      Blank = false;
    }
  }
  return Loc + !Blank;
}

} // namespace bench
} // namespace getafix

#endif // GETAFIX_BENCH_BENCHUTIL_H
