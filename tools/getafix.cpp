//===- getafix.cpp - The Getafix command-line checker ---------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tool of Figure 1: reads a (possibly concurrent) Boolean program and
/// answers a label-reachability query YES/NO. All parsing, dispatch, and
/// engine selection goes through the `getafix::Solver` facade; the engine
/// list in `--algo` and `--list-algos` is generated from the registry.
///
///   getafix [options] <program.bp>
///     --label <L>        target label (default ERR)
///     --targets a,b,c    answer several labels through one SolverSession
///                        (cross-query incremental mode: the compiled
///                        calculus and solved summary rounds are reused
///                        across the queries; one "LABEL: VERDICT" line
///                        per target)
///     --algo <name>      engine to run (see --list-algos; default:
///                        summary-scc for sequential programs, conc for
///                        concurrent)
///     --list-algos       print the registered engines and exit
///     --context-bound k  concurrent programs: max context switches
///     --rounds r         concurrent: round-robin with r rounds (implies
///                        --round-robin; overrides --context-bound)
///     --round-robin      concurrent: restrict schedules to round-robin
///     --threads n        worker threads for the evaluator's parallel SCC
///                        scheduling (default 1; results bit-identical at
///                        any setting; only summary-scc, the default
///                        sequential engine, has independent SCCs to run
///                        in parallel, with --label and --targets alike)
///     --timeout-ms n     wall-clock deadline per solve in milliseconds
///                        (0 = none); a hit deadline prints
///                        "TIMEOUT (deadline)" and exits 4
///     --node-budget n    cap on BDD nodes allocated per solve (0 =
///                        unlimited); exhaustion prints
///                        "TIMEOUT (node budget)" and exits 5 (a solve
///                        cancelled through the API exits 6)
///     --witness          print a counterexample trace when the target is
///                        reachable (engines that support extraction)
///     --print-formula    dump the fixed-point equation system and exit
///     --stats            print solver statistics as a JSON object (cache
///                        hit-rate split per BDD operation, GC/peak-node
///                        counters, per-relation iteration/delta counts);
///                        with --targets, one object per query plus the
///                        session's cumulative reuse counters
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "support/Strings.h"

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

using namespace getafix;

namespace {

struct CliOptions {
  std::string File;
  std::string Label = "ERR";
  std::vector<std::string> Targets; ///< Non-empty: session (multi) mode.
  /// Solver knobs, parsed in place. An empty `Engine` lets the facade
  /// pick the query-kind default.
  SolverOptions Solver;
  bool Witness = false;
  bool PrintFormula = false;
  bool Stats = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: getafix [--label L | --targets a,b,c] [--algo %s]\n"
               "               [--list-algos] [--context-bound k] "
               "[--rounds r] [--round-robin]\n"
               "               [--threads n] "
               "[--timeout-ms n] [--node-budget n]\n"
               "               [--witness] [--print-formula] [--stats] "
               "<program.bp>\n",
               Solver::engineList("|").c_str());
  return 2;
}

int listAlgos() {
  std::printf("registered engines:\n%s", Solver::engineTable().c_str());
  return 0;
}

/// `--stats` output: one JSON object on stdout. Strings that reach this
/// are engine/relation identifiers (no exotic characters), but escape the
/// usual suspects anyway so the output is always well-formed.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

/// The body of one result's stats object, without the enclosing braces.
/// \p Pad is the indentation of each field (session mode nests the
/// per-query objects one level deeper).
void printStatsBody(const CliOptions &Opts, const SolveResult &R,
                    const char *Pad) {
  const std::string &Engine = Opts.Solver.Engine;
  std::printf("%s\"engine\": \"%s\",\n", Pad,
              Engine.empty() ? "(default)" : jsonEscape(Engine).c_str());
  std::printf("%s\"reachable\": %s,\n", Pad, R.Reachable ? "true" : "false");
  std::printf("%s\"iterations\": %llu,\n", Pad,
              (unsigned long long)R.Iterations);
  std::printf("%s\"delta_rounds\": %llu,\n", Pad,
              (unsigned long long)R.DeltaRounds);
  std::printf("%s\"summaries_reused\": %llu,\n", Pad,
              (unsigned long long)R.SummariesReused);
  std::printf("%s\"summaries_recomputed\": %llu,\n", Pad,
              (unsigned long long)R.SummariesRecomputed);
  std::printf("%s\"threads\": %u,\n", Pad, Opts.Solver.Threads);
  std::printf("%s\"condensation_width\": %u,\n", Pad, R.CondensationWidth);
  std::printf("%s\"summary_relations\": %u,\n", Pad, R.SummaryRelations);
  std::printf("%s\"sccs_solved_parallel\": %llu,\n", Pad,
              (unsigned long long)R.SccsSolvedParallel);
  std::printf("%s\"imported_nodes\": %llu,\n", Pad,
              (unsigned long long)R.ImportedNodes);
  std::printf("%s\"summary_nodes\": %zu,\n", Pad, R.SummaryNodes);
  std::printf("%s\"peak_live_nodes\": %zu,\n", Pad, R.Bdd.PeakNodes);
  std::printf("%s\"bdd_nodes_created\": %llu,\n", Pad,
              (unsigned long long)R.Bdd.NodesCreated);
  std::printf("%s\"bdd_cache_lookups\": %llu,\n", Pad,
              (unsigned long long)R.Bdd.CacheLookups);
  std::printf("%s\"bdd_cache_hits\": %llu,\n", Pad,
              (unsigned long long)R.Bdd.CacheHits);
  std::printf("%s\"bdd_cache_hit_rate\": %.4f,\n", Pad, R.bddCacheHitRate());
  // Per-operation split of the aggregate probe/hit counters, so ablation
  // drivers no longer re-derive them from deltas between runs, and of the
  // nodes created (the `Import` and `Build` rows hold the nodes no cached
  // op creates; all rows sum to `bdd_nodes_created`). Rows with neither
  // are omitted.
  std::printf("%s\"bdd_cache_ops\": {", Pad);
  bool FirstOp = true;
  for (unsigned Row = 0; Row < NumNodeRows; ++Row) {
    const bool Op = Row < NumBddOps;
    const uint64_t Lookups = Op ? R.Bdd.OpLookups[Row] : 0;
    if (Lookups == 0 && R.Bdd.OpNodes[Row] == 0)
      continue;
    std::printf("%s\n%s  \"%s\": {", FirstOp ? "" : ",", Pad,
                nodeRowName(Row));
    if (Op)
      std::printf("\"lookups\": %llu, \"hits\": %llu, ",
                  (unsigned long long)Lookups,
                  (unsigned long long)R.Bdd.OpHits[Row]);
    std::printf("\"nodes\": %llu}", (unsigned long long)R.Bdd.OpNodes[Row]);
    FirstOp = false;
  }
  std::printf("%s%s},\n", FirstOp ? "" : "\n", FirstOp ? "" : Pad);
  std::printf("%s\"gc_runs\": %llu,\n", Pad,
              (unsigned long long)R.Bdd.GcRuns);
  std::printf("%s\"gc_reclaimed\": %llu,\n", Pad,
              (unsigned long long)R.Bdd.GcReclaimed);
  std::printf("%s\"peak_nodes\": %zu,\n", Pad, R.Bdd.PeakNodes);
  if (R.ReachStates != 0.0)
    std::printf("%s\"reach_states\": %.0f,\n", Pad, R.ReachStates);
  if (R.TransformedGlobals)
    std::printf("%s\"transformed_globals\": %zu,\n", Pad,
                R.TransformedGlobals);
  if (R.HasWitness)
    std::printf("%s\"witness_steps\": %zu,\n", Pad, R.Witness.size());
  std::printf("%s\"seconds\": %.6f,\n", Pad, R.Seconds);
  std::printf("%s\"relations\": {", Pad);
  bool First = true;
  for (const auto &[Name, RS] : R.Relations) {
    std::printf("%s\n%s  \"%s\": {\"iterations\": %llu, "
                "\"delta_rounds\": %llu, \"evaluations\": %llu, "
                "\"final_nodes\": %zu}",
                First ? "" : ",", Pad, jsonEscape(Name).c_str(),
                (unsigned long long)RS.Iterations,
                (unsigned long long)RS.DeltaRounds,
                (unsigned long long)RS.Evaluations, RS.FinalNodes);
    First = false;
  }
  std::printf("%s%s}\n", First ? "" : "\n", First ? "" : Pad);
}

void printStatsJson(const CliOptions &Opts, const SolveResult &R) {
  std::printf("{\n");
  printStatsBody(Opts, R, "  ");
  std::printf("}\n");
}

/// Verdict text for a resource-limit terminal status; null otherwise.
const char *limitVerdict(SolveStatus S) {
  switch (S) {
  case SolveStatus::HitDeadline:
    return "TIMEOUT (deadline)";
  case SolveStatus::HitNodeBudget:
    return "TIMEOUT (node budget)";
  case SolveStatus::Cancelled:
    return "CANCELLED";
  default:
    return nullptr;
  }
}

/// Process exit code for a resource-limit terminal status: 4 deadline,
/// 5 node budget, 6 cancelled. 0 otherwise.
int limitExitCode(SolveStatus S) {
  switch (S) {
  case SolveStatus::HitDeadline:
    return 4;
  case SolveStatus::HitNodeBudget:
    return 5;
  case SolveStatus::Cancelled:
    return 6;
  default:
    return 0;
  }
}

/// One "LABEL: VERDICT" line for multi-target mode.
void printVerdictLine(const std::string &Label, const SolveResult &R) {
  const char *Limit = limitVerdict(R.Status);
  std::printf("%s: %s\n", Label.c_str(),
              Limit ? Limit : R.Reachable ? "YES" : "NO");
  if (R.HasWitness)
    std::printf("%s", R.WitnessText.c_str());
}

/// Multi-target mode: one SolverSession over the program, solveAll over
/// the labels, per-target verdict lines, optional per-query + cumulative
/// stats JSON. Exit: 2 on errors, the first limit's code (4/5/6) when a
/// limit stopped a query, else 0.
int runSession(const CliOptions &Opts, const std::string &Source) {
  Query Program = Query::fromSource(Source);
  std::unique_ptr<SolverSession> Session = Solver::open(Program, Opts.Solver);
  if (!Session->ok()) {
    std::fprintf(stderr, "error: %s\n", Session->error().c_str());
    return 2;
  }

  std::vector<Query> Queries;
  Queries.reserve(Opts.Targets.size());
  for (const std::string &Label : Opts.Targets)
    Queries.push_back(
        Query::fromSource("").target(Label).witness(Opts.Witness));

  std::vector<SolveResult> Results = Session->solveAll(Queries);
  int LimitExit = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (!Results[I].ok() && !limitVerdict(Results[I].Status)) {
      std::fprintf(stderr, "error: %s: %s\n", Opts.Targets[I].c_str(),
                   Results[I].Error.c_str());
      return 2;
    }
    if (LimitExit == 0)
      LimitExit = limitExitCode(Results[I].Status);
    printVerdictLine(Opts.Targets[I], Results[I]);
  }

  if (Opts.Stats) {
    const SolverSession::SessionStats &SS = Session->stats();
    std::printf("{\n  \"targets\": %zu,\n", Opts.Targets.size());
    std::printf("  \"session\": {\"queries\": %llu, "
                "\"session_solves\": %llu, \"fresh_solves\": %llu, "
                "\"dedup_hits\": %llu, \"summaries_reused\": %llu, "
                "\"summaries_recomputed\": %llu},\n",
                (unsigned long long)SS.Queries,
                (unsigned long long)SS.SessionSolves,
                (unsigned long long)SS.FreshSolves,
                (unsigned long long)SS.DedupHits,
                (unsigned long long)SS.SummariesReused,
                (unsigned long long)SS.SummariesRecomputed);
    std::printf("  \"queries\": [\n");
    for (size_t I = 0; I < Results.size(); ++I) {
      std::printf("    {\n      \"label\": \"%s\",\n",
                  jsonEscape(Opts.Targets[I]).c_str());
      printStatsBody(Opts, Results[I], "      ");
      std::printf("    }%s\n", I + 1 < Results.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }
  return LimitExit;
}

int run(int Argc, char **Argv) {
  CliOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--label") {
      const char *V = Next();
      if (!V)
        return usage();
      Opts.Label = V;
    } else if (Arg == "--targets") {
      const char *V = Next();
      if (!V)
        return usage();
      Opts.Targets = splitList(V);
      if (Opts.Targets.empty())
        return usage();
    } else if (Arg == "--algo") {
      const char *V = Next();
      if (!V)
        return usage();
      Opts.Solver.Engine = V;
    } else if (Arg == "--list-algos") {
      return listAlgos();
    } else if (Arg == "--context-bound") {
      if (!parseUnsigned(Next(), Opts.Solver.ContextBound))
        return usage();
    } else if (Arg == "--rounds") {
      if (!parseUnsigned(Next(), Opts.Solver.Rounds))
        return usage();
      Opts.Solver.RoundRobin = true;
    } else if (Arg == "--round-robin") {
      Opts.Solver.RoundRobin = true;
    } else if (Arg == "--threads") {
      if (!parseUnsigned(Next(), Opts.Solver.Threads, 1, 256))
        return usage();
    } else if (Arg == "--timeout-ms") {
      if (!parseUnsigned(Next(), Opts.Solver.TimeoutMs))
        return usage();
    } else if (Arg == "--node-budget") {
      if (!parseUnsigned(Next(), Opts.Solver.NodeBudget))
        return usage();
    } else if (Arg == "--witness") {
      Opts.Witness = true;
    } else if (Arg == "--print-formula") {
      Opts.PrintFormula = true;
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Opts.File = Arg;
    }
  }
  if (Opts.File.empty())
    return usage();

  std::ifstream In(Opts.File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.File.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  if (!Opts.Targets.empty() && !Opts.PrintFormula)
    return runSession(Opts, Buffer.str());

  Query Q = Query::fromSource(Buffer.str())
                .target(Opts.Label)
                .witness(Opts.Witness);

  if (Opts.PrintFormula) {
    std::string Error;
    std::string Text = Solver::formulaText(Q, Opts.Solver, &Error);
    if (Text.empty()) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    std::printf("%s", Text.c_str());
    return 0;
  }

  SolveResult R = Solver::solve(Q, Opts.Solver);
  if (const char *Limit = limitVerdict(R.Status)) {
    std::printf("%s\n", Limit);
    if (Opts.Stats)
      printStatsJson(Opts, R);
    return limitExitCode(R.Status);
  }
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 2;
  }

  std::printf("%s\n", R.Reachable ? "YES" : "NO");
  if (R.HasWitness)
    std::printf("%s", R.WitnessText.c_str());
  if (Opts.Stats)
    printStatsJson(Opts, R);
  return R.Reachable ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // Memory exhaustion (a huge context bound's encoding, say) is an error
  // exit like any other, not an abort.
  try {
    return run(Argc, Argv);
  } catch (const std::bad_alloc &) {
    std::fprintf(stderr, "error: out of memory\n");
    return 2;
  }
}
