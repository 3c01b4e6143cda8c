//===- bench_ablation.cpp - Design-choice ablations ------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
// Ablates the paper's engineering claims on terminator-style workloads:
//   - Section 4.2: splitting the Return relation (ReturnA/ReturnB) versus
//     conjoining the two summary BDDs directly,
//   - Section 4.3: the Relevant-PC frontier restriction versus plain
//     entry-forward iteration,
//   - solver-level early termination on positive instances,
//   - Figure 3's concurrent engine on the bluetooth model at k = 4,
//   - parallel SCC scheduling (--threads) on multi-SCC calculus systems
//     at 1/2/4/8 workers, gated on bit-identical counts/rounds/BDD sizes,
//   - summary-scc (Section 4.1's summaries with one Summary_<group>
//     relation per call-graph SCC, the default sequential engine) against
//     the paper's summary and ef-opt engines, gated on identical verdicts,
//     a summary union node-for-node identical to summary's relation,
//     call-graph-wide condensation (> 4 on the terminator workload), and
//     SCC tasks actually landing on the worker pool at threads=4.
//
// Pass --smoke to shrink every workload for a seconds-long CI run,
// --threads n to run every facade solve at n threads, and --json FILE to
// additionally record every row (verdict, rounds, node and peak counters)
// as a BENCH_*.json report — CI runs the smoke at one and four threads and
// fails on any verdict drift between the reports.
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "fpcalc/Evaluator.h"
#include "fpcalc/Parser.h"
#include "gen/Workloads.h"
#include "support/Timer.h"

#include <cmath>
#include <cstring>

using namespace getafix;
using namespace getafix::bench;

namespace {

/// --threads: applied to every facade solve in the driver (the dedicated
/// parallel-scaling section keeps its own explicit thread counts). CI
/// runs the smoke at 1 and 4 and diffs verdicts/rounds.
unsigned GlobalThreads = 1;
JsonReport Report;
bool WantJson = false;

void recordRow(const char *Section, const char *Case_, const char *Variant,
               const EngineRow &R) {
  if (!WantJson)
    return;
  JsonReport::Row Row;
  Row.field("section", Section)
      .field("case", Case_)
      .field("variant", Variant)
      .field("reachable", R.Reachable)
      .field("iterations", R.Iterations)
      .field("delta_rounds", R.DeltaRounds)
      .field("nodes_created", R.NodesCreated)
      .field("peak_live_nodes", R.PeakLiveNodes)
      .field("cache_hit_rate", R.CacheHitRate)
      .field("seconds", R.Seconds);
  Report.add(Row);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      int N = std::atoi(Argv[++I]);
      if (N < 1 || N > 256) {
        std::fprintf(stderr, "--threads must be in [1, 256]\n");
        return 2;
      }
      GlobalThreads = unsigned(N);
    } else if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      JsonPath = Argv[++I];
      WantJson = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablation [--smoke] "
                   "[--threads n] [--json FILE]\n");
      return 2;
    }
  }
  std::printf("=== Ablations (Sections 4.2 / 4.3) ===\n");
  std::printf("%-24s %10s %10s %10s %12s\n", "case", "EF-unsplit",
              "EF-split", "EF-opt", "simple-4.1");

  for (unsigned Bits : Smoke ? std::vector<unsigned>{4u}
                             : std::vector<unsigned>{4u, 5u, 6u}) {
    gen::TerminatorParams P;
    P.CounterBits = Bits;
    P.NumDeadVars = 4;
    P.Style = gen::DeadVarStyle::Iterative;
    P.Reachable = false;
    gen::Workload W = gen::terminatorProgram(P);
    ParsedProgram Parsed = parseOrDie(W.Source);

    SolverOptions Opts;
    Opts.Threads = GlobalThreads;
    EngineRow Unsplit = runEngine(Parsed.Cfg, W.TargetLabel, "ef", Opts);
    EngineRow Split = runEngine(Parsed.Cfg, W.TargetLabel, "ef-split", Opts);
    EngineRow Opt = runEngine(Parsed.Cfg, W.TargetLabel, "ef-opt", Opts);
    EngineRow Simple = runEngine(Parsed.Cfg, W.TargetLabel, "summary", Opts);
    std::printf("%-24s %9.3fs %9.3fs %9.3fs %11.3fs\n", W.Name.c_str(),
                Unsplit.Seconds, Split.Seconds, Opt.Seconds,
                Simple.Seconds);
    recordRow("algorithms", W.Name.c_str(), "ef", Unsplit);
    recordRow("algorithms", W.Name.c_str(), "ef-split", Split);
    recordRow("algorithms", W.Name.c_str(), "ef-opt", Opt);
    recordRow("algorithms", W.Name.c_str(), "summary", Simple);
  }

  std::printf("\n--- early termination (positive driver instances) ---\n");
  std::printf("%-24s %12s %12s\n", "case", "early-stop", "full-fixpoint");
  for (uint64_t Seed : Smoke ? std::vector<unsigned>{7u}
                             : std::vector<unsigned>{7u, 8u, 9u}) {
    gen::DriverParams P;
    P.NumProcs = Smoke ? 12 : 24;
    P.StmtsPerProc = Smoke ? 10 : 14;
    P.Reachable = true;
    P.Seed = Seed;
    gen::Workload W = gen::driverProgram(P);
    ParsedProgram Parsed = parseOrDie(W.Source);
    SolverOptions Opts;
    Opts.Threads = GlobalThreads;
    EngineRow Fast = runEngine(Parsed.Cfg, W.TargetLabel, "ef-split", Opts);
    Opts.EarlyStop = false;
    EngineRow Full = runEngine(Parsed.Cfg, W.TargetLabel, "ef-split", Opts);
    std::printf("%-24s %11.3fs %11.3fs\n", W.Name.c_str(), Fast.Seconds,
                Full.Seconds);
    recordRow("early-stop", W.Name.c_str(), "early", Fast);
    recordRow("early-stop", W.Name.c_str(), "full", Full);
  }

  // Figure 3's concurrent engine on the bluetooth model at k = 4, with
  // early stop off (Figure 3 reports the whole reachable set): (1,1,4) is
  // the light two-thread row, (2,2,4) the heavy one (full run only).
  // Recorded as `algorithms` rows.
  std::printf("\n--- concurrent engine (Figure 3, bluetooth) ---\n");
  struct BtConfig {
    unsigned Adders, Stoppers, Switches;
  } BtConfigs[] = {{1, 1, 4}, {2, 2, 4}};
  for (const BtConfig &C : BtConfigs) {
    if (Smoke && C.Adders + C.Stoppers > 2)
      continue;
    ParsedConcProgram P =
        parseConcOrDie(gen::bluetoothModel(C.Adders, C.Stoppers));
    SolverOptions Opts;
    Opts.Threads = GlobalThreads;
    Opts.ContextBound = C.Switches;
    Opts.EarlyStop = false;
    EngineRow Conc = runConcEngine(P, "ERR", "conc", Opts);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "bluetooth-%ua%us-k%u", C.Adders,
                  C.Stoppers, C.Switches);
    std::printf("%-24s %9.3fs %11llu nodes %6llu rounds\n", Name,
                Conc.Seconds, (unsigned long long)Conc.NodesCreated,
                (unsigned long long)Conc.Iterations);
    recordRow("algorithms", Name, "conc", Conc);
  }

  // Cross-query sessions: N targets over one program, solved as N fresh
  // facade calls versus one SolverSession::solveAll. The session saturates
  // the summary once (driven by the hardest target) and replays the
  // recorded rounds for the rest, so the acceptance criterion is a
  // measurable speedup at bit-identical per-target verdicts and rounds —
  // the drift check here mirrors the SessionTest differential.
  std::printf("\n--- cross-query sessions (solveAll vs N fresh solves) ---\n");
  std::printf("%-26s %3s %11s %11s %8s %16s\n", "case", "n", "fresh-total",
              "session", "speedup", "reused/recomp");
  {
    struct SessionCase {
      std::string Name;
      std::string Source;
      std::vector<Query> Queries;
      SolverOptions Opts;
    };
    std::vector<SessionCase> Cases;

    // Terminator: a negative instance (first query saturates) plus point
    // targets spread through procedure 0.
    {
      gen::TerminatorParams P;
      P.CounterBits = Smoke ? 4 : 6;
      P.NumDeadVars = 4;
      P.Style = gen::DeadVarStyle::Iterative;
      P.Reachable = false;
      gen::Workload W = gen::terminatorProgram(P);
      ParsedProgram Parsed = parseOrDie(W.Source);
      SessionCase C;
      C.Name = W.Name + "-multi";
      C.Source = W.Source;
      C.Opts.Threads = GlobalThreads;
      C.Queries.push_back(Query::fromSource("").target(W.TargetLabel));
      unsigned NumPcs = Parsed.Cfg.Procs[0].NumPcs;
      for (unsigned I = 1; I <= 5; ++I)
        C.Queries.push_back(
            Query::fromSource("").targetPoint(0, (I * NumPcs) / 7));
      Cases.push_back(std::move(C));
    }

    // Bluetooth: the Figure-3 concurrent model, targets across threads.
    // Figure 3 reports full reachable sets (no early stop), which is also
    // the query-server shape: every fresh solve saturates, the session
    // saturates once.
    {
      SessionCase C;
      C.Name = Smoke ? "bluetooth-1a1s-k3-multi" : "bluetooth-1a1s-k4-multi";
      C.Source = gen::bluetoothModel(1, 1);
      C.Opts.Threads = GlobalThreads;
      C.Opts.EarlyStop = false;
      C.Opts.ContextBound = Smoke ? 3 : 4;
      C.Queries.push_back(Query::fromSource("").target("ERR"));
      C.Queries.push_back(Query::fromSource("").targetPoint(0, 1, 0));
      C.Queries.push_back(Query::fromSource("").targetPoint(0, 2, 0));
      C.Queries.push_back(Query::fromSource("").targetPoint(0, 1, 1));
      C.Queries.push_back(Query::fromSource("").targetPoint(0, 2, 1));
      Cases.push_back(std::move(C));
    }

    for (SessionCase &C : Cases) {
      // N fresh facade calls.
      std::vector<SolveResult> Fresh;
      double FreshTotal = 0;
      for (const Query &Q : C.Queries) {
        Query FQ = Q;
        FQ.Source = C.Source;
        SolveResult R = Solver::solve(FQ, C.Opts);
        if (!R.ok()) {
          std::fprintf(stderr, "%s: fresh solve failed: %s\n",
                       C.Name.c_str(), R.Error.c_str());
          std::exit(1);
        }
        FreshTotal += R.Seconds;
        Fresh.push_back(std::move(R));
      }

      // One session, one batch.
      std::unique_ptr<SolverSession> S =
          Solver::open(Query::fromSource(C.Source), C.Opts);
      if (!S->ok()) {
        std::fprintf(stderr, "%s: open failed: %s\n", C.Name.c_str(),
                     S->error().c_str());
        std::exit(1);
      }
      std::vector<SolveResult> Sess = S->solveAll(C.Queries);
      double SessTotal = 0;
      uint64_t Reused = 0, Recomputed = 0;
      for (size_t I = 0; I < Sess.size(); ++I) {
        const SolveResult &F = Fresh[I];
        const SolveResult &R = Sess[I];
        if (!R.ok() || F.Reachable != R.Reachable ||
            F.Iterations != R.Iterations) {
          std::fprintf(stderr,
                       "%s target %zu: session DISAGREES with fresh "
                       "(verdict %d/%d, rounds %llu/%llu)\n",
                       C.Name.c_str(), I, F.Reachable, R.Reachable,
                       (unsigned long long)F.Iterations,
                       (unsigned long long)R.Iterations);
          std::exit(1);
        }
        SessTotal += R.Seconds;
        Reused += R.SummariesReused;
        Recomputed += R.SummariesRecomputed;
        char Target[48];
        std::snprintf(Target, sizeof(Target), "%s#t%zu", C.Name.c_str(), I);
        recordRow("session", Target, "fresh", rowOrDie(F, "fresh"));
        recordRow("session", Target, "session", rowOrDie(R, "session"));
      }
      double Speedup = SessTotal > 0 ? FreshTotal / SessTotal : 0.0;
      std::printf("%-26s %3zu %10.3fs %10.3fs %7.2fx %10llu/%llu\n",
                  C.Name.c_str(), C.Queries.size(), FreshTotal, SessTotal,
                  Speedup, (unsigned long long)Reused,
                  (unsigned long long)Recomputed);
      if (WantJson) {
        JsonReport::Row Row;
        Row.field("section", "session-total")
            .field("case", C.Name)
            .field("variant", "totals")
            .field("targets", uint64_t(C.Queries.size()))
            .field("fresh_seconds", FreshTotal)
            .field("session_seconds", SessTotal)
            .field("speedup", Speedup)
            .field("summaries_reused", Reused)
            .field("summaries_recomputed", Recomputed)
            // Retained (reachable-only) nodes, sampled at query
            // boundaries — the whole-session memory gauge the
            // trajectory check gates on.
            .field("peak_live_nodes", uint64_t(S->gauge().PeakLiveNodes));
        Report.add(Row);
      }
    }
  }

  // Parallel SCC scheduling: multi-SCC calculus systems (K independent
  // recursive relations under a Root union) solved at 1/2/4/8 worker
  // threads. Every thread count must report the identical root tuple
  // count, root BDD size, and per-relation iteration totals — parallel
  // scheduling is a pure wall-clock lever (per-worker managers, canonical
  // import-back), so any disagreement is a correctness bug and exits 1.
  // The engine-level rows exercise the same knob through the Solver
  // facade (the engines' systems have few independent SCCs, so no speedup
  // is claimed there — the gate is bit-identical verdicts/rounds).
  std::printf("\n--- parallel SCC scheduling (--threads) ---\n");
  std::printf("%-26s %8s %10s %10s %8s %6s\n", "case", "threads", "seconds",
              "vs-t1", "sccs-par", "root");
  {
    std::vector<unsigned> ThreadCounts =
        Smoke ? std::vector<unsigned>{1u, 4u}
              : std::vector<unsigned>{1u, 2u, 4u, 8u};

    struct FpCase {
      std::string Name;
      gen::MultiSccParams Params;
    };
    std::vector<FpCase> FpCases;
    {
      FpCase T;
      T.Name = "multi-scc-terminator";
      T.Params.Style = gen::MultiSccStyle::Lockstep;
      T.Params.Relations = 8;
      T.Params.Bits = Smoke ? 6 : 8;
      FpCases.push_back(T);
      FpCase G;
      G.Name = "multi-scc-gen";
      G.Params.Style = gen::MultiSccStyle::Graph;
      G.Params.Relations = 8;
      G.Params.Bits = Smoke ? 6 : 8;
      G.Params.ExtraEdges = 32;
      FpCases.push_back(G);
    }

    for (const FpCase &C : FpCases) {
      std::string Src = gen::multiSccFixpointSystem(C.Params);
      DiagnosticEngine Diags;
      std::vector<fpc::Fact> Facts;
      auto Sys = fpc::parseSystem(Src, Diags, &Facts);
      if (!Sys) {
        std::fprintf(stderr, "%s failed to parse:\n%s", C.Name.c_str(),
                     Diags.str().c_str());
        return 1;
      }
      fpc::RelId Root = Sys->relId("Root");

      struct ThreadRow {
        unsigned Threads = 0;
        double Seconds = 0;
        uint64_t RootCount = 0;
        size_t RootNodes = 0;
        uint64_t Iterations = 0; ///< Summed over all relations.
        uint64_t SccsParallel = 0;
        EngineRow Row;
      };
      std::vector<ThreadRow> Rows;
      for (unsigned T : ThreadCounts) {
        BddManager Mgr;
        fpc::Evaluator Ev(*Sys, Mgr, fpc::Layout::sequential(*Sys, Mgr), T);
        fpc::bindFacts(Ev, *Sys, Facts);
        Timer Tm;
        fpc::EvalResult R = Ev.evaluate(Root);
        ThreadRow TR;
        TR.Threads = T;
        TR.Seconds = Tm.seconds();
        TR.RootNodes = R.Value.nodeCount();
        // Count over the formals' bits only (other variables don't-care).
        Bdd Constrained = R.Value;
        unsigned TupleBits = 0;
        for (fpc::VarId V : Sys->relation(Root).Formals) {
          Constrained &= Ev.domainConstraint(V);
          TupleBits += unsigned(Ev.layout().bits(V).size());
        }
        double Exact =
            Constrained.satCount(Mgr.numVars()) /
            std::pow(2.0, double(Mgr.numVars() - TupleBits));
        TR.RootCount = uint64_t(Exact + 0.5);
        uint64_t DeltaRounds = 0;
        for (const auto &[Name, RS] : Ev.stats()) {
          TR.Iterations += RS.Iterations;
          DeltaRounds += RS.DeltaRounds;
        }
        TR.Row.DeltaRounds = DeltaRounds;
        TR.SccsParallel = Ev.parallelStats().SccsSolvedParallel;
        BddStats BS = Mgr.stats();
        BS.merge(Ev.workerBddStats());
        TR.Row.Reachable = TR.RootCount != 0;
        TR.Row.Seconds = TR.Seconds;
        TR.Row.Nodes = TR.RootNodes;
        TR.Row.Iterations = TR.Iterations;
        TR.Row.NodesCreated = BS.NodesCreated;
        TR.Row.PeakLiveNodes = BS.PeakNodes;
        TR.Row.CacheHitRate = BS.CacheLookups
                                  ? double(BS.CacheHits) /
                                        double(BS.CacheLookups)
                                  : 0.0;
        Rows.push_back(TR);
      }
      const ThreadRow &Base = Rows.front();
      for (const ThreadRow &TR : Rows) {
        if (TR.RootCount != Base.RootCount ||
            TR.RootNodes != Base.RootNodes ||
            TR.Iterations != Base.Iterations) {
          std::fprintf(stderr,
                       "%s: threads=%u DISAGREES with threads=1 "
                       "(count %llu/%llu, nodes %zu/%zu, rounds "
                       "%llu/%llu)\n",
                       C.Name.c_str(), TR.Threads,
                       (unsigned long long)TR.RootCount,
                       (unsigned long long)Base.RootCount, TR.RootNodes,
                       Base.RootNodes, (unsigned long long)TR.Iterations,
                       (unsigned long long)Base.Iterations);
          std::exit(1);
        }
        double Speedup = TR.Seconds > 0 ? Base.Seconds / TR.Seconds : 0.0;
        std::printf("%-26s %8u %9.3fs %9.2fx %8llu %6llu\n", C.Name.c_str(),
                    TR.Threads, TR.Seconds, Speedup,
                    (unsigned long long)TR.SccsParallel,
                    (unsigned long long)TR.RootCount);
        // One row per measurement: the recordRow fields (the drift
        // extract and trajectory gate read those) plus the scaling
        // extras on the same row.
        if (WantJson) {
          char Variant[32];
          std::snprintf(Variant, sizeof(Variant), "threads-%u",
                        TR.Threads);
          JsonReport::Row Row;
          Row.field("section", "threads")
              .field("case", C.Name)
              .field("variant", Variant)
              .field("reachable", TR.Row.Reachable)
              .field("iterations", TR.Row.Iterations)
              .field("delta_rounds", TR.Row.DeltaRounds)
              .field("nodes_created", TR.Row.NodesCreated)
              .field("peak_live_nodes", TR.Row.PeakLiveNodes)
              .field("cache_hit_rate", TR.Row.CacheHitRate)
              .field("seconds", TR.Row.Seconds)
              .field("threads", TR.Threads)
              .field("speedup_vs_t1", Speedup)
              .field("sccs_parallel", TR.SccsParallel);
          Report.add(Row);
        }
      }
    }

    // Engine-level plumbing rows: identical verdicts/rounds through the
    // facade at threads 1 vs 4 (terminator summary-scc, the engine whose
    // SCCs reach the pool).
    {
      gen::TerminatorParams P;
      P.CounterBits = Smoke ? 4 : 5;
      P.NumDeadVars = 4;
      P.Style = gen::DeadVarStyle::Iterative;
      P.Reachable = false;
      gen::Workload W = gen::terminatorProgram(P);
      ParsedProgram Parsed = parseOrDie(W.Source);
      SolverOptions Opts;
      EngineRow T1 = runEngine(Parsed.Cfg, W.TargetLabel, "summary-scc", Opts);
      Opts.Threads = 4;
      EngineRow T4 = runEngine(Parsed.Cfg, W.TargetLabel, "summary-scc", Opts);
      if (T1.Reachable != T4.Reachable || T1.Iterations != T4.Iterations ||
          T1.Nodes != T4.Nodes) {
        std::fprintf(stderr,
                     "%s: engine threads ablation DISAGREES (verdict "
                     "%d/%d, rounds %llu/%llu)\n",
                     W.Name.c_str(), T1.Reachable, T4.Reachable,
                     (unsigned long long)T1.Iterations,
                     (unsigned long long)T4.Iterations);
        std::exit(1);
      }
      std::printf("%-26s %8s %9.3fs %9.3fs (verdict/rounds identical)\n",
                  (W.Name + "-engine").c_str(), "1-vs-4", T1.Seconds,
                  T4.Seconds);
      recordRow("threads", (W.Name + "-engine").c_str(), "threads-1", T1);
      recordRow("threads", (W.Name + "-engine").c_str(), "threads-4", T4);
    }
  }

  // summary-scc against the paper's engines: summary-scc compiles one
  // Summary_<group> relation per call-graph SCC, so the calculus
  // condensation is as wide as the call graph and fpc::runDag schedules
  // real work, where summary and ef-opt compile the paper's one summary
  // relation. Gates (each exits 1): summary-scc agrees with both on every
  // verdict, its summary union is node-for-node identical to summary's
  // relation, its width equals the call-graph SCC count and exceeds 4,
  // and its threads=4 run schedules at least one SCC task on the worker
  // pool.
  std::printf("\n--- per-SCC summaries (condensation width) ---\n");
  std::printf("%-26s %11s %8s %6s %5s %9s %10s %10s\n", "case", "engine",
              "threads", "width", "rels", "sccs-par", "seconds",
              "vs-first");
  {
    auto recordCondRow = [&](const std::string &Case_, const char *Engine,
                             unsigned Threads, const EngineRow &R,
                             double BaseSeconds) {
      double Speedup = R.Seconds > 0 ? BaseSeconds / R.Seconds : 0.0;
      std::printf("%-26s %11s %8u %6u %5u %9llu %9.3fs %9.2fx\n",
                  Case_.c_str(), Engine, Threads, R.CondensationWidth,
                  R.SummaryRelations,
                  (unsigned long long)R.SccsSolvedParallel, R.Seconds,
                  Speedup);
      if (WantJson) {
        JsonReport::Row Row;
        Row.field("section", "condensation")
            .field("case", Case_)
            .field("variant",
                   std::string(Engine) + "-t" + std::to_string(Threads))
            .field("reachable", R.Reachable)
            .field("iterations", R.Iterations)
            .field("condensation_width", R.CondensationWidth)
            .field("summary_relations", R.SummaryRelations)
            .field("sccs_solved_parallel", R.SccsSolvedParallel)
            .field("seconds", R.Seconds)
            .field("speedup_vs_first", Speedup);
        Report.add(Row);
      }
    };
    auto checkVerdict = [](const std::string &Case_, const char *Engine,
                           const EngineRow &Want, const char *Other,
                           const EngineRow &Got) {
      if (Want.Reachable != Got.Reachable) {
        std::fprintf(stderr, "%s: %s DISAGREES with %s (verdict %d/%d)\n",
                     Case_.c_str(), Other, Engine, Got.Reachable,
                     Want.Reachable);
        std::exit(1);
      }
    };

    // Sequential: the terminator workload (one phase<i> procedure per
    // dead variable) through the facade, summary-scc at 1 and 4 threads
    // against summary and ef-opt.
    {
      gen::TerminatorParams P;
      P.CounterBits = Smoke ? 4 : 5;
      P.NumDeadVars = 4;
      P.Style = gen::DeadVarStyle::Iterative;
      P.Reachable = false;
      gen::Workload W = gen::terminatorProgram(P);
      ParsedProgram Parsed = parseOrDie(W.Source);
      size_t CgWidth = bp::buildCallGraph(Parsed.Cfg).numSccs();
      SolverOptions Opts;
      EngineRow Summary = runEngine(Parsed.Cfg, W.TargetLabel, "summary", Opts);
      EngineRow Opt = runEngine(Parsed.Cfg, W.TargetLabel, "ef-opt", Opts);
      EngineRow S1 = runEngine(Parsed.Cfg, W.TargetLabel, "summary-scc", Opts);
      Opts.Threads = 4;
      EngineRow S4 = runEngine(Parsed.Cfg, W.TargetLabel, "summary-scc", Opts);
      for (const EngineRow *R : {&S1, &S4}) {
        checkVerdict(W.Name, "summary", Summary, "summary-scc", *R);
        checkVerdict(W.Name, "ef-opt", Opt, "summary-scc", *R);
      }
      if (S1.CondensationWidth != CgWidth || CgWidth <= 4) {
        std::fprintf(stderr,
                     "%s: summary-scc width %u != call-graph SCCs %zu "
                     "(or width not > 4)\n",
                     W.Name.c_str(), S1.CondensationWidth, CgWidth);
        std::exit(1);
      }
      if (S1.Nodes != Summary.Nodes) {
        std::fprintf(stderr,
                     "%s: summary-scc union is not bit-identical to "
                     "summary's relation (%zu vs %zu nodes)\n",
                     W.Name.c_str(), S1.Nodes, Summary.Nodes);
        std::exit(1);
      }
      if (S4.SccsSolvedParallel == 0) {
        std::fprintf(stderr,
                     "%s: summary-scc at threads=4 never scheduled an SCC "
                     "task on the worker pool\n",
                     W.Name.c_str());
        std::exit(1);
      }
      recordCondRow(W.Name, "summary", 1, Summary, Summary.Seconds);
      recordCondRow(W.Name, "ef-opt", 1, Opt, Summary.Seconds);
      recordCondRow(W.Name, "summary-scc", 1, S1, Summary.Seconds);
      recordCondRow(W.Name, "summary-scc", 4, S4, Summary.Seconds);
    }

    // Concurrent: the bluetooth model's per-thread call graphs carry the
    // same width (main/ioInc/ioDec/pendInc/pendDec = 5 SCCs per thread);
    // the interleaved encoding itself keeps one Reach relation because
    // the context-switch clauses couple every thread, so the conc engine
    // honestly reports the dependency-analysis width instead.
    {
      ParsedConcProgram P = parseConcOrDie(gen::bluetoothModel(1, 1));
      for (size_t I = 0; I < P.Cfgs.size(); ++I) {
        size_t N = bp::buildCallGraph(P.Cfgs[I]).numSccs();
        if (N <= 4) {
          std::fprintf(stderr,
                       "bluetooth thread %zu call graph has %zu SCCs "
                       "(expected > 4)\n",
                       I, N);
          std::exit(1);
        }
        std::printf("%-26s thread %zu call graph: %zu SCCs\n",
                    "bluetooth-1a1s", I, N);
      }
      SolverOptions Opts;
      Opts.ContextBound = 2;
      EngineRow Conc = runConcEngine(P, "ERR", "conc", Opts);
      recordCondRow("bluetooth-1a1s-k2", "conc", 1, Conc, Conc.Seconds);
    }

    // The Lal-Reps engine solves its sequentialized program with
    // summary-scc; its verdict must match the conc engine's on the same
    // concurrent program and bound.
    {
      const char *HandshakeSrc = R"(
shared decl a, b;
thread
main() begin
  a := T;
  b := T;
end
end
thread
main() begin
  decl seen;
  seen := F;
  if (a & !b) then seen := T; fi;
  if (seen & b) then ERR: skip; fi;
end
end
)";
      ParsedConcProgram P = parseConcOrDie(HandshakeSrc);
      SolverOptions Opts;
      Opts.ContextBound = 2;
      EngineRow Conc = runConcEngine(P, "ERR", "conc", Opts);
      EngineRow L1 = runConcEngine(P, "ERR", "lal-reps", Opts);
      Opts.Threads = 4;
      EngineRow L4 = runConcEngine(P, "ERR", "lal-reps", Opts);
      checkVerdict("handshake-k2", "conc", Conc, "lal-reps", L1);
      checkVerdict("handshake-k2", "conc", Conc, "lal-reps", L4);
      recordCondRow("handshake-k2", "conc", 1, Conc, Conc.Seconds);
      recordCondRow("handshake-k2", "lal-reps", 1, L1, Conc.Seconds);
      recordCondRow("handshake-k2", "lal-reps", 4, L4, Conc.Seconds);
    }
  }

  if (WantJson)
    Report.write(JsonPath);
  return 0;
}
