//===- ParallelTest.cpp - Parallel SCC scheduling differential tests ------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness contract of `--threads N`: bit-identical results to a
/// sequential solve, everywhere. Covers
///
///   - `BddImporter` in isolation (truth-table equality, canonical node
///     identity against natively-rebuilt functions, survival of source-
///     and destination-side GCs),
///   - multi-SCC calculus systems solved at threads {1, 2, 4}: identical
///     relation values (compared exactly, via import into one manager),
///     identical per-relation iteration counts, both strategies, and the
///     worker managers' memory accounting (charged, and released by
///     `clearWorkerCaches`),
///   - every registered engine through the Solver facade at threads 1 vs
///     4 — both strategies, witness queries,
///   - sessions under `Threads > 1`: solve/solveAll bit-identical to
///     fresh solves and to a `Threads = 1` session, with and without
///     state reuse; `summary-scc` sessions reach the pool and hold no
///     pool thread between queries.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"
#include "bdd/Bdd.h"
#include "fpcalc/Evaluator.h"
#include "fpcalc/Parser.h"
#include "gen/Workloads.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace getafix;

namespace {

//===----------------------------------------------------------------------===//
// BddImporter
//===----------------------------------------------------------------------===//

/// A random function over \p NumVars variables as an OR of random cubes.
Bdd randomFunction(BddManager &Mgr, Rng &R, unsigned NumVars,
                   unsigned Terms) {
  Bdd F = Mgr.zero();
  for (unsigned T = 0; T < Terms; ++T) {
    Bdd Cube = Mgr.one();
    for (unsigned V = 0; V < NumVars; ++V) {
      switch (R.below(3)) {
      case 0:
        Cube &= Mgr.var(V);
        break;
      case 1:
        Cube &= Mgr.nvar(V);
        break;
      default:
        break; // Don't-care.
      }
    }
    F |= Cube;
  }
  return F;
}

void expectSameTruthTable(const Bdd &A, const Bdd &B, unsigned NumVars) {
  ASSERT_LE(NumVars, 12u);
  for (uint64_t Bits = 0; Bits < (uint64_t(1) << NumVars); ++Bits) {
    std::vector<bool> Assignment(NumVars);
    for (unsigned V = 0; V < NumVars; ++V)
      Assignment[V] = (Bits >> V) & 1;
    ASSERT_EQ(A.eval(Assignment), B.eval(Assignment)) << "at " << Bits;
  }
}

TEST(BddImporterTest, ImportPreservesFunctionsAndCanonicity) {
  constexpr unsigned NumVars = 10;
  BddManager Src(NumVars), Dst(NumVars);
  BddImporter Imp(Src, Dst);
  Rng R(3);
  for (unsigned I = 0; I < 20; ++I) {
    Bdd F = randomFunction(Src, R, NumVars, 1 + unsigned(R.below(12)));
    Bdd G = Imp.import(F);
    ASSERT_EQ(G.manager(), &Dst);
    expectSameTruthTable(F, G, NumVars);
    EXPECT_EQ(F.nodeCount(), G.nodeCount());
    EXPECT_EQ(F.support(), G.support());
  }
  // Terminals import as themselves.
  EXPECT_TRUE(Imp.import(Src.zero()).isZero());
  EXPECT_TRUE(Imp.import(Src.one()).isOne());
  EXPECT_TRUE(Imp.import(Bdd()).isNull());
}

TEST(BddImporterTest, ImportedBddIsCanonicallyIdenticalToNativeBuild) {
  // Build the same function natively in both managers; the import of one
  // must be *the same node* as the other (ROBDD canonicity is what makes
  // parallel results bit-identical).
  constexpr unsigned NumVars = 8;
  BddManager Src(NumVars), Dst(NumVars);
  Rng RA(11), RB(11); // Same seed: same construction sequence.
  Bdd F = randomFunction(Src, RA, NumVars, 9);
  Bdd Native = randomFunction(Dst, RB, NumVars, 9);
  BddImporter Imp(Src, Dst);
  EXPECT_EQ(Imp.import(F), Native);
}

TEST(BddImporterTest, MemoSurvivesDestinationGcAndInvalidatesOnSourceGc) {
  constexpr unsigned NumVars = 10;
  BddManager Src(NumVars), Dst(NumVars);
  BddImporter Imp(Src, Dst);
  Rng R(5);
  Bdd Keep = randomFunction(Src, R, NumVars, 8);
  Bdd KeptDst = Imp.import(Keep);
  EXPECT_GT(Imp.memoSize(), 0u);

  // Destination-side GC: memo entries hold external refs, so the
  // translations stay valid (and canonical) afterwards.
  { Bdd Garbage = randomFunction(Dst, R, NumVars, 10); }
  Dst.gc();
  EXPECT_EQ(Imp.import(Keep), KeptDst);
  expectSameTruthTable(Keep, KeptDst, NumVars);

  // Source-side GC: freed source indices may be recycled; the importer
  // must drop its memo and still translate correctly.
  { Bdd Garbage = randomFunction(Src, R, NumVars, 10); }
  Src.gc();
  Bdd Fresh = randomFunction(Src, R, NumVars, 7);
  expectSameTruthTable(Fresh, Imp.import(Fresh), NumVars);
  EXPECT_EQ(Imp.import(Keep), KeptDst);
}

//===----------------------------------------------------------------------===//
// Multi-SCC calculus systems: threads {1, 2, 4} differential
//===----------------------------------------------------------------------===//

struct FpSolve {
  std::unique_ptr<BddManager> Mgr;
  std::unique_ptr<fpc::Evaluator> Ev;
  Bdd Root;
  std::map<std::string, fpc::RelStats> Stats;
  uint64_t SccsParallel = 0;
};

FpSolve solveRoot(const fpc::System &Sys,
                  const std::vector<fpc::Fact> &Facts, unsigned Threads) {
  FpSolve S;
  S.Mgr = std::make_unique<BddManager>();
  S.Ev = std::make_unique<fpc::Evaluator>(
      Sys, *S.Mgr, fpc::Layout::sequential(Sys, *S.Mgr));
  S.Ev->setThreads(Threads);
  fpc::bindFacts(*S.Ev, Sys, Facts);
  S.Root = S.Ev->evaluate(Sys.relId("Root")).Value;
  S.Stats = S.Ev->stats();
  S.SccsParallel = S.Ev->parallelStats().SccsSolvedParallel;
  return S;
}

void expectSameRelStats(const std::map<std::string, fpc::RelStats> &A,
                        const std::map<std::string, fpc::RelStats> &B,
                        const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (const auto &[Name, RA] : A) {
    auto It = B.find(Name);
    ASSERT_NE(It, B.end()) << Context << ": " << Name;
    EXPECT_EQ(RA.Iterations, It->second.Iterations) << Context << " " << Name;
    EXPECT_EQ(RA.Evaluations, It->second.Evaluations)
        << Context << " " << Name;
    EXPECT_EQ(RA.FinalNodes, It->second.FinalNodes) << Context << " " << Name;
  }
}

TEST(ParallelSccTest, MultiSccSystemsBitIdenticalAcrossThreadCounts) {
  for (gen::MultiSccStyle Style :
       {gen::MultiSccStyle::Graph, gen::MultiSccStyle::Lockstep}) {
    gen::MultiSccParams P;
    P.Style = Style;
    P.Relations = 5;
    P.Bits = 4;
    P.ExtraEdges = 6;
    P.Seed = 13;
    std::string Src = gen::multiSccFixpointSystem(P);
    DiagnosticEngine Diags;
    std::vector<fpc::Fact> Facts;
    auto Sys = fpc::parseSystem(Src, Diags, &Facts);
    ASSERT_TRUE(Sys) << Diags.str();

    std::string Ctx =
        Style == gen::MultiSccStyle::Graph ? "graph" : "lockstep";
    FpSolve Base = solveRoot(*Sys, Facts, 1);
    EXPECT_EQ(Base.SccsParallel, 0u);
    for (unsigned Threads : {2u, 4u}) {
      FpSolve Par = solveRoot(*Sys, Facts, Threads);
      // Exact value equality, cross-manager: import into the baseline
      // manager and compare canonical nodes.
      BddImporter Imp(*Par.Mgr, *Base.Mgr);
      EXPECT_EQ(Imp.import(Par.Root), Base.Root)
          << Ctx << " threads=" << Threads;
      expectSameRelStats(Base.Stats, Par.Stats,
                         Ctx + " threads=" + std::to_string(Threads));
      EXPECT_EQ(Par.SccsParallel, uint64_t(P.Relations))
          << Ctx << " threads=" << Threads;
    }
  }
}

TEST(ParallelSccTest, RandomizedSystemsAndRepeatedSolvesAreDeterministic) {
  Rng R(99);
  for (unsigned Round = 0; Round < 3; ++Round) {
    gen::MultiSccParams P;
    P.Style = R.flip() ? gen::MultiSccStyle::Graph
                       : gen::MultiSccStyle::Lockstep;
    P.Relations = 2 + unsigned(R.below(5));
    P.Bits = 3 + unsigned(R.below(2));
    P.ExtraEdges = unsigned(R.below(8));
    P.Seed = R.next();
    std::string Src = gen::multiSccFixpointSystem(P);
    DiagnosticEngine Diags;
    std::vector<fpc::Fact> Facts;
    auto Sys = fpc::parseSystem(Src, Diags, &Facts);
    ASSERT_TRUE(Sys) << Diags.str();

    FpSolve Base = solveRoot(*Sys, Facts, 1);
    FpSolve A = solveRoot(*Sys, Facts, 4);
    FpSolve B = solveRoot(*Sys, Facts, 4);
    BddImporter ImpA(*A.Mgr, *Base.Mgr);
    BddImporter ImpB(*B.Mgr, *Base.Mgr);
    EXPECT_EQ(ImpA.import(A.Root), Base.Root) << "round " << Round;
    EXPECT_EQ(ImpB.import(B.Root), Base.Root) << "round " << Round;
    expectSameRelStats(A.Stats, B.Stats, "repeat run");
  }
}

TEST(ParallelSccTest, RebindAndInvalidateDropWorkerMemos) {
  // Regression test: the persistent worker evaluators must not serve
  // relation values solved under an earlier input binding. The shape is
  // adversarial: M's SCC applies no input *directly* (the binding flows
  // through L), so task seeding alone would never refresh a stale
  // worker-side M.
  using namespace getafix::fpc;
  System Sys;
  DomainId D = Sys.addDomain("D", 8);
  VarId A = Sys.addVar("a", D);
  RelId I = Sys.declareRel("I", {A});
  RelId L = Sys.declareRel("L", {A});
  Sys.define(L, Sys.applyVars(I, {A}));
  RelId M = Sys.declareRel("M", {A});
  Sys.define(M, Sys.mkOr({Sys.applyVars(L, {A}), Sys.applyVars(M, {A})}));
  RelId R2 = Sys.declareRel("R2", {A});
  Sys.define(R2, Sys.mkOr({Sys.eqConst(A, 1), Sys.applyVars(R2, {A})}));
  RelId Root = Sys.declareRel("Root", {A});
  Sys.define(Root,
             Sys.mkOr({Sys.applyVars(M, {A}), Sys.applyVars(R2, {A})}));

  BddManager Mgr;
  Evaluator Ev(Sys, Mgr, Layout::sequential(Sys, Mgr));
  Ev.setThreads(2);
  // Several rebind rounds: task-to-worker placement varies, so one round
  // might miss the stale worker by luck.
  for (uint64_t V = 0; V < 6; ++V) {
    Ev.bindInput(I, Ev.encodeEqConst(A, V));
    Bdd Expected = Ev.encodeEqConst(A, V) | Ev.encodeEqConst(A, 1);
    EXPECT_EQ(Ev.evaluate(Root).Value, Expected) << "rebind to " << V;
  }
  // invalidate() must reach the workers too.
  Ev.invalidate();
  EXPECT_EQ(Ev.evaluate(Root).Value,
            Ev.encodeEqConst(A, 5) | Ev.encodeEqConst(A, 1));
}

TEST(ParallelSccTest, WorkerCachesAreChargedAndCleared) {
  // A session owns its evaluator's per-worker BDD managers besides its
  // main one, each with its own computed cache; the server pool's budget
  // reads them through these gauges, and its valve frees them through
  // `clearWorkerCaches`. The valve must release the caches and nothing
  // the workers still reference.
  gen::MultiSccParams P;
  P.Style = gen::MultiSccStyle::Graph;
  P.Relations = 5;
  P.Bits = 4;
  P.ExtraEdges = 6;
  P.Seed = 13;
  DiagnosticEngine Diags;
  std::vector<fpc::Fact> Facts;
  auto Sys = fpc::parseSystem(gen::multiSccFixpointSystem(P), Diags, &Facts);
  ASSERT_TRUE(Sys) << Diags.str();

  FpSolve S = solveRoot(*Sys, Facts, 2);
  ASSERT_GT(S.SccsParallel, 0u) << "no worker manager was used";
  fpc::Evaluator &Ev = *S.Ev;
  size_t Warm = Ev.workerGauge().bytes();
  size_t Reachable = Ev.workerGauge().Nodes;
  EXPECT_GT(Warm, 0u);

  Ev.clearWorkerCaches();
  EXPECT_LT(Ev.workerGauge().bytes(), Warm);
  EXPECT_EQ(Ev.workerGauge().Nodes, Reachable);

  // The cleared workers solve again, to the same value.
  Ev.invalidate();
  EXPECT_EQ(Ev.evaluate(Sys->relId("Root")).Value, S.Root);
}

//===----------------------------------------------------------------------===//
// Engine differential: threads 1 vs 4 through the Solver facade
//===----------------------------------------------------------------------===//

const char *FixtureBody = R"(
main() begin
  locked := F;
  call work(F);
end
work(nested) begin
  if (locked) then
    ERR: skip;
  else
    locked := T;
  fi
  if (!nested) then
    call work(T);
  fi
  if (locked & !locked) then
    SAFE: skip;
  fi
  locked := F;
end
)";

std::string seqFixture() { return std::string("decl locked;\n") + FixtureBody; }

std::string concFixture() {
  return std::string("shared decl locked;\nthread\n") + FixtureBody + "end\n";
}

/// The observables that must be bit-identical across thread counts.
void expectSameCore(const SolveResult &A, const SolveResult &B,
                    const std::string &Context) {
  EXPECT_EQ(A.Status, B.Status) << Context;
  EXPECT_EQ(A.Reachable, B.Reachable) << Context;
  EXPECT_EQ(A.Iterations, B.Iterations) << Context;
  EXPECT_EQ(A.DeltaRounds, B.DeltaRounds) << Context;
  EXPECT_EQ(A.SummaryNodes, B.SummaryNodes) << Context;
  EXPECT_DOUBLE_EQ(A.ReachStates, B.ReachStates) << Context;
  EXPECT_EQ(A.HasWitness, B.HasWitness) << Context;
  EXPECT_EQ(A.WitnessText, B.WitnessText) << Context;
}

TEST(ParallelEngineTest, AllEnginesThreads1Vs4) {
  for (const api::Engine *E : Solver::engines()) {
    std::string Source =
        E->handlesConcurrent() ? concFixture() : seqFixture();
    for (const char *Label : {"ERR", "SAFE"}) {
      SolverOptions Opts;
      Opts.Engine = E->name();
      Query Q = Query::fromSource(Source).target(Label);
      SolveResult T1 = Solver::solve(Q, Opts);
      Opts.Threads = 4;
      SolveResult T4 = Solver::solve(Q, Opts);
      expectSameCore(T1, T4, std::string(E->name()) + "/" + Label);
    }
  }
}

TEST(ParallelEngineTest, WitnessQueriesIdenticalAcrossThreads) {
  for (const api::Engine *E : Solver::engines()) {
    if (!E->supportsWitness() || E->handlesConcurrent())
      continue;
    SolverOptions Opts;
    Opts.Engine = E->name();
    Query Q = Query::fromSource(seqFixture()).target("ERR").witness();
    SolveResult T1 = Solver::solve(Q, Opts);
    Opts.Threads = 4;
    SolveResult T4 = Solver::solve(Q, Opts);
    expectSameCore(T1, T4, std::string(E->name()) + "/witness");
    EXPECT_TRUE(T4.HasWitness) << E->name();
  }
}

TEST(ParallelEngineTest, GeneratedProgramsIdenticalAcrossThreads) {
  // Generator output (driver + terminator shapes) through the default
  // engines, threads 1 vs 4.
  std::vector<gen::Workload> Cases;
  {
    gen::DriverParams P;
    P.NumProcs = 8;
    P.StmtsPerProc = 8;
    P.Reachable = true;
    P.Seed = 3;
    Cases.push_back(gen::driverProgram(P));
    gen::TerminatorParams T;
    T.CounterBits = 4;
    T.NumDeadVars = 3;
    T.Reachable = false;
    Cases.push_back(gen::terminatorProgram(T));
  }
  for (const gen::Workload &W : Cases) {
    for (const char *EngineName : {"summary", "ef-split", "ef-opt"}) {
      SolverOptions Opts;
      Opts.Engine = EngineName;
      Query Q = Query::fromSource(W.Source).target(W.TargetLabel);
      SolveResult T1 = Solver::solve(Q, Opts);
      Opts.Threads = 4;
      SolveResult T4 = Solver::solve(Q, Opts);
      expectSameCore(T1, T4, W.Name + "/" + EngineName);
      if (W.ExpectKnown) {
        EXPECT_EQ(T4.Reachable, W.ExpectReachable) << W.Name;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Sessions under Threads > 1
//===----------------------------------------------------------------------===//

TEST(ParallelSessionTest, SessionsBitIdenticalAcrossThreadsAndReuse) {
  for (const api::Engine *E : Solver::engines()) {
    std::string Source =
        E->handlesConcurrent() ? concFixture() : seqFixture();
    std::vector<Query> Queries;
    for (const char *Label : {"ERR", "SAFE", "ERR"})
      Queries.push_back(Query::fromSource("").target(Label));

    SolverOptions T1Opts;
    T1Opts.Engine = E->name();
    SolverOptions T4Opts = T1Opts;
    T4Opts.Threads = 4;

    // Fresh per-query baselines at threads 1.
    std::vector<SolveResult> Fresh;
    for (const Query &Q : Queries) {
      Query FQ = Q;
      FQ.Source = Source;
      Fresh.push_back(Solver::solve(FQ, T1Opts));
      ASSERT_TRUE(Fresh.back().ok()) << E->name();
    }

    auto Session = Solver::open(Query::fromSource(Source), T4Opts);
    ASSERT_TRUE(Session->ok()) << E->name() << ": " << Session->error();
    // Individual solves, then a solveAll batch on a second session.
    for (size_t I = 0; I < Queries.size(); ++I) {
      SolveResult R = Session->solve(Queries[I]);
      expectSameCore(Fresh[I], R, std::string(E->name()) + "/t4-session");
    }
    auto Batch = Solver::open(Query::fromSource(Source), T4Opts);
    ASSERT_TRUE(Batch->ok());
    std::vector<SolveResult> All = Batch->solveAll(Queries);
    ASSERT_EQ(All.size(), Queries.size());
    for (size_t I = 0; I < All.size(); ++I)
      expectSameCore(Fresh[I], All[I],
                     std::string(E->name()) + "/t4-solveAll");
  }
}

TEST(ParallelSessionTest, MidSessionCacheClearStaysIdentical) {
  SolverOptions Opts;
  Opts.Engine = "ef-split";
  Opts.Threads = 4;
  auto Session = Solver::open(Query::fromSource(seqFixture()), Opts);
  ASSERT_TRUE(Session->ok());
  SolveResult A = Session->solve(Query::fromSource("").target("ERR"));
  Session->clearComputedCache();
  SolveResult B = Session->solve(Query::fromSource("").target("SAFE"));

  SolverOptions Seq = Opts;
  Seq.Threads = 1;
  SolveResult FA =
      Solver::solve(Query::fromSource(seqFixture()).target("ERR"), Seq);
  SolveResult FB =
      Solver::solve(Query::fromSource(seqFixture()).target("SAFE"), Seq);
  expectSameCore(FA, A, "clear/ERR");
  expectSameCore(FB, B, "clear/SAFE");
}

} // namespace

//===----------------------------------------------------------------------===//
// summary-scc (the per-SCC split) under the parallel scheduler
//===----------------------------------------------------------------------===//

/// summary-scc's whole point: at Threads=4 its per-SCC relations are
/// independent dependency SCCs, so the scheduler dispatches real work —
/// and the answer stays bit-identical to the single-threaded solve, with
/// the verdict every paper engine gives at either thread count.
TEST(SplitSummaryParallelTest, SccGivesSchedulerWidthAndStaysIdentical) {
  gen::TerminatorParams T;
  T.CounterBits = 4;
  T.NumDeadVars = 3;
  T.Reachable = false;
  gen::Workload W = gen::terminatorProgram(T);
  Query Q = Query::fromSource(W.Source).target(W.TargetLabel);

  SolverOptions Scc1;
  Scc1.Engine = "summary-scc";
  SolveResult S1 = Solver::solve(Q, Scc1);
  ASSERT_TRUE(S1.ok());
  EXPECT_GT(S1.CondensationWidth, 4u);

  SolverOptions Scc4 = Scc1;
  Scc4.Threads = 4;
  SolveResult S4 = Solver::solve(Q, Scc4);
  expectSameCore(S1, S4, "summary-scc/1v4");
  // Real width reaches the pool: independent summary SCCs get dispatched
  // instead of one serialized chain.
  EXPECT_GT(S4.SccsSolvedParallel, 0u);
  EXPECT_EQ(S4.SummaryRelations, S4.CondensationWidth);

  for (const char *Engine : {"summary", "ef", "ef-split", "ef-opt"})
    for (unsigned Threads : {1u, 4u}) {
      SolverOptions Opts;
      Opts.Engine = Engine;
      Opts.Threads = Threads;
      SolveResult R = Solver::solve(Q, Opts);
      std::string Ctx = std::string(Engine) + "/t" + std::to_string(Threads);
      ASSERT_TRUE(R.ok()) << Ctx;
      EXPECT_EQ(R.Reachable, S1.Reachable) << Ctx;
      EXPECT_EQ(R.SummaryRelations, 1u) << Ctx;
    }
}

/// summary-scc sessions across thread counts: per-query answers must match
/// every paper engine's session bit for bit, including witnesses.
TEST(SplitSummaryParallelTest, SccSessionsMatchPaperEnginesAcrossThreads) {
  gen::TerminatorParams T;
  T.CounterBits = 3;
  T.NumDeadVars = 2;
  T.Reachable = true;
  T.LabeledCheckpoints = 1;
  gen::Workload W = gen::terminatorProgram(T);

  std::vector<Query> Queries;
  for (const char *Label : {"CP0", "ERR", "DEAD0", "ERR"})
    Queries.push_back(Query::fromSource("").target(Label));
  // One witness query on the reachable target exercises summary-scc's
  // owned witness sub-session.
  Queries.push_back(Query::fromSource("").target("ERR").witness(true));

  for (unsigned Threads : {1u, 4u}) {
    SolverOptions Opts;
    Opts.Engine = "summary-scc";
    Opts.Threads = Threads;
    auto Scc = Solver::open(Query::fromSource(W.Source), Opts);
    ASSERT_TRUE(Scc->ok());
    std::vector<SolveResult> Want;
    for (const Query &Q : Queries) {
      Want.push_back(Scc->solve(Q));
      ASSERT_TRUE(Want.back().ok()) << Q.Label;
    }

    for (const char *Engine : {"summary", "ef", "ef-split", "ef-opt"}) {
      Opts.Engine = Engine;
      auto Session = Solver::open(Query::fromSource(W.Source), Opts);
      ASSERT_TRUE(Session->ok()) << Engine;
      for (size_t I = 0; I < Queries.size(); ++I) {
        SolveResult R = Session->solve(Queries[I]);
        std::string Ctx = std::string(Engine) + "/t" +
                          std::to_string(Threads) + "/" + Queries[I].Label;
        ASSERT_TRUE(R.ok()) << Ctx;
        EXPECT_EQ(R.Reachable, Want[I].Reachable) << Ctx;
        EXPECT_EQ(R.HasWitness, Want[I].HasWitness) << Ctx;
        EXPECT_EQ(R.WitnessText, Want[I].WitnessText) << Ctx;
      }
    }
  }
}

namespace {

/// This process's threads, from /proc/self/task; given \p Want, once the
/// count has fallen to it or after a second. A joined thread may stay
/// listed for a moment after `join` returns: the kernel wakes the joiner
/// before it unlists the exited thread.
size_t processThreads(size_t Want = SIZE_MAX) {
  auto Count = [] {
    namespace fs = std::filesystem;
    return size_t(std::distance(fs::directory_iterator("/proc/self/task"),
                                fs::directory_iterator()));
  };
  size_t N = Count();
  for (int I = 0; I < 100 && N > Want; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    N = Count();
  }
  return N;
}

} // namespace

/// A summary-scc session solves its chain on the pool, as the one-shot
/// solve does: the first query dispatches the one-shot's SCC tasks, every
/// answer and witness matches the one-thread session, and the pool's
/// threads end with the query that started them.
TEST(SplitSummaryParallelTest, SccSessionsSolveOnThePool) {
  gen::TerminatorParams T;
  T.CounterBits = 4;
  T.NumDeadVars = 3;
  T.LabeledCheckpoints = 1;
  gen::Workload W = gen::terminatorProgram(T);

  SolverOptions Opts;
  Opts.Engine = "summary-scc";
  Opts.Threads = 4;
  SolveResult OneShot =
      Solver::solve(Query::fromSource(W.Source).target("CP0"), Opts);
  ASSERT_TRUE(OneShot.ok()) << OneShot.Error;
  ASSERT_GT(OneShot.SccsSolvedParallel, 0u);

  std::vector<Query> Queries;
  for (const char *Label : {"CP0", "ERR", "DEAD0"})
    Queries.push_back(Query::fromSource("").target(Label));
  Queries.push_back(Query::fromSource("").target("ERR").witness(true));

  SolverOptions Seq = Opts;
  Seq.Threads = 1;
  auto One = Solver::open(Query::fromSource(W.Source), Seq);
  ASSERT_TRUE(One->ok()) << One->error();
  const size_t Before = processThreads();
  auto Four = Solver::open(Query::fromSource(W.Source), Opts);
  ASSERT_TRUE(Four->ok()) << Four->error();
  for (size_t I = 0; I < Queries.size(); ++I) {
    std::string Ctx =
        Queries[I].Label + (Queries[I].WantWitness ? "/witness" : "");
    SolveResult Want = One->solve(Queries[I]);
    SolveResult Got = Four->solve(Queries[I]);
    ASSERT_TRUE(Got.ok()) << Ctx << ": " << Got.Error;
    expectSameCore(Want, Got, Ctx);
    // The first query solves the chain; later ones answer from it.
    EXPECT_EQ(Got.SccsSolvedParallel,
              I == 0 ? OneShot.SccsSolvedParallel : 0u)
        << Ctx;
    EXPECT_EQ(processThreads(Before), Before) << Ctx;
  }
}
