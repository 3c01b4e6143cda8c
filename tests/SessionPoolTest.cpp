//===- SessionPoolTest.cpp - Memory-budgeted session pool tests ----------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The getafixd session pool's contract: eviction and reopening are
/// invisible to verdicts (bit-identical to a fresh solve), LRU order
/// decides who goes first under a tiny budget, the computed-cache valve
/// fires before any eviction, and concurrent acquires of one program
/// serialize on its single session without mixing programs up.
///
//===----------------------------------------------------------------------===//

#include "server/SessionPool.h"

#include "gen/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace getafix;
using server::PoolOptions;
using server::PoolStats;
using server::SessionPool;

namespace {

/// The SessionTest lock-discipline fixture: ERR reachable, SAFE not.
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

SessionPool::SourceLoader loaderFor(const std::string &Source) {
  return [Source](std::string &Out, std::string &) {
    Out = Source;
    return true;
  };
}

api::SolveResult solveTarget(api::SolverSession &S, const std::string &Label) {
  return S.solve(api::Query::fromSource("").target(Label));
}

/// A family of distinct generated programs (different seeds), each with a
/// known ERR verdict, to populate the pool with many sessions.
std::string driverSource(unsigned Seed, bool Reachable) {
  gen::DriverParams P;
  P.NumProcs = 6;
  P.NumGlobals = 3;
  P.LocalsPerProc = 2;
  P.StmtsPerProc = 6;
  P.Reachable = Reachable;
  P.Seed = Seed;
  return gen::driverProgram(P).Source;
}

/// The observables the bit-identical contract covers.
void expectSameCore(const api::SolveResult &A, const api::SolveResult &B,
                    const char *Context) {
  EXPECT_EQ(A.Status, B.Status) << Context;
  EXPECT_EQ(A.Reachable, B.Reachable) << Context;
  EXPECT_EQ(A.Iterations, B.Iterations) << Context;
  EXPECT_EQ(A.SummaryNodes, B.SummaryNodes) << Context;
  EXPECT_EQ(A.WitnessText, B.WitnessText) << Context;
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite: session memory introspection
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, FootprintAccessorsReportSolverState) {
  auto S = api::Solver::open(api::Query::fromSource(seqFixture()), {});
  ASSERT_TRUE(S->ok());
  EXPECT_TRUE(solveTarget(*S, "ERR").Reachable);

  EXPECT_GT(S->liveNodes(), 0u);
  EXPECT_GE(S->peakLiveNodes(), S->liveNodes());
  size_t Warm = S->memoryFootprint();
  EXPECT_GT(Warm, 0u);

  // Clearing releases the computed cache, so the estimate drops by its
  // size — that drop is what makes the pool's phase-1 valve meaningful —
  // and the next solve re-allocates it.
  S->clearComputedCache();
  size_t Cold = S->memoryFootprint();
  EXPECT_LT(Cold, Warm);
  EXPECT_FALSE(solveTarget(*S, "SAFE").Reachable);
  EXPECT_GT(S->memoryFootprint(), Cold);
}

//===----------------------------------------------------------------------===//
// Pool basics
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, AcquireOpensOnceAndHitsAfter) {
  SessionPool Pool({});
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    EXPECT_FALSE(L.reopened());
    EXPECT_TRUE(solveTarget(L.session(), "ERR").Reachable);
  }
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    EXPECT_FALSE(L.reopened());
    EXPECT_FALSE(solveTarget(L.session(), "SAFE").Reachable);
    // The second query reuses the state the first one solved.
    EXPECT_GE(L.session().stats().Queries, 2u);
  }
  PoolStats PS = Pool.stats();
  EXPECT_EQ(PS.Lookups, 2u);
  EXPECT_EQ(PS.Opens, 1u);
  EXPECT_EQ(PS.Hits, 1u);
  EXPECT_EQ(PS.Reopens, 0u);
  EXPECT_EQ(PS.ResidentSessions, 1u);
  EXPECT_GT(PS.FootprintBytes, 0u);
}

TEST(SessionPoolTest, LoaderFailureIsAnErrorLeaseNotFatal) {
  SessionPool Pool({});
  {
    SessionPool::Lease L = Pool.acquire(
        "missing", [](std::string &, std::string &Err) {
          Err = "no such program";
          return false;
        });
    EXPECT_FALSE(L.ok());
    EXPECT_EQ(L.error(), "no such program");
  }
  // The key is retried with a working loader afterwards.
  SessionPool::Lease L = Pool.acquire("missing", loaderFor(seqFixture()));
  ASSERT_TRUE(L.ok());
  EXPECT_TRUE(solveTarget(L.session(), "ERR").Reachable);
}

//===----------------------------------------------------------------------===//
// Eviction and reopening
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, EvictionThenReopenIsBitIdenticalToFresh) {
  api::SolveResult Fresh =
      api::Solver::solve(api::Query::fromSource(seqFixture()).target("ERR"),
                         api::SolverOptions());
  ASSERT_TRUE(Fresh.ok());

  SessionPool Pool({});
  api::SolveResult Before;
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    Before = solveTarget(L.session(), "ERR");
  }
  ASSERT_TRUE(Pool.isResident("fixture"));
  EXPECT_TRUE(Pool.evict("fixture"));
  EXPECT_FALSE(Pool.isResident("fixture"));

  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    EXPECT_TRUE(L.reopened());
    api::SolveResult After = solveTarget(L.session(), "ERR");
    expectSameCore(Fresh, Before, "pre-eviction vs fresh");
    expectSameCore(Fresh, After, "post-reopen vs fresh");
  }
  PoolStats PS = Pool.stats();
  EXPECT_EQ(PS.Opens, 1u);
  EXPECT_EQ(PS.Reopens, 1u);
  EXPECT_EQ(PS.Evictions, 1u);
}

TEST(SessionPoolTest, MaxSessionsEvictsLeastRecentlyUsed) {
  PoolOptions Opts;
  Opts.MaxResidentSessions = 2;
  SessionPool Pool(Opts);

  auto Touch = [&Pool](const std::string &Key, const std::string &Src) {
    SessionPool::Lease L = Pool.acquire(Key, loaderFor(Src));
    ASSERT_TRUE(L.ok());
    EXPECT_TRUE(solveTarget(L.session(), "ERR").ok());
  };

  std::string A = driverSource(1, true), B = driverSource(2, false),
              C = driverSource(3, true), D = driverSource(4, false);
  Touch("A", A);
  Touch("B", B);
  Touch("C", C); // Over the cap: A (LRU) must go.
  EXPECT_FALSE(Pool.isResident("A"));
  EXPECT_TRUE(Pool.isResident("B"));
  EXPECT_TRUE(Pool.isResident("C"));
  EXPECT_EQ(Pool.residentLru(), (std::vector<std::string>{"B", "C"}));

  Touch("B", B); // B becomes most-recent; C is now LRU.
  Touch("D", D); // Over the cap again: C must go, not B.
  EXPECT_FALSE(Pool.isResident("C"));
  EXPECT_TRUE(Pool.isResident("B"));
  EXPECT_TRUE(Pool.isResident("D"));
  EXPECT_EQ(Pool.residentLru(), (std::vector<std::string>{"B", "D"}));
  EXPECT_EQ(Pool.stats().Evictions, 2u);
}

TEST(SessionPoolTest, CacheClearValveFiresBeforeEviction) {
  // Measure the fixture's warm (cache allocated) and cold (cache
  // released) footprints outside the pool.
  size_t Warm, Cold;
  {
    auto S = api::Solver::open(api::Query::fromSource(seqFixture()), {});
    ASSERT_TRUE(S->ok());
    solveTarget(*S, "ERR");
    Warm = S->memoryFootprint();
    S->clearComputedCache();
    Cold = S->memoryFootprint();
  }
  ASSERT_GT(Warm, Cold);

  // Two copies of the program (distinct keys force distinct sessions)
  // under a budget that two cold sessions fit but any warm session
  // busts: the valve alone must bring the pool under budget — no
  // eviction.
  PoolOptions Opts;
  Opts.MemoryBudgetBytes = 2 * Cold + (Warm - Cold) / 2;
  SessionPool Pool(Opts);
  for (const char *Key : {"copy1", "copy2"}) {
    SessionPool::Lease L = Pool.acquire(Key, loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    EXPECT_TRUE(solveTarget(L.session(), "ERR").Reachable);
  }

  PoolStats PS = Pool.stats();
  EXPECT_GE(PS.CacheClears, 1u);
  EXPECT_EQ(PS.Evictions, 0u);
  EXPECT_TRUE(Pool.isResident("copy1"));
  EXPECT_TRUE(Pool.isResident("copy2"));
  EXPECT_LE(PS.FootprintBytes, Opts.MemoryBudgetBytes);

  // Verdicts are unaffected by the valve.
  SessionPool::Lease L = Pool.acquire("copy1", loaderFor(seqFixture()));
  ASSERT_TRUE(L.ok());
  EXPECT_FALSE(L.reopened());
  EXPECT_FALSE(solveTarget(L.session(), "SAFE").Reachable);
}

TEST(SessionPoolTest, BudgetSeesMidLeaseGrowthThroughTheGauge) {
  // The regression this pins: the pool used to budget on footprints
  // cached at lease *release*, so a session that grew during a later
  // lease (here: a witness query arriving on an already-open session)
  // was charged at its old, small number until that lease ended — and
  // the valve made under-reclaiming decisions on the stale sample. The
  // enforcement path must instead re-sample every resident entry, via
  // the session's lock-free gauge when the entry is leased out.
  std::string ASrc = driverSource(21, true);
  std::string BSrc = seqFixture();

  // Deterministic footprints, measured outside the pool: A after one
  // cheap early-stopped query, A after the witness query that completes
  // the solve, and B warm.
  size_t ASmall, ABig, BFoot;
  {
    auto S = api::Solver::open(api::Query::fromSource(ASrc), {});
    ASSERT_TRUE(S->ok());
    ASSERT_TRUE(solveTarget(*S, "ERR").Reachable);
    ASmall = S->memoryFootprint();
    ASSERT_TRUE(
        S->solve(api::Query::fromSource("").target("ERR").witness()).ok());
    ABig = S->memoryFootprint();
  }
  {
    auto S = api::Solver::open(api::Query::fromSource(BSrc), {});
    ASSERT_TRUE(S->ok());
    ASSERT_TRUE(solveTarget(*S, "ERR").Reachable);
    BFoot = S->memoryFootprint();
  }
  ASSERT_GT(ABig, ASmall);

  // Small-A plus B fits with margin; grown-A plus B does not.
  PoolOptions Opts;
  Opts.MemoryBudgetBytes = ASmall + BFoot + (ABig - ASmall) / 2;
  SessionPool Pool(Opts);

  // Prime A and release: the release-time sample is the small number.
  {
    SessionPool::Lease LA = Pool.acquire("A", loaderFor(ASrc));
    ASSERT_TRUE(LA.ok());
    EXPECT_TRUE(solveTarget(LA.session(), "ERR").Reachable);
  }
  EXPECT_EQ(Pool.stats().CacheClears + Pool.stats().Evictions, 0u);

  // Grow A mid-lease and keep holding the lease; only the session's own
  // gauge knows the new size.
  SessionPool::Lease LA = Pool.acquire("A", loaderFor(ASrc));
  ASSERT_TRUE(LA.ok());
  ASSERT_TRUE(
      LA.session()
          .solve(api::Query::fromSource("").target("ERR").witness())
          .ok());

  // B's release runs budget enforcement while A is still leased out. On
  // the stale release-time numbers the pool would see small-A + B, stay
  // "under budget", and do nothing; through the gauge it must see the
  // growth and reclaim.
  {
    SessionPool::Lease LB = Pool.acquire("B", loaderFor(BSrc));
    ASSERT_TRUE(LB.ok());
    EXPECT_TRUE(solveTarget(LB.session(), "ERR").Reachable);
  }
  PoolStats PS = Pool.stats();
  EXPECT_GE(PS.CacheClears + PS.Evictions, 1u);
  // The refreshed accounting carries A at its grown size.
  EXPECT_GE(PS.FootprintBytes, ABig);
}

TEST(SessionPoolTest, ImpossibleBudgetClearsThenEvictsThenReopens) {
  // A one-byte budget: the valve fires first (phase 1), cannot help, and
  // the session is evicted (phase 2). The next acquire reopens and the
  // verdict is unchanged.
  PoolOptions Opts;
  Opts.MemoryBudgetBytes = 1;
  SessionPool Pool(Opts);
  api::SolveResult Before;
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    Before = solveTarget(L.session(), "ERR");
  }
  PoolStats PS = Pool.stats();
  EXPECT_GE(PS.CacheClears, 1u);
  EXPECT_GE(PS.Evictions, 1u);
  EXPECT_FALSE(Pool.isResident("fixture"));

  SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
  ASSERT_TRUE(L.ok());
  EXPECT_TRUE(L.reopened());
  expectSameCore(Before, solveTarget(L.session(), "ERR"), "after reopen");
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, ConcurrentClientsShareOneSession) {
  SessionPool Pool({});
  const unsigned Threads = 4, Rounds = 3;
  std::vector<std::thread> Ts;
  std::vector<int> BadVerdicts(Threads, 0);
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&Pool, &BadVerdicts, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        SessionPool::Lease L =
            Pool.acquire("fixture", loaderFor(seqFixture()));
        if (!L.ok()) {
          ++BadVerdicts[T];
          continue;
        }
        if (!solveTarget(L.session(), "ERR").Reachable)
          ++BadVerdicts[T];
        if (solveTarget(L.session(), "SAFE").Reachable)
          ++BadVerdicts[T];
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(BadVerdicts[T], 0) << "thread " << T;

  PoolStats PS = Pool.stats();
  EXPECT_EQ(PS.Opens, 1u); // One session, shared by every client.
  EXPECT_EQ(PS.Lookups, uint64_t(Threads) * Rounds);
  EXPECT_EQ(PS.Hits, uint64_t(Threads) * Rounds - 1);
}

TEST(SessionPoolTest, ConcurrentClientsUnderPressureKeepVerdictsApart) {
  // Four clients over four distinct programs with room for only two
  // resident sessions: evictions and reopenings race with solves, but
  // every program must keep its own verdict.
  PoolOptions Opts;
  Opts.MaxResidentSessions = 2;
  SessionPool Pool(Opts);

  struct Prog {
    std::string Key, Src;
    bool Reachable;
  };
  std::vector<Prog> Progs;
  for (unsigned I = 0; I < 4; ++I)
    Progs.push_back({"p" + std::to_string(I), driverSource(10 + I, I % 2 == 0),
                     I % 2 == 0});

  std::vector<std::thread> Ts;
  std::vector<int> Failures(Progs.size(), 0);
  for (unsigned T = 0; T < Progs.size(); ++T)
    Ts.emplace_back([&Pool, &Progs, &Failures, T] {
      for (unsigned R = 0; R < 4; ++R) {
        // Each thread walks all programs, starting from its own.
        const Prog &P = Progs[(T + R) % Progs.size()];
        SessionPool::Lease L = Pool.acquire(P.Key, loaderFor(P.Src));
        if (!L.ok()) {
          ++Failures[T];
          continue;
        }
        api::SolveResult Res = solveTarget(L.session(), "ERR");
        if (!Res.ok() || Res.Reachable != P.Reachable)
          ++Failures[T];
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (unsigned T = 0; T < Progs.size(); ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
  EXPECT_LE(Pool.stats().ResidentSessions, 2u);
}

TEST(SessionPoolTest, EvictAllDropsEverything) {
  SessionPool Pool({});
  for (const char *Key : {"a", "b", "c"}) {
    SessionPool::Lease L =
        Pool.acquire(Key, loaderFor(driverSource(Key[0], true)));
    ASSERT_TRUE(L.ok());
    solveTarget(L.session(), "ERR");
  }
  EXPECT_EQ(Pool.stats().ResidentSessions, 3u);
  EXPECT_EQ(Pool.evictAll(), 3u);
  EXPECT_EQ(Pool.stats().ResidentSessions, 0u);
  EXPECT_EQ(Pool.stats().FootprintBytes, 0u);
  // Entries survive eviction; the next acquire is a reopen, not an open.
  SessionPool::Lease L =
      Pool.acquire("a", loaderFor(driverSource('a', true)));
  ASSERT_TRUE(L.ok());
  EXPECT_TRUE(L.reopened());
}

//===----------------------------------------------------------------------===//
// Poisoned-lease eviction (fault containment)
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, PoisonedLeaseIsEvictedEagerlyAndNeverReused) {
  SessionPool Pool({});
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    EXPECT_TRUE(solveTarget(L.session(), "ERR").Reachable);
    // A fault escaped this session (simulated): mark the lease poisoned.
    // Release must destroy the session instead of returning it.
    L.markPoisoned();
  }
  EXPECT_FALSE(Pool.isResident("fixture"));
  PoolStats PS = Pool.stats();
  EXPECT_EQ(PS.PoisonedEvictions, 1u);
  // Poisoned eviction is accounted separately from budget eviction.
  EXPECT_EQ(PS.Evictions, 0u);
  EXPECT_EQ(PS.ResidentSessions, 0u);
  EXPECT_EQ(PS.FootprintBytes, 0u);
}

TEST(SessionPoolTest, ReopenAfterPoisonedEvictionIsBitIdenticalToFresh) {
  api::SolveResult Fresh =
      api::Solver::solve(api::Query::fromSource(seqFixture()).target("ERR"),
                         api::SolverOptions());
  ASSERT_TRUE(Fresh.ok());

  SessionPool Pool({});
  {
    SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
    ASSERT_TRUE(L.ok());
    solveTarget(L.session(), "ERR");
    L.markPoisoned();
  }
  SessionPool::Lease L = Pool.acquire("fixture", loaderFor(seqFixture()));
  ASSERT_TRUE(L.ok());
  EXPECT_TRUE(L.reopened());
  api::SolveResult After = solveTarget(L.session(), "ERR");
  expectSameCore(Fresh, After, "post-poisoned-reopen vs fresh");
  EXPECT_EQ(Pool.stats().PoisonedEvictions, 1u);
  EXPECT_EQ(Pool.stats().Reopens, 1u);
}
