//===- bench_bdd.cpp - BDD package micro-benchmarks ------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
// google-benchmark microbenchmarks of the BDD substrate: the operations the
// solver's inner loop lives on (apply, relational product, renaming,
// quantification, garbage collection).
//
// Input construction note: the random functions are disjunctions of cubes
// whose supports are *clustered* (a short window of adjacent variables).
// Scattered supports make a DNF's BDD exponential in the number of cubes —
// a property of BDDs, not of this package — which would benchmark the
// blowup instead of the operations.
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "support/Rng.h"

#include <array>
#include <benchmark/benchmark.h>
#include <mutex>
#include <vector>

using namespace getafix;

namespace {

/// A pseudo-random function over variables [Lo, Hi): an OR of \p Terms
/// cubes, each over a window of adjacent variables (locality keeps the
/// BDD linear in Terms, like the transition relations the solver builds).
Bdd randomFunction(BddManager &Mgr, Rng &R, unsigned Lo, unsigned Hi,
                   unsigned Terms) {
  Bdd F = Mgr.zero();
  for (unsigned T = 0; T < Terms; ++T) {
    unsigned Window = Lo + unsigned(R.below(Hi - Lo - 4));
    Bdd Cube = Mgr.one();
    for (unsigned I = 0; I < 4; ++I) {
      unsigned V = Window + I;
      Cube &= R.flip() ? Mgr.var(V) : Mgr.nvar(V);
    }
    F |= Cube;
  }
  return F;
}

void BM_BddApplyAnd(benchmark::State &State) {
  BddManager Mgr(64);
  Rng R(1);
  Bdd A = randomFunction(Mgr, R, 0, 64, 48);
  Bdd B = randomFunction(Mgr, R, 0, 64, 48);
  for (auto _ : State) {
    benchmark::DoNotOptimize(A & B);
  }
}
BENCHMARK(BM_BddApplyAnd);

void BM_BddRelationalProduct(benchmark::State &State) {
  // Image computation shape: T(x, x') over interleaved vars (current =
  // even, next = odd levels), S(x) over the current vars.
  BddManager Mgr(64);
  Rng R(2);
  Bdd Trans = Mgr.zero();
  for (unsigned I = 0; I < 24; ++I) {
    unsigned Window = 2 * unsigned(R.below(28));
    Bdd Term = Mgr.one();
    for (unsigned V = 0; V < 4; ++V) {
      unsigned Cur = Window + 2 * V;
      Term &= R.flip() ? Mgr.var(Cur) : Mgr.nvar(Cur);
      Term &= R.flip() ? Mgr.var(Cur + 1) : Mgr.nvar(Cur + 1);
    }
    Trans |= Term;
  }
  Bdd States = randomFunction(Mgr, R, 0, 32, 16);
  std::vector<unsigned> CurVars;
  for (unsigned V = 0; V < 64; V += 2)
    CurVars.push_back(V);
  BddCube Cube = Mgr.makeCube(CurVars);
  for (auto _ : State) {
    benchmark::DoNotOptimize(States.andExists(Trans, Cube));
  }
}
BENCHMARK(BM_BddRelationalProduct);

/// A relation application under `exists`, the shape of every clause of
/// the paper's systems: exists x. (S[s := x] & T(x, s)), with S over the
/// formals s (even levels) renamed onto the copies x (odd levels, each
/// right after its formal, so the rename keeps the order) and T over
/// both. Arg 1 takes the fused product (`andExistsRenamed`), arg 0 builds
/// the renamed copy and then takes `andExists`. Every iteration starts
/// with a cold cache and no leftover nodes (collected outside the timed
/// region), and reports the nodes one product creates.
void BM_BddAndExistsRenamed(benchmark::State &State) {
  const bool Fused = State.range(0) != 0;
  const unsigned NumVars = 128;
  BddManager Mgr(NumVars);
  Rng R(4);
  Bdd S = Mgr.zero(), T = Mgr.zero();
  for (unsigned I = 0; I < 96; ++I) {
    unsigned Window = 2 * unsigned(R.below(NumVars / 2 - 4));
    Bdd STerm = Mgr.one(), TTerm = Mgr.one();
    for (unsigned V = 0; V < 4; ++V) {
      unsigned Formal = Window + 2 * V;
      STerm &= R.flip() ? Mgr.var(Formal) : Mgr.nvar(Formal);
      TTerm &= R.flip() ? Mgr.var(Formal) : Mgr.nvar(Formal);
      TTerm &= R.flip() ? Mgr.var(Formal + 1) : Mgr.nvar(Formal + 1);
    }
    S |= STerm;
    T |= TTerm;
  }
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  std::vector<unsigned> Copies;
  for (unsigned V = 0; V < NumVars; V += 2) {
    Pairs.emplace_back(V, V + 1);
    Copies.push_back(V + 1);
  }
  BddPerm Perm = Mgr.makePermutation(Pairs);
  BddCube Cube = Mgr.makeCube(Copies);
  const uint64_t Before = Mgr.stats().NodesCreated;
  for (auto _ : State) {
    State.PauseTiming();
    Mgr.gc(); // Creates no node.
    Mgr.clearComputedCache();
    benchmark::DoNotOptimize(!Mgr.one()); // Operation entry re-allocates.
    State.ResumeTiming();
    if (Fused)
      benchmark::DoNotOptimize(S.andExistsRenamed(Perm, T, Cube));
    else
      benchmark::DoNotOptimize(S.permute(Perm).andExists(T, Cube));
  }
  State.counters["nodes"] =
      benchmark::Counter(double(Mgr.stats().NodesCreated - Before),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BddAndExistsRenamed)->ArgName("fused")->Arg(0)->Arg(1);

/// Renames F (over variables 0..31) by \p Target(V) with a cold computed
/// cache: the cache is released and re-allocated outside the timed region,
/// so every iteration times the whole traversal rather than one hit at the
/// root. Reports the `ite` probes one rename makes.
void renameCold(benchmark::State &State, unsigned (*Target)(unsigned)) {
  BddManager Mgr(64);
  Rng R(3);
  Bdd F = randomFunction(Mgr, R, 0, 32, 32);
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned V = 0; V < 32; ++V)
    Pairs.emplace_back(V, Target(V));
  BddPerm Perm = Mgr.makePermutation(Pairs);
  const uint64_t IteBefore = Mgr.stats().OpLookups[unsigned(BddOp::Ite)];
  for (auto _ : State) {
    State.PauseTiming();
    Mgr.clearComputedCache();
    benchmark::DoNotOptimize(!Mgr.one()); // Operation entry re-allocates.
    State.ResumeTiming();
    benchmark::DoNotOptimize(F.permute(Perm));
  }
  State.counters["ite_probes"] = benchmark::Counter(
      double(Mgr.stats().OpLookups[unsigned(BddOp::Ite)] - IteBefore),
      benchmark::Counter::kAvgIterations);
}

/// A shift onto 32..63 keeps the order: every node is built directly.
void BM_BddRenameOrderKeeping(benchmark::State &State) {
  renameCold(State, [](unsigned V) { return V + 32; });
}
BENCHMARK(BM_BddRenameOrderKeeping);

/// A reversal onto 63..32 reorders every node: the ite fallback.
void BM_BddRenameReordering(benchmark::State &State) {
  renameCold(State, [](unsigned V) { return 63 - V; });
}
BENCHMARK(BM_BddRenameReordering);

void BM_BddExists(benchmark::State &State) {
  BddManager Mgr(64);
  Rng R(4);
  Bdd F = randomFunction(Mgr, R, 0, 64, 64);
  std::vector<unsigned> Vars;
  for (unsigned V = 0; V < 64; V += 3)
    Vars.push_back(V);
  BddCube Cube = Mgr.makeCube(Vars);
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.exists(Cube));
  }
}
BENCHMARK(BM_BddExists);

/// Cache-associativity ablation: the same op mix at the same slot budget,
/// direct-mapped versus 4-way. The cache starts at 2^10 slots and stays at
/// a quarter of the unique table's slots as the function pool grows the
/// table; the working set (several relational products cycling through
/// the pool) exceeds it, so replacement policy, not capacity, is what
/// differs.
void CacheAssociativity(benchmark::State &State, unsigned Ways) {
  BddManager Mgr(64, /*CacheShift=*/2, Ways);
  Rng R(6);
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 8; ++I)
    Pool.push_back(randomFunction(Mgr, R, 0, 64, 40));
  std::vector<unsigned> Vars;
  for (unsigned V = 0; V < 64; V += 2)
    Vars.push_back(V);
  BddCube Cube = Mgr.makeCube(Vars);
  unsigned I = 0;
  for (auto _ : State) {
    const Bdd &A = Pool[I % Pool.size()];
    const Bdd &B = Pool[(I + 3) % Pool.size()];
    benchmark::DoNotOptimize(A.andExists(B, Cube));
    ++I;
  }
  State.counters["hit_rate"] = benchmark::Counter(
      Mgr.stats().CacheLookups
          ? double(Mgr.stats().CacheHits) / double(Mgr.stats().CacheLookups)
          : 0.0);
}

void BM_BddCacheDirectMapped(benchmark::State &State) {
  CacheAssociativity(State, 1);
}
BENCHMARK(BM_BddCacheDirectMapped);

void BM_BddCache4Way(benchmark::State &State) {
  CacheAssociativity(State, 4);
}
BENCHMARK(BM_BddCache4Way);

/// The computed-cache key hash, replicated from BddManager::cacheLookup so
/// the conflict workload below can *target* buckets instead of waiting for
/// birthday collisions. Purely a workload-construction device: if the
/// manager's hash changes, this workload degrades into a random one (the
/// benchmark stays valid, just less adversarial).
uint64_t cacheHashTriple(uint32_t A, uint32_t B, uint32_t C) {
  uint64_t H = (uint64_t(A) << 32) ^ (uint64_t(B) << 16) ^ C;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

/// Conflict-heavy hot-set workload at a small cache (a 2^10-slot start
/// that keeps a quarter of the table's slots as the operands grow the
/// table; the bucket geometry is read afterwards): a small set of *hot*
/// AND pairs is re-queried every round while a stream of single-use pairs
/// — selected to hash into the hot pairs' buckets — pounds the same
/// slots. This is the regime the ROADMAP's associativity item names: a
/// direct-mapped cache evicts a hot entry on every colliding insert, so
/// the hot set misses once per round; the 4-way cache's transposition
/// promotion migrates re-used entries to the protected front ways and the
/// streaming entries churn the probation way among themselves.
void CacheConflictHotSet(benchmark::State &State, unsigned Ways) {
  BddManager Mgr(64, /*CacheShift=*/2, Ways);
  Rng R(11);
  // Hot operands are large (expensive to recompute); stream operands are
  // small cubes (cheap, but their inserts land where the hot results
  // live).
  std::vector<Bdd> HotFns, StreamFns;
  for (unsigned I = 0; I < 48; ++I)
    HotFns.push_back(randomFunction(Mgr, R, 0, 64, 40));
  for (unsigned I = 0; I < 512; ++I)
    StreamFns.push_back(randomFunction(Mgr, R, 0, 64, 3));

  struct OpPair {
    const Bdd *A, *B;
  };
  std::vector<OpPair> Hot;
  for (unsigned I = 0; I + 1 < HotFns.size(); I += 2)
    Hot.push_back({&HotFns[I], &HotFns[I + 1]});

  // Bucket index of an And key under this manager's geometry (op And has
  // tag 0, third operand 0).
  const uint64_t BucketMask = Mgr.cacheSlots() / Mgr.cacheWays() - 1;
  auto bucketOf = [&](const Bdd &A, const Bdd &B) {
    return cacheHashTriple(A.rawIndex(), B.rawIndex(), 0) & BucketMask;
  };
  std::vector<uint8_t> IsHotBucket(BucketMask + 1, 0);
  for (const OpPair &P : Hot)
    IsHotBucket[bucketOf(*P.A, *P.B)] = 1;

  // Streaming pairs targeted at the hot results' buckets.
  std::vector<OpPair> Stream;
  for (unsigned I = 0; I < StreamFns.size() && Stream.size() < 512; ++I)
    for (unsigned J = I + 1; J < StreamFns.size() && Stream.size() < 512;
         ++J)
      if (IsHotBucket[bucketOf(StreamFns[I], StreamFns[J])])
        Stream.push_back({&StreamFns[I], &StreamFns[J]});

  // Two hot passes per round: the first re-derives whatever the stream
  // evicted (and re-inserts it in the probation way), the second re-hits
  // it — which under transposition promotion is what moves a hot entry
  // out of the way the stream churns. Direct-mapped has no protected way:
  // the colliding stream inserts evict the hot results every round, and
  // the first pass pays the full recomputation again.
  size_t StreamIdx = 0;
  for (auto _ : State) {
    for (unsigned Pass = 0; Pass < 2; ++Pass)
      for (const OpPair &P : Hot)
        benchmark::DoNotOptimize(*P.A & *P.B);
    for (unsigned K = 0; K < 16 && !Stream.empty(); ++K) {
      const OpPair &P = Stream[StreamIdx++ % Stream.size()];
      benchmark::DoNotOptimize(*P.A & *P.B);
    }
  }
  State.counters["hit_rate"] = benchmark::Counter(
      Mgr.stats().CacheLookups
          ? double(Mgr.stats().CacheHits) / double(Mgr.stats().CacheLookups)
          : 0.0);
  State.counters["stream_pairs"] = benchmark::Counter(double(Stream.size()));
}

void BM_BddCacheConflictHotSetDirect(benchmark::State &State) {
  CacheConflictHotSet(State, 1);
}
BENCHMARK(BM_BddCacheConflictHotSetDirect);

void BM_BddCacheConflictHotSet4Way(benchmark::State &State) {
  CacheConflictHotSet(State, 4);
}
BENCHMARK(BM_BddCacheConflictHotSet4Way);

/// Unique-table microbenchmarks on the real manager, with a node store
/// and table far larger than the last-level cache: 2^22 nodes at variable
/// 2, one for each pair of a "low" and a "high" leaf (the 2 x 2048
/// minterms over variables 3..14, split on the last bit), held by no
/// handle and kept by switching collection off. Lookups visit the pairs
/// in a scrambled order, so each one lands on a cold bucket and cold
/// nodes.
struct MakeNodeFixture {
  static constexpr unsigned LeafBits = 11;
  static constexpr uint32_t NumPairs = 1u << (2 * LeafBits);
  BddManager Mgr{15};
  std::vector<Bdd> LowLeaves, HighLeaves;

  MakeNodeFixture() {
    Mgr.setGcThreshold(0);
    for (uint32_t K = 0; K < (2u << LeafBits); ++K) {
      Bdd M = Mgr.one();
      for (unsigned B = 0; B <= LeafBits; ++B)
        M &= ((K >> B) & 1) ? Mgr.var(3 + B) : Mgr.nvar(3 + B);
      ((K >> LeafBits) ? HighLeaves : LowLeaves).push_back(M);
    }
    for (uint32_t I = 0; I < NumPairs; ++I)
      make(2, I);
  }

  /// The node at \p Var over the \p I-th pair, scrambled by an odd
  /// multiplier (a bijection on [0, NumPairs)).
  Bdd make(unsigned Var, uint32_t I) {
    uint32_t P = (I * 0x9e3779b1u) & (NumPairs - 1);
    return Mgr.node(Var, LowLeaves[P & ((1u << LeafBits) - 1)],
                    HighLeaves[P >> LeafBits]);
  }
};

void BM_BddMakeNodeHit(benchmark::State &State) {
  // Every call finds an existing node.
  MakeNodeFixture F;
  uint32_t I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(F.make(2, I++ & (F.NumPairs - 1)));
  State.counters["table_slots"] =
      benchmark::Counter(double(F.Mgr.tableSlots()));
}
BENCHMARK(BM_BddMakeNodeHit);

void BM_BddMakeNodeMiss(benchmark::State &State) {
  // Every call misses in the table and inserts a node (at variable 1,
  // over the same pairs). The iteration count is fixed below the next
  // table growth, so no rehash lands in the timing.
  MakeNodeFixture F;
  uint32_t I = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(F.make(1, I++));
  State.counters["table_slots"] =
      benchmark::Counter(double(F.Mgr.tableSlots()));
}
BENCHMARK(BM_BddMakeNodeMiss)->Iterations(1 << 20);

void BM_BddGc(benchmark::State &State) {
  // One manager; each iteration litters the table with dead intermediates
  // and collects them while a live function is held.
  BddManager Mgr(48);
  Mgr.setGcThreshold(0); // Collect only when asked.
  Rng R(5);
  Bdd Keep = randomFunction(Mgr, R, 0, 48, 32);
  for (auto _ : State) {
    State.PauseTiming();
    for (unsigned I = 0; I < 8; ++I)
      randomFunction(Mgr, R, 0, 48, 8);
    State.ResumeTiming();
    Mgr.gc();
    benchmark::DoNotOptimize(Keep.nodeCount());
  }
}
BENCHMARK(BM_BddGc);

//===----------------------------------------------------------------------===//
// Parallel-BDD spike: per-worker managers vs lock-striped shared table
//===----------------------------------------------------------------------===//
//
// The parallel SCC scheduler had two candidate substrates: (a) per-worker
// managers with a cached cross-manager import, (b) one shared manager with
// a lock-striped unique table and per-thread computed caches. These
// benchmarks put numbers on the decision:
//
//   - BM_BddImportThroughput prices option (a)'s only extra cost — the
//     structural copy of solved SCC values between managers (paid once per
//     SCC, off the solve's hot path).
//   - BM_SpikeUniqueTable{Private,Striped} price option (b)'s *best case*:
//     the same open-chaining insert/lookup loop `makeNode` runs, with and
//     without an uncontended striped mutex per operation. The striped
//     variant's overhead is paid on EVERY node created or found by EVERY
//     operation of the solve — millions of times per round — before any
//     actual contention, cache-line ping-pong, or the (stop-the-world)
//     GC/resize coordination a shared table would also need.

/// Structural copy throughput between managers (option (a)'s toll). The
/// destination lives across iterations (manager construction is not the
/// import), the importer does not: every iteration re-walks the source
/// structure cold, the way each export of a freshly solved SCC does.
void BM_BddImportThroughput(benchmark::State &State) {
  BddManager Src(64);
  BddManager Dst(64);
  Rng R(7);
  Bdd F = randomFunction(Src, R, 0, 64, 200);
  size_t Nodes = F.nodeCount();
  for (auto _ : State) {
    BddImporter Imp(Src, Dst);
    benchmark::DoNotOptimize(Imp.import(F));
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Nodes));
}
BENCHMARK(BM_BddImportThroughput);

/// A stand-alone replica of the unique-table hot loop (hash, chain walk,
/// append), so the spike measures the table discipline rather than the
/// whole operation stack.
struct SpikeTable {
  struct Node {
    uint32_t Var, Low, High, Next;
  };
  std::vector<Node> Nodes;
  std::vector<uint32_t> Buckets;
  explicit SpikeTable(size_t BucketCount)
      : Buckets(BucketCount, UINT32_MAX) {
    Nodes.reserve(1u << 20);
  }
  uint32_t makeNode(uint32_t Var, uint32_t Low, uint32_t High) {
    uint64_t H = (uint64_t(Var) * 0x9e3779b97f4a7c15ull) ^
                 (uint64_t(Low) << 32 | High);
    H ^= H >> 29;
    size_t B = H & (Buckets.size() - 1);
    for (uint32_t N = Buckets[B]; N != UINT32_MAX; N = Nodes[N].Next)
      if (Nodes[N].Var == Var && Nodes[N].Low == Low &&
          Nodes[N].High == High)
        return N;
    uint32_t N = uint32_t(Nodes.size());
    Nodes.push_back({Var, Low, High, Buckets[B]});
    Buckets[B] = N;
    return N;
  }
};

constexpr unsigned SpikeOps = 1u << 18;

void BM_SpikeUniqueTablePrivate(benchmark::State &State) {
  for (auto _ : State) {
    SpikeTable T(1u << 20);
    Rng R(11);
    uint32_t Acc = 0;
    for (unsigned I = 0; I < SpikeOps; ++I)
      Acc ^= T.makeNode(unsigned(R.below(64)), unsigned(R.below(1u << 16)),
                        unsigned(R.below(1u << 16)));
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * SpikeOps);
}
BENCHMARK(BM_SpikeUniqueTablePrivate);

void BM_SpikeUniqueTableStriped(benchmark::State &State) {
  // 64 stripes is generous (CUDD-style packages stripe far coarser); the
  // point is that even an *uncontended* lock acquisition on this path
  // costs a measurable fraction of the whole makeNode.
  constexpr unsigned Stripes = 64;
  for (auto _ : State) {
    SpikeTable T(1u << 20);
    std::array<std::mutex, Stripes> Locks;
    Rng R(11);
    uint32_t Acc = 0;
    for (unsigned I = 0; I < SpikeOps; ++I) {
      uint32_t Var = unsigned(R.below(64));
      uint32_t Low = unsigned(R.below(1u << 16));
      uint32_t High = unsigned(R.below(1u << 16));
      std::lock_guard<std::mutex> G(Locks[(Var ^ Low ^ High) % Stripes]);
      Acc ^= T.makeNode(Var, Low, High);
    }
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * SpikeOps);
}
BENCHMARK(BM_SpikeUniqueTableStriped);

} // namespace

BENCHMARK_MAIN();
