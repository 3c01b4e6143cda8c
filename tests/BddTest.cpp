//===- BddTest.cpp - BDD package tests ------------------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

using namespace getafix;

namespace {

/// A brute-force boolean function over N variables: 2^N truth-table bits.
class TruthTable {
public:
  explicit TruthTable(unsigned NumVars, uint64_t Bits = 0)
      : NumVars(NumVars), Bits(Bits) {
    assert(NumVars <= 6 && "truth table capped at 6 vars");
  }

  static TruthTable var(unsigned NumVars, unsigned V) {
    TruthTable T(NumVars);
    for (unsigned Row = 0; Row < (1u << NumVars); ++Row)
      if ((Row >> V) & 1)
        T.Bits |= uint64_t(1) << Row;
    return T;
  }

  bool eval(unsigned Row) const { return (Bits >> Row) & 1; }
  unsigned rows() const { return 1u << NumVars; }

  TruthTable operator&(const TruthTable &O) const {
    return TruthTable(NumVars, Bits & O.Bits);
  }
  TruthTable operator|(const TruthTable &O) const {
    return TruthTable(NumVars, Bits | O.Bits);
  }
  TruthTable operator^(const TruthTable &O) const {
    return TruthTable(NumVars, Bits ^ O.Bits);
  }
  TruthTable operator!() const {
    uint64_t Mask = rows() == 64 ? ~uint64_t(0)
                                 : ((uint64_t(1) << rows()) - 1);
    return TruthTable(NumVars, ~Bits & Mask);
  }

  TruthTable exists(unsigned V) const {
    TruthTable R(NumVars);
    for (unsigned Row = 0; Row < rows(); ++Row) {
      unsigned Lo = Row & ~(1u << V), Hi = Row | (1u << V);
      if (eval(Lo) || eval(Hi))
        R.Bits |= uint64_t(1) << Row;
    }
    return R;
  }

  unsigned NumVars;
  uint64_t Bits;
};

/// Checks that a BDD and a truth table agree on every assignment.
void expectEqual(const Bdd &B, const TruthTable &T, const char *What) {
  for (unsigned Row = 0; Row < T.rows(); ++Row) {
    std::vector<bool> Assignment(T.NumVars);
    for (unsigned V = 0; V < T.NumVars; ++V)
      Assignment[V] = (Row >> V) & 1;
    ASSERT_EQ(B.eval(Assignment), T.eval(Row))
        << What << " differs on row " << Row;
  }
}

/// Builds a random (Bdd, TruthTable) pair over NumVars variables whose
/// literals are drawn from \p Vars (all NumVars variables when empty).
std::pair<Bdd, TruthTable> randomFunction(BddManager &Mgr, Rng &R,
                                          unsigned NumVars, unsigned Ops,
                                          std::vector<unsigned> Vars = {}) {
  if (Vars.empty())
    for (unsigned V = 0; V < NumVars; ++V)
      Vars.push_back(V);
  Bdd B = R.flip() ? Mgr.one() : Mgr.zero();
  TruthTable T(NumVars, B.isOne() ? ~uint64_t(0) >> (64 - (1u << NumVars))
                                  : 0);
  for (unsigned I = 0; I < Ops; ++I) {
    unsigned V = Vars[R.below(Vars.size())];
    Bdd Lit = Mgr.var(V);
    TruthTable LitT = TruthTable::var(NumVars, V);
    switch (R.below(3)) {
    case 0:
      B = B & Lit;
      T = T & LitT;
      break;
    case 1:
      B = B | Lit;
      T = T | LitT;
      break;
    default:
      B = B ^ Lit;
      T = T ^ LitT;
      break;
    }
    if (R.chance(1, 4)) {
      B = !B;
      T = !T;
    }
  }
  return {B, T};
}

/// Checks `F.permute` under the variable map \p Map (indexed by variable)
/// against the substitution it denotes, on every assignment X:
/// F[v := Map[v]](X) == F(v -> X[Map[v]]). The rename must also be the
/// canonical BDD of that function: the OR of its satisfying minterms.
void expectSubstitution(const Bdd &F, const std::vector<unsigned> &Map,
                        const char *What) {
  BddManager &Mgr = *F.manager();
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned V = 0; V < Map.size(); ++V)
    if (Map[V] != V)
      Pairs.emplace_back(V, Map[V]);
  Bdd Renamed = F.permute(Mgr.makePermutation(Pairs));
  Bdd Expected = Mgr.zero();
  const unsigned N = unsigned(Map.size());
  for (unsigned Row = 0; Row < (1u << N); ++Row) {
    std::vector<bool> X(N), Y(N);
    Bdd Minterm = Mgr.one();
    for (unsigned V = 0; V < N; ++V) {
      X[V] = (Row >> V) & 1;
      Minterm &= X[V] ? Mgr.var(V) : Mgr.nvar(V);
    }
    for (unsigned V = 0; V < N; ++V)
      Y[V] = X[Map[V]];
    ASSERT_EQ(Renamed.eval(X), F.eval(Y))
        << What << " rename differs on row " << Row;
    if (F.eval(Y))
      Expected |= Minterm;
  }
  EXPECT_EQ(Renamed, Expected) << What << " rename is not canonical";
}

class BddPropertyTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST(BddTest, TerminalBasics) {
  BddManager Mgr(4);
  EXPECT_TRUE(Mgr.one().isOne());
  EXPECT_TRUE(Mgr.zero().isZero());
  EXPECT_EQ(Mgr.one() & Mgr.zero(), Mgr.zero());
  EXPECT_EQ(Mgr.one() | Mgr.zero(), Mgr.one());
  EXPECT_EQ(!Mgr.one(), Mgr.zero());
  EXPECT_EQ(Mgr.one() ^ Mgr.one(), Mgr.zero());
}

TEST(BddTest, VarAndNvarAreComplements) {
  BddManager Mgr(3);
  for (unsigned V = 0; V < 3; ++V) {
    EXPECT_EQ(!Mgr.var(V), Mgr.nvar(V));
    EXPECT_EQ(Mgr.var(V) & Mgr.nvar(V), Mgr.zero());
    EXPECT_EQ(Mgr.var(V) | Mgr.nvar(V), Mgr.one());
  }
}

TEST(BddTest, HashConsingCanonicity) {
  BddManager Mgr(4);
  Bdd A = (Mgr.var(0) & Mgr.var(1)) | Mgr.var(2);
  Bdd B = Mgr.var(2) | (Mgr.var(1) & Mgr.var(0));
  EXPECT_EQ(A, B) << "equivalent functions must share one node";
}

TEST(BddTest, IteMatchesDefinition) {
  BddManager Mgr(4);
  Rng R(7);
  for (unsigned Trial = 0; Trial < 50; ++Trial) {
    auto [F, FT] = randomFunction(Mgr, R, 4, 4);
    auto [G, GT] = randomFunction(Mgr, R, 4, 4);
    auto [H, HT] = randomFunction(Mgr, R, 4, 4);
    Bdd Ite = F.ite(G, H);
    Bdd Expected = (F & G) | ((!F) & H);
    EXPECT_EQ(Ite, Expected);
    (void)FT;
    (void)GT;
    (void)HT;
  }
}

TEST_P(BddPropertyTest, OpsMatchTruthTables) {
  BddManager Mgr(5);
  Rng R(GetParam());
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    auto [B, BT] = randomFunction(Mgr, R, 5, 6);
    expectEqual(A & B, AT & BT, "and");
    expectEqual(A | B, AT | BT, "or");
    expectEqual(A ^ B, AT ^ BT, "xor");
    expectEqual(!A, !AT, "not");
    expectEqual(A.implies(B), (!AT) | BT, "implies");
    expectEqual(A.iff(B), !(AT ^ BT), "iff");
  }
}

TEST_P(BddPropertyTest, QuantificationMatchesTruthTables) {
  BddManager Mgr(5);
  Rng R(GetParam() ^ 0x5555);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    unsigned V1 = unsigned(R.below(5));
    unsigned V2 = unsigned(R.below(5));
    BddCube Cube = Mgr.makeCube({V1, V2});
    TruthTable ExT = AT.exists(V1).exists(V2);
    expectEqual(A.exists(Cube), ExT, "exists");
    TruthTable FaT = !(((!AT).exists(V1)).exists(V2));
    expectEqual(A.forall(Cube), FaT, "forall");
  }
}

TEST_P(BddPropertyTest, AndExistsIsFusedRelationalProduct) {
  BddManager Mgr(5);
  Rng R(GetParam() ^ 0xabcdef);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    auto [B, BT] = randomFunction(Mgr, R, 5, 6);
    (void)AT;
    (void)BT;
    unsigned V1 = unsigned(R.below(5));
    unsigned V2 = unsigned(R.below(5));
    BddCube Cube = Mgr.makeCube({V1, V2});
    EXPECT_EQ(A.andExists(B, Cube), (A & B).exists(Cube));
  }
}

TEST_P(BddPropertyTest, PermuteMatchesSubstitution) {
  BddManager Mgr(6);
  Rng R(GetParam() ^ 0x1234);
  auto IteProbes = [&] {
    return Mgr.stats().OpLookups[unsigned(BddOp::Ite)];
  };
  uint64_t PartialIteProbes = 0;
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    // Rename 0,1,2 -> 3,4,5 (an order-keeping shift) and 0,1,2 -> 5,4,3
    // (reversing).
    Bdd A = randomFunction(Mgr, R, 6, 5, {0, 1, 2}).first;
    expectSubstitution(A, {3, 4, 5, 3, 4, 5}, "shift");
    expectSubstitution(A, {5, 4, 3, 3, 4, 5}, "reverse");

    // Interleaved: each target sits between its source and the next
    // support variable, so every node is built directly, without ite.
    Bdd B = randomFunction(Mgr, R, 6, 6, {0, 2, 4}).first;
    uint64_t Before = IteProbes();
    expectSubstitution(B, {1, 1, 3, 3, 5, 5}, "interleaved");
    EXPECT_EQ(IteProbes(), Before) << "an order-keeping rename used ite";

    // Partial: 3 -> 2 keeps its nodes above their children, 0 -> 5 moves
    // its nodes below 1, so one call takes both paths.
    Bdd C = randomFunction(Mgr, R, 6, 6, {0, 1, 3, 4}).first;
    Before = IteProbes();
    expectSubstitution(C, {5, 1, 2, 2, 4, 5}, "partial");
    PartialIteProbes += IteProbes() - Before;

    // Many-to-one plus a shift: 0 -> 1 lands on a support variable (the
    // diagonal R(u, u)), 2 -> 3 shifts.
    Bdd D = randomFunction(Mgr, R, 6, 6, {0, 1, 2, 4}).first;
    expectSubstitution(D, {1, 1, 3, 3, 4, 5}, "many-to-one");
  }
  EXPECT_GT(PartialIteProbes, 0u) << "no partial rename reached ite";
}

TEST(BddTest, NonInjectiveRenameDiagonalizes) {
  BddManager Mgr(3);
  // f = x0 ^ x1; rename both onto x2: f[x0:=x2, x1:=x2] == false.
  Bdd F = Mgr.var(0) ^ Mgr.var(1);
  BddPerm Diag = Mgr.makePermutation({{0, 2}, {1, 2}});
  EXPECT_EQ(F.permute(Diag), Mgr.zero());
  Bdd G = Mgr.var(0) & Mgr.var(1);
  EXPECT_EQ(G.permute(Diag), Mgr.var(2));
}

TEST(BddTest, LiteralCubeAndExistsIsCofactor) {
  BddManager Mgr(4);
  Rng R(99);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    Bdd A = randomFunction(Mgr, R, 4, 5).first;
    // One literal: f|v=c == exists v. (f & (v == c)), and Shannon
    // expansion f == (v & f|v=1) | (!v & f|v=0) reassembles f.
    unsigned V = unsigned(R.below(4));
    BddCube One = Mgr.makeCube({V});
    Bdd Hi = A.andExists(Mgr.var(V), One);
    Bdd Lo = A.andExists(Mgr.nvar(V), One);
    EXPECT_EQ(A, (Mgr.var(V) & Hi) | (Mgr.nvar(V) & Lo));

    // Several literals in one pass: each cofactor equals the one-literal
    // cofactors taken in turn, and the expansion over every value of the
    // cube's variables reassembles f.
    std::vector<unsigned> Vars{0, 1, 2, 3};
    Vars.erase(Vars.begin() + R.below(4));
    BddCube Cube = Mgr.makeCube(Vars);
    Bdd Expansion = Mgr.zero();
    for (unsigned Value = 0; Value < 8; ++Value) {
      Bdd Lits = Mgr.one(), Stepwise = A;
      for (unsigned I = 0; I < 3; ++I) {
        Bdd Lit = (Value >> I) & 1 ? Mgr.var(Vars[I]) : Mgr.nvar(Vars[I]);
        Lits &= Lit;
        Stepwise = Stepwise.andExists(Lit, Mgr.makeCube({Vars[I]}));
      }
      Bdd Cofactor = A.andExists(Lits, Cube);
      EXPECT_EQ(Cofactor, Stepwise);
      Expansion |= Lits & Cofactor;
    }
    EXPECT_EQ(A, Expansion);
  }
}

TEST(BddTest, SatCount) {
  BddManager Mgr(4);
  EXPECT_DOUBLE_EQ(Mgr.one().satCount(4), 16.0);
  EXPECT_DOUBLE_EQ(Mgr.zero().satCount(4), 0.0);
  EXPECT_DOUBLE_EQ(Mgr.var(0).satCount(4), 8.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) & Mgr.var(1)).satCount(4), 4.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) | Mgr.var(1)).satCount(4), 12.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) ^ Mgr.var(1)).satCount(4), 8.0);
}

TEST(BddTest, SupportAndNodeCount) {
  BddManager Mgr(5);
  Bdd F = (Mgr.var(0) & Mgr.var(2)) | Mgr.var(4);
  std::vector<unsigned> Expected{0, 2, 4};
  EXPECT_EQ(F.support(), Expected);
  EXPECT_GT(F.nodeCount(), 0u);
  EXPECT_EQ(Mgr.one().nodeCount(), 0u);
}

namespace {

/// A random OR of random cubes over \p NumVars variables: functions too
/// wide for a truth table, with dags of a few hundred nodes.
Bdd randomCubeCover(BddManager &Mgr, Rng &R, unsigned NumVars,
                    unsigned Cubes) {
  Bdd F = Mgr.zero();
  for (unsigned C = 0; C < Cubes; ++C) {
    Bdd Cube = Mgr.one();
    for (unsigned V = 0; V < NumVars; ++V)
      if (R.chance(1, 3))
        Cube &= R.flip() ? Mgr.var(V) : Mgr.nvar(V);
    F |= Cube;
  }
  return F;
}

/// Does \p F depend on \p V? Decided by cofactoring, with no dag walk.
bool dependsOn(BddManager &Mgr, const Bdd &F, unsigned V) {
  BddCube Cube = Mgr.makeCube({V});
  return (F & Mgr.var(V)).exists(Cube) != (F & Mgr.nvar(V)).exists(Cube);
}

} // namespace

TEST(BddTest, NodeCountAndSupportMatchCofactorEnumeration) {
  // Reference: a node of an ROBDD is a distinct non-constant subfunction
  // reached by cofactoring on top variables, and the support is the set
  // of those top variables — both computed here through the operations
  // only, never through the dag walk under test. Dags of hundreds of
  // nodes make the walk's visited set grow several times.
  const unsigned NumVars = 14;
  BddManager Mgr(NumVars);
  Rng R(31);
  for (unsigned Trial = 0; Trial < 12; ++Trial) {
    Bdd F = randomCubeCover(Mgr, R, NumVars, 4 + 3 * Trial);
    std::vector<Bdd> Stack{F};
    std::vector<uint32_t> Seen;
    std::vector<unsigned> Support;
    while (!Stack.empty()) {
      Bdd G = Stack.back();
      Stack.pop_back();
      if (G.isConst() || std::find(Seen.begin(), Seen.end(),
                                   G.rawIndex()) != Seen.end())
        continue;
      Seen.push_back(G.rawIndex());
      unsigned Top = 0;
      while (!dependsOn(Mgr, G, Top))
        ++Top;
      Support.push_back(Top);
      BddCube Cube = Mgr.makeCube({Top});
      Stack.push_back((G & Mgr.var(Top)).exists(Cube));
      Stack.push_back((G & Mgr.nvar(Top)).exists(Cube));
    }
    std::sort(Support.begin(), Support.end());
    Support.erase(std::unique(Support.begin(), Support.end()), Support.end());
    EXPECT_EQ(F.nodeCount(), Seen.size()) << "trial " << Trial;
    EXPECT_EQ(F.support(), Support) << "trial " << Trial;
  }
}

TEST_P(BddPropertyTest, IntersectsAgreesWithConjunctionAndBuildsNothing) {
  // `intersects` answers whether A & B is satisfiable by walking the two
  // dags: against minterms and cubes (the witness walk's rank query) and
  // against general functions, where the walk splits and memoizes. No
  // call may create a node or probe the computed cache.
  const unsigned NumVars = 12;
  BddManager Mgr(NumVars);
  Rng R(GetParam() ^ 0x7777);
  auto randomCube = [&](bool Minterm) {
    Bdd C = Mgr.one();
    for (unsigned V = 0; V < NumVars; ++V)
      if (Minterm || R.flip())
        C &= R.flip() ? Mgr.var(V) : Mgr.nvar(V);
    return C;
  };
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    Bdd A = Trial % 2 ? randomFunction(Mgr, R, 6, 8).first
                      : randomCubeCover(Mgr, R, NumVars, 6);
    const Bdd Operands[] = {randomCube(true), randomCube(false),
                            randomFunction(Mgr, R, 6, 8).first,
                            randomCubeCover(Mgr, R, NumVars, 6),
                            Mgr.zero(), Mgr.one(), A, !A};
    for (const Bdd &B : Operands) {
      bool Expected = !(A & B).isZero();
      BddStats Before = Mgr.stats();
      EXPECT_EQ(A.intersects(B), Expected) << "trial " << Trial;
      EXPECT_EQ(B.intersects(A), Expected) << "trial " << Trial;
      BddStats After = Mgr.stats();
      EXPECT_EQ(After.NodesCreated, Before.NodesCreated);
      EXPECT_EQ(After.CacheLookups, Before.CacheLookups);
    }
  }
}

TEST(BddTest, OnePathSatisfies) {
  BddManager Mgr(4);
  Rng R(5);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 4, 5);
    (void)AT;
    if (A.isZero())
      continue;
    std::vector<int8_t> Path = A.onePath();
    std::vector<bool> Assignment(4);
    for (unsigned V = 0; V < 4; ++V)
      Assignment[V] = Path[V] == 1;
    EXPECT_TRUE(A.eval(Assignment));
  }
}

TEST(BddTest, CubeBddIsConjunction) {
  BddManager Mgr(4);
  BddCube Cube = Mgr.makeCube({3, 1});
  EXPECT_EQ(Mgr.cubeBdd(Cube), Mgr.var(1) & Mgr.var(3));
}

TEST(BddTest, CubeInterningDeduplicates) {
  BddManager Mgr(4);
  BddCube A = Mgr.makeCube({1, 2});
  BddCube B = Mgr.makeCube({2, 1, 2});
  EXPECT_EQ(A.Id, B.Id);
}

TEST(BddTest, GcPreservesLiveHandles) {
  BddManager Mgr(8);
  Rng R(11);
  auto [Keep, KeepT] = randomFunction(Mgr, R, 6, 10);
  size_t KeepNodes = Keep.nodeCount();
  // Create and drop lots of garbage. (Stay within TruthTable's 6-variable
  // cap: the manager has 8 variables, but the helper shadows every random
  // function with a 2^N-bit truth table.)
  for (unsigned I = 0; I < 200; ++I) {
    auto [Tmp, TmpT] = randomFunction(Mgr, R, 6, 12);
    (void)Tmp;
    (void)TmpT;
  }
  size_t Before = Mgr.liveNodeCount();
  Mgr.gc();
  EXPECT_LT(Mgr.liveNodeCount(), Before);
  EXPECT_EQ(Keep.nodeCount(), KeepNodes);
  // The function still evaluates correctly after collection.
  expectEqual(Keep, KeepT, "post-gc");
  // And new operations still work.
  EXPECT_EQ(Keep & Mgr.one(), Keep);
}

TEST(BddTest, GcStatsAccumulate) {
  BddManager Mgr(4);
  { Bdd Garbage = Mgr.var(0) & Mgr.var(1) & Mgr.var(2); }
  Mgr.gc();
  EXPECT_GE(Mgr.stats().GcRuns, 1u);
  EXPECT_GE(Mgr.stats().GcReclaimed, 1u);
}

TEST(BddTest, NewVarGrowsManager) {
  BddManager Mgr(0);
  unsigned V0 = Mgr.newVar();
  unsigned V1 = Mgr.newVar();
  EXPECT_EQ(V0, 0u);
  EXPECT_EQ(V1, 1u);
  EXPECT_EQ(Mgr.numVars(), 2u);
  EXPECT_EQ(Mgr.var(V0) & Mgr.var(V1), Mgr.var(V1) & Mgr.var(V0));
}

/// One deterministic pseudo-random operation script over 24 variables,
/// re-runnable against managers with different cache geometries: it
/// builds a pool of functions (ORs of random 4-literal cubes over windows
/// of adjacent variables — enough nodes to grow the unique table) and
/// runs 60 random operations on them. Returns a per-step fingerprint (sat
/// counts and dag sizes) that must be identical for any cache
/// size/associativity, across mid-script cache clears, and across cache
/// growth: the computed cache affects only speed, never results.
/// \p OpsThatGrew, when given, counts the operations during which the
/// cache grew (growth runs inside makeNode, so mid-recursion).
std::vector<double> runCacheScript(BddManager &Mgr, bool MidScriptClear,
                                   unsigned *OpsThatGrew = nullptr) {
  constexpr unsigned NumVars = 24;
  Rng R(4242);
  auto Apply = [&](auto Op) {
    size_t Slots = Mgr.cacheSlots();
    Bdd Out = Op();
    if (OpsThatGrew && Mgr.cacheSlots() > Slots)
      ++*OpsThatGrew;
    return Out;
  };
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 8; ++I) {
    Bdd F = Mgr.zero();
    for (unsigned T = 0; T < 48; ++T) {
      unsigned Window = unsigned(R.below(NumVars - 3));
      Bdd Cube = Mgr.one();
      for (unsigned V = Window; V < Window + 4; ++V) {
        Bdd Lit = R.flip() ? Mgr.var(V) : Mgr.nvar(V);
        Cube = Apply([&] { return Cube & Lit; });
      }
      F = Apply([&] { return F | Cube; });
    }
    Pool.push_back(F);
  }
  std::vector<unsigned> EvenVars;
  for (unsigned V = 0; V < NumVars; V += 2)
    EvenVars.push_back(V);
  BddCube Cube = Mgr.makeCube(EvenVars);
  std::vector<double> Trace;
  for (unsigned Step = 0; Step < 60; ++Step) {
    if (MidScriptClear && Step == 30)
      Mgr.clearComputedCache();
    const Bdd &A = Pool[R.below(Pool.size())];
    const Bdd &B = Pool[R.below(Pool.size())];
    Bdd Out = Apply([&] {
      switch (R.below(4)) {
      case 0:
        return A & B;
      case 1:
        return A | B;
      case 2:
        return A.andExists(B, Cube);
      default:
        return A ^ B;
      }
    });
    Pool[R.below(Pool.size())] = Out;
    Trace.push_back(Out.satCount(NumVars) * 1000.0 +
                    double(Out.nodeCount()));
  }
  return Trace;
}

TEST(BddTest, CacheStressResultsIdenticalAcrossGeometries) {
  // Identical op scripts must produce identical results under every cache
  // geometry — one cache entry per 4096 table slots, per 16 slots, and
  // per slot — at every associativity (direct-mapped vs 4-way), and
  // across a mid-script release of the cache. No manager holds a fixed
  // cache: the script grows the unique table, so every cache grows with
  // it while operations are running, re-inserting its entries
  // mid-recursion each time it does. The check therefore compares
  // cache/table ratios, against the largest one as the reference.
  BddManager Reference(24, /*CacheShift=*/0, 4);
  std::vector<double> Expected = runCacheScript(Reference, false);

  struct Geometry {
    unsigned Shift, Ways;
    bool MidClear;
  } Geometries[] = {{12, 4, false}, {12, 1, false}, {12, 4, true},
                    {4, 4, false},  {4, 1, false},  {0, 1, false},
                    {4, 4, true},   {0, 4, true}};
  for (const Geometry &G : Geometries) {
    BddManager Mgr(24, G.Shift, G.Ways);
    unsigned Grew = 0;
    EXPECT_EQ(runCacheScript(Mgr, G.MidClear, &Grew), Expected)
        << "cache shift " << G.Shift << " ways " << G.Ways << " midclear "
        << G.MidClear;
    EXPECT_GT(Grew, 0u) << "the cache never grew during an operation";
  }
}

TEST(BddTest, NodePagesSurviveCollectionAndFreeListReuse) {
  // Enough explicitly built nodes to fill several node pages: 2^17 nodes
  // at variable 0, each over a distinct pair of 512 "leaf" functions below
  // it. Every other one is then dropped and collected, so the free list
  // threads through all the pages, and re-creating the dropped triples
  // must draw from it.
  constexpr unsigned NumVars = 12, NumLeaves = 512;
  BddManager Mgr(NumVars);
  // Leaves: the minterms over variables 3..11 (9 bits).
  std::vector<Bdd> Leaves;
  for (unsigned K = 0; K < NumLeaves; ++K) {
    Bdd M = Mgr.one();
    for (unsigned B = 0; B < 9; ++B)
      M &= ((K >> B) & 1) ? Mgr.var(3 + B) : Mgr.nvar(3 + B);
    Leaves.push_back(M);
  }
  struct Triple {
    unsigned Lo, Hi;
  };
  std::vector<Triple> Triples;
  for (unsigned I = 0; Triples.size() < (1u << 17); ++I) {
    unsigned Lo = I % NumLeaves, Hi = (I / NumLeaves + Lo + 1) % NumLeaves;
    Triples.push_back({Lo, Hi});
  }
  auto Build = [&](const Triple &T) {
    return Mgr.node(0, Leaves[T.Lo], Leaves[T.Hi]);
  };
  std::vector<Bdd> Roots;
  std::vector<uint32_t> Index;
  for (const Triple &T : Triples) {
    Roots.push_back(Build(T));
    Index.push_back(Roots.back().rawIndex());
  }
  Mgr.gc(); // Drop the leaf-building intermediates.
  size_t Live = Mgr.liveNodeCount();
  ASSERT_GT(Live, 2 * size_t(BddManager::NodesPerPage))
      << "the script must span at least three pages";
  // Distinct triples made distinct nodes.
  std::vector<uint32_t> Sorted = Index;
  std::sort(Sorted.begin(), Sorted.end());
  ASSERT_TRUE(std::adjacent_find(Sorted.begin(), Sorted.end()) ==
              Sorted.end());
  const uint32_t HighWater = Sorted.back(); // The last record allocated.

  for (size_t K = 0; K < Roots.size(); K += 2)
    Roots[K] = Bdd();
  Mgr.gc();
  EXPECT_EQ(Mgr.liveNodeCount(), Live - Roots.size() / 2);
  EXPECT_TRUE(Mgr.checkUniqueTable());

  // Survivors are found through the rebuilt table under their old index.
  for (size_t K = 1; K < Roots.size(); K += 2)
    ASSERT_EQ(Build(Triples[K]).rawIndex(), Index[K]) << "triple " << K;
  // Re-created triples come off the free list, below the high-water mark
  // (no fresh record), and the same triple then always gives the same
  // index.
  for (size_t K = 0; K < Roots.size(); K += 2) {
    Roots[K] = Build(Triples[K]);
    ASSERT_LE(Roots[K].rawIndex(), HighWater)
        << "triple " << K << " did not reuse a freed record";
    ASSERT_EQ(Build(Triples[K]), Roots[K]) << "triple " << K;
  }
  EXPECT_EQ(Mgr.liveNodeCount(), Live);
  EXPECT_TRUE(Mgr.checkUniqueTable());

  // Round trip through a second manager lands on the very same nodes.
  BddManager Other(NumVars);
  BddImporter There(Mgr, Other), Back(Other, Mgr);
  for (size_t K = 0; K < Roots.size(); K += 97) {
    Bdd Copy = There.import(Roots[K]);
    ASSERT_EQ(Copy.nodeCount(), Roots[K].nodeCount());
    ASSERT_EQ(Back.import(Copy), Roots[K]) << "root " << K;
  }
}

TEST(BddTest, UniqueTableRebuildFindsEverySurvivor) {
  // gc re-chains the survivors into the emptied unique table. Every
  // surviving node must then be found by its own triple, and no triple
  // may have two nodes.
  BddManager Mgr(8);
  Rng R(77);
  std::vector<Bdd> Keep;
  for (unsigned I = 0; I < 64; ++I) {
    auto [F, T] = randomFunction(Mgr, R, 6, 24);
    (void)T;
    if (I % 3 == 0)
      Keep.push_back(F);
  }
  EXPECT_TRUE(Mgr.checkUniqueTable());
  size_t SlotsBefore = Mgr.tableSlots();
  Mgr.gc();
  EXPECT_EQ(Mgr.tableSlots(), SlotsBefore) << "gc must not resize the table";
  EXPECT_TRUE(Mgr.checkUniqueTable());
  // Importing each survivor out and back looks up every one of its nodes
  // by triple: a missed node would come back as a duplicate.
  BddManager Other(8);
  BddImporter There(Mgr, Other), Back(Other, Mgr);
  size_t Live = Mgr.liveNodeCount();
  for (const Bdd &F : Keep)
    EXPECT_EQ(Back.import(There.import(F)), F);
  EXPECT_EQ(Mgr.liveNodeCount(), Live);
  EXPECT_TRUE(Mgr.checkUniqueTable());
}

/// The conflict-heavy hot-set workload of bench_bdd, shrunk to test
/// scale: a hot set of pairs re-queried every round while a stream of
/// single-use pairs churns the same 2^10-slot cache. Returns a per-round
/// fingerprint of the hot results.
std::vector<double> runConflictHotSetScript(BddManager &Mgr) {
  Rng R(1311);
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 72; ++I)
    Pool.push_back(randomFunction(Mgr, R, 6, 5).first);
  std::vector<double> Trace;
  for (unsigned Round = 0; Round < 24; ++Round) {
    // Hot pairs: the same 12 conjunctions every round.
    for (unsigned I = 0; I + 1 < 24; I += 2) {
      Bdd Out = Pool[I] & Pool[I + 1];
      Trace.push_back(Out.satCount(6) * 1000.0 + double(Out.nodeCount()));
    }
    // Streaming pairs: a fresh slice per round.
    for (unsigned K = 0; K < 16; ++K) {
      unsigned A = (Round * 16 + K) % 48 + 24;
      unsigned B = (Round * 7 + K * 3) % 48 + 24;
      Bdd Out = Pool[A].andExists(Pool[B], Mgr.makeCube({0, 2, 4}));
      Trace.push_back(Out.satCount(6) * 1000.0 + double(Out.nodeCount()));
    }
  }
  return Trace;
}

TEST(BddTest, ConflictPressureResultsIdenticalAcrossWays) {
  // The associativity lever's value regime (ROADMAP: conflict-heavy hot
  // sets at 2^10 slots) must stay a pure performance property: the
  // hot/streaming mix produces bit-identical per-round results whether
  // the cache is direct-mapped or 4-way, with replacement (and promotion)
  // policies differing underneath.
  BddManager Reference(6, /*CacheShift=*/0, 4);
  std::vector<double> Expected = runConflictHotSetScript(Reference);
  for (unsigned Ways : {1u, 4u}) {
    BddManager Mgr(6, /*CacheShift=*/2, Ways); // 2^10 of 2^12 slots.
    EXPECT_EQ(runConflictHotSetScript(Mgr), Expected) << "ways " << Ways;
    EXPECT_GT(Mgr.stats().CacheLookups, 0u);
  }
}

TEST(BddTest, PerOpCacheCountersSplitTheAggregate) {
  BddManager Mgr(6);
  Rng R(17);
  Bdd A = randomFunction(Mgr, R, 6, 8).first;
  Bdd B = randomFunction(Mgr, R, 6, 8).first;
  std::vector<unsigned> Vars{1, 3};
  BddCube Cube = Mgr.makeCube(Vars);
  Bdd P = A.andExists(B, Cube);
  Bdd Q = A.andExists(B, Cube); // Warm repeat: must hit the AndExists op.
  EXPECT_EQ(P, Q);
  const BddStats &S = Mgr.stats();
  uint64_t SumLookups = 0, SumHits = 0;
  for (unsigned Op = 0; Op < NumBddOps; ++Op) {
    SumLookups += S.OpLookups[Op];
    SumHits += S.OpHits[Op];
    EXPECT_LE(S.OpHits[Op], S.OpLookups[Op]);
  }
  EXPECT_EQ(SumLookups, S.CacheLookups);
  EXPECT_EQ(SumHits, S.CacheHits);
  EXPECT_GT(S.OpHits[unsigned(BddOp::AndExists)], 0u)
      << "repeated andExists did not hit its per-op cache";
}

TEST(BddTest, GenerationClearDropsWarmEntries) {
  BddManager Mgr(6);
  Rng R(23);
  Bdd A = randomFunction(Mgr, R, 6, 8).first;
  Bdd B = randomFunction(Mgr, R, 6, 8).first;
  Bdd First = A & B;
  uint64_t Lookups = Mgr.stats().CacheLookups;
  uint64_t Hits = Mgr.stats().CacheHits;
  Bdd Warm = A & B; // Top-level repeat: one probe, served from the cache.
  EXPECT_EQ(First, Warm);
  EXPECT_EQ(Mgr.stats().CacheLookups, Lookups + 1);
  EXPECT_EQ(Mgr.stats().CacheHits, Hits + 1);
  Mgr.clearComputedCache();
  Lookups = Mgr.stats().CacheLookups;
  Hits = Mgr.stats().CacheHits;
  Bdd Cold = A & B; // Same op after the bump: recomputed, same result.
  EXPECT_EQ(First, Cold);
  uint64_t LookupsDelta = Mgr.stats().CacheLookups - Lookups;
  uint64_t HitsDelta = Mgr.stats().CacheHits - Hits;
  EXPECT_GT(LookupsDelta, 1u)
      << "generation bump did not force recomputation";
  // The recomputation may re-hit subproblems it inserts along the way,
  // but the very first probe runs against an empty generation.
  EXPECT_LT(HitsDelta, LookupsDelta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
