//===- Bdd.cpp - Reduced ordered binary decision diagrams -----------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>

using namespace getafix;

namespace {

/// Open-addressing set of nonzero keys — node indices, or node pairs
/// packed into 64 bits; 0 never occurs, since node 0 is a terminal no
/// walk stores. One flat array probed linearly, sized to the walk (not to
/// the node table) and doubled at half load: the visited set of the dag
/// walks, without a heap node per element.
template <typename Key> class FlatSet {
public:
  /// Inserts \p K; false when it was already present.
  bool insert(Key K) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(K, Mask);; I = (I + 1) & Mask) {
      if (Slots[I] == K)
        return false;
      if (Slots[I] == 0) {
        Slots[I] = K;
        ++Count;
        return true;
      }
    }
  }

  bool contains(Key K) const {
    if (Slots.empty())
      return false;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(K, Mask);; I = (I + 1) & Mask) {
      if (Slots[I] == K)
        return true;
      if (Slots[I] == 0)
        return false;
    }
  }

  size_t size() const { return Count; }

private:
  static size_t slotOf(Key K, size_t Mask) {
    uint64_t H = uint64_t(K) * 0x9e3779b97f4a7c15ull;
    return size_t(H ^ (H >> 32)) & Mask;
  }

  void grow() {
    std::vector<Key> Old = std::move(Slots);
    Slots.assign(std::max<size_t>(64, 2 * Old.size()), Key(0));
    Count = 0;
    for (Key K : Old)
      if (K != 0)
        insert(K);
  }

  std::vector<Key> Slots;
  size_t Count = 0;
};

/// Backs `BddManager::markPasses`.
std::atomic<uint64_t> MarkPasses{0};

} // namespace

const char *getafix::bddOpName(BddOp Op) {
  switch (Op) {
  case BddOp::And:
    return "And";
  case BddOp::Or:
    return "Or";
  case BddOp::Xor:
    return "Xor";
  case BddOp::Not:
    return "Not";
  case BddOp::Ite:
    return "Ite";
  case BddOp::Exists:
    return "Exists";
  case BddOp::AndExists:
    return "AndExists";
  case BddOp::Rename:
    return "Rename";
  case BddOp::Frontier:
    return "Frontier";
  case BddOp::Constrain:
    return "Constrain";
  case BddOp::Restrict:
    return "Restrict";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Bdd handle
//===----------------------------------------------------------------------===//

Bdd::Bdd(BddManager *Mgr, uint32_t Idx) : Mgr(Mgr), Idx(Idx) {
  if (Mgr)
    Mgr->ref(Idx);
}

Bdd::Bdd(const Bdd &Other) : Mgr(Other.Mgr), Idx(Other.Idx) {
  if (Mgr)
    Mgr->ref(Idx);
}

Bdd::Bdd(Bdd &&Other) noexcept : Mgr(Other.Mgr), Idx(Other.Idx) {
  Other.Mgr = nullptr;
  Other.Idx = 0;
}

Bdd &Bdd::operator=(const Bdd &Other) {
  if (this == &Other)
    return *this;
  if (Other.Mgr)
    Other.Mgr->ref(Other.Idx);
  if (Mgr)
    Mgr->deref(Idx);
  Mgr = Other.Mgr;
  Idx = Other.Idx;
  return *this;
}

Bdd &Bdd::operator=(Bdd &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Mgr)
    Mgr->deref(Idx);
  Mgr = Other.Mgr;
  Idx = Other.Idx;
  Other.Mgr = nullptr;
  Other.Idx = 0;
  return *this;
}

Bdd::~Bdd() {
  if (Mgr)
    Mgr->deref(Idx);
}

bool Bdd::isZero() const { return Mgr && Idx == 0; }
bool Bdd::isOne() const { return Mgr && Idx == 1; }

Bdd Bdd::operator&(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::And, Idx, Other.Idx));
}

Bdd Bdd::operator|(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::Or, Idx, Other.Idx));
}

Bdd Bdd::operator^(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->applyRec(BddManager::Op::Xor, Idx, Other.Idx));
}

Bdd Bdd::operator!() const {
  assert(Mgr && "null bdd");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->notRec(Idx));
}

Bdd Bdd::ite(const Bdd &Then, const Bdd &Else) const {
  assert(Mgr && Mgr == Then.Mgr && Mgr == Else.Mgr &&
         "operands from different managers");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->iteRec(Idx, Then.Idx, Else.Idx));
}

Bdd Bdd::exists(BddCube Cube) const {
  assert(Mgr && Cube.isValid() && "bad exists operands");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->existsRec(Idx, Cube.Id));
}

Bdd Bdd::forall(BddCube Cube) const {
  assert(Mgr && Cube.isValid() && "bad forall operands");
  // forall X. f == !(exists X. !f); both negations hit the NOT cache.
  Mgr->beginOp();
  uint32_t NotF = Mgr->notRec(Idx);
  uint32_t Ex = Mgr->existsRec(NotF, Cube.Id);
  return Bdd(Mgr, Mgr->notRec(Ex));
}

Bdd Bdd::andExists(const Bdd &Other, BddCube Cube) const {
  assert(Mgr && Mgr == Other.Mgr && Cube.isValid() &&
         "bad andExists operands");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->andExistsRec(Idx, Other.Idx, Cube.Id));
}

Bdd Bdd::permute(BddPerm Perm) const {
  assert(Mgr && Perm.isValid() && "bad permute operands");
  Mgr->beginOp();
  return Bdd(Mgr, Mgr->renameRec(Idx, Perm.Id));
}

double Bdd::satCount(unsigned NumVars) const {
  assert(Mgr && "null bdd");
  // Fraction of satisfying assignments, then scale by 2^NumVars.
  std::unordered_map<uint32_t, double> Memo;
  struct Walker {
    BddManager *M;
    std::unordered_map<uint32_t, double> &Memo;
    double walk(uint32_t N) {
      if (N == 0)
        return 0.0;
      if (N == 1)
        return 1.0;
      auto It = Memo.find(N);
      if (It != Memo.end())
        return It->second;
      double R = 0.5 * (walk(M->lowOf(N)) + walk(M->highOf(N)));
      Memo.emplace(N, R);
      return R;
    }
  } W{Mgr, Memo};
  double Fraction = W.walk(Idx);
  double Scale = 1.0;
  for (unsigned I = 0; I < NumVars; ++I)
    Scale *= 2.0;
  return Fraction * Scale;
}

size_t Bdd::nodeCount() const {
  assert(Mgr && "null bdd");
  if (Idx <= 1)
    return 0;
  FlatSet<uint32_t> Seen;
  std::vector<uint32_t> Stack{Idx};
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (N <= 1 || !Seen.insert(N))
      continue;
    Stack.push_back(Mgr->lowOf(N));
    Stack.push_back(Mgr->highOf(N));
  }
  return Seen.size();
}

std::vector<unsigned> Bdd::support() const {
  assert(Mgr && "null bdd");
  std::vector<bool> InSupport(Mgr->numVars(), false);
  FlatSet<uint32_t> Seen;
  std::vector<uint32_t> Stack{Idx};
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (N <= 1 || !Seen.insert(N))
      continue;
    InSupport[Mgr->varOf(N)] = true;
    Stack.push_back(Mgr->lowOf(N));
    Stack.push_back(Mgr->highOf(N));
  }
  std::vector<unsigned> Result;
  for (unsigned V = 0; V < InSupport.size(); ++V)
    if (InSupport[V])
      Result.push_back(V);
  return Result;
}

bool Bdd::eval(const std::vector<bool> &Assignment) const {
  assert(Mgr && "null bdd");
  uint32_t N = Idx;
  while (N > 1) {
    unsigned V = Mgr->varOf(N);
    assert(V < Assignment.size() && "assignment too short");
    N = Assignment[V] ? Mgr->highOf(N) : Mgr->lowOf(N);
  }
  return N == 1;
}

bool Bdd::intersects(const Bdd &Other) const {
  assert(Mgr && Mgr == Other.Mgr && "operands from different managers");
  struct Walker {
    const BddManager *M;
    /// Operand pairs found disjoint where the walk split: the only pairs
    /// it can reach twice, since a walk that does not split is one path.
    FlatSet<uint64_t> Disjoint;

    bool walk(uint32_t F, uint32_t G) {
      for (;;) {
        if (F == 0 || G == 0)
          return false;
        if (F == 1 || G == 1 || F == G)
          return true;
        uint32_t VF = M->varOf(F), VG = M->varOf(G);
        uint32_t V = std::min(VF, VG);
        uint32_t F0 = VF == V ? M->lowOf(F) : F;
        uint32_t F1 = VF == V ? M->highOf(F) : F;
        uint32_t G0 = VG == V ? M->lowOf(G) : G;
        uint32_t G1 = VG == V ? M->highOf(G) : G;
        bool Low = F0 != 0 && G0 != 0, High = F1 != 0 && G1 != 0;
        if (Low && High) {
          uint64_t Key = uint64_t(F) << 32 | G;
          if (Disjoint.contains(Key))
            return false;
          if (walk(F0, G0) || walk(F1, G1))
            return true;
          Disjoint.insert(Key);
          return false;
        }
        if (!Low && !High)
          return false;
        F = Low ? F0 : F1;
        G = Low ? G0 : G1;
      }
    }
  } W{Mgr, {}};
  return W.walk(Idx, Other.Idx);
}

std::vector<int8_t> Bdd::onePath() const {
  assert(Mgr && Idx != 0 && "onePath needs a satisfiable bdd");
  std::vector<int8_t> Path(Mgr->numVars(), -1);
  uint32_t N = Idx;
  while (N > 1) {
    unsigned V = Mgr->varOf(N);
    if (Mgr->lowOf(N) != 0) {
      Path[V] = 0;
      N = Mgr->lowOf(N);
    } else {
      Path[V] = 1;
      N = Mgr->highOf(N);
    }
  }
  return Path;
}

//===----------------------------------------------------------------------===//
// Manager: construction, variables, interning
//===----------------------------------------------------------------------===//

BddManager::BddManager(unsigned NumVars, unsigned CacheShift,
                       unsigned CacheWays)
    : NumVars(NumVars), MaxCacheWays(CacheWays), CacheShift(CacheShift) {
  assert(CacheWays != 0 && (CacheWays & (CacheWays - 1)) == 0 &&
         "cache associativity must be a power of two");
  assert(CacheShift <= InitialTableBits &&
         "the cache needs at least one entry and at most one per slot");
  Pages.emplace_back(new Node[NodesPerPage]);
  RefPages.emplace_back(new uint32_t[NodesPerPage]);
  rec(0) = Node{TermVar, 0, 0, Invalid};
  rec(1) = Node{TermVar, 1, 1, Invalid};
  refs(0) = refs(1) = 1; // Terminals are permanently referenced.
  NodeEnd = 2;
  Buckets.assign(size_t(1) << InitialTableBits, Invalid);
  allocateCache(cacheSlots());

  // Whole-process fault drills: every manager born while the variable is
  // set fails its K-th allocation (see setFailAfterAllocations).
  if (const char *Fault = std::getenv("GETAFIX_FAULT_ALLOC_AFTER"))
    FaultFailAfter = std::strtoull(Fault, nullptr, 10);
}

BddManager::~BddManager() = default;

unsigned BddManager::newVar() { return NumVars++; }

Bdd BddManager::var(unsigned Var) {
  assert(Var < NumVars && "variable out of range");
  return Bdd(this, makeNode(Var, 0, 1));
}

Bdd BddManager::nvar(unsigned Var) {
  assert(Var < NumVars && "variable out of range");
  return Bdd(this, makeNode(Var, 1, 0));
}

Bdd BddManager::node(unsigned Var, const Bdd &Low, const Bdd &High) {
  assert(Var < NumVars && "variable out of range");
  assert(Low.Mgr == this && High.Mgr == this &&
         "children from a different manager");
  return Bdd(this, makeNode(Var, Low.Idx, High.Idx));
}

BddCube BddManager::makeCube(const std::vector<unsigned> &Vars) {
  CubeSet NewCube;
  NewCube.Vars = Vars;
  std::sort(NewCube.Vars.begin(), NewCube.Vars.end());
  NewCube.Vars.erase(
      std::unique(NewCube.Vars.begin(), NewCube.Vars.end()),
      NewCube.Vars.end());
  for (uint32_t Id = 0; Id < Cubes.size(); ++Id)
    if (Cubes[Id].Vars == NewCube.Vars)
      return BddCube{Id};
  NewCube.InCube.assign(NumVars, 0);
  for (unsigned V : NewCube.Vars) {
    assert(V < NumVars && "cube variable out of range");
    NewCube.InCube[V] = 1;
    NewCube.MinVar = std::min<unsigned>(NewCube.MinVar, V);
  }
  Cubes.push_back(std::move(NewCube));
  return BddCube{uint32_t(Cubes.size() - 1)};
}

BddPerm BddManager::makePermutation(
    const std::vector<std::pair<unsigned, unsigned>> &Pairs) {
  PermSet NewPerm;
  NewPerm.Map.resize(NumVars);
  for (unsigned V = 0; V < NumVars; ++V)
    NewPerm.Map[V] = V;
  for (auto [From, To] : Pairs) {
    assert(From < NumVars && To < NumVars && "permutation var out of range");
    NewPerm.Map[From] = To;
  }
  for (uint32_t Id = 0; Id < Perms.size(); ++Id)
    if (Perms[Id].Map == NewPerm.Map)
      return BddPerm{Id};
  Perms.push_back(std::move(NewPerm));
  return BddPerm{uint32_t(Perms.size() - 1)};
}

Bdd BddManager::cubeBdd(BddCube Cube) {
  assert(Cube.Id < Cubes.size() && "invalid cube");
  uint32_t Result = 1;
  const CubeSet &C = Cubes[Cube.Id];
  // Build bottom-up so each makeNode call has children below it.
  for (auto It = C.Vars.rbegin(); It != C.Vars.rend(); ++It)
    Result = makeNode(*It, 0, Result);
  return Bdd(this, Result);
}

//===----------------------------------------------------------------------===//
// Manager: node table
//===----------------------------------------------------------------------===//

uint64_t BddManager::hashTriple(uint32_t A, uint32_t B, uint32_t C) {
  uint64_t H = (uint64_t(A) << 32) ^ (uint64_t(B) << 16) ^ C;
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

uint32_t BddManager::makeNode(uint32_t Var, uint32_t Low, uint32_t High) {
  // Governor probe: one compare when ungoverned. Probing at entry (before
  // any mutation) makes the throw trivially safe; the poll charges the
  // allocations since the previous poll, so a budget is overrun by at
  // most one probe period per governed manager before tripping.
  if (GovCountdown != 0 && --GovCountdown == 0)
    pollGovernor();
  if (Low == High)
    return Low;
  assert(isTerminal(Low) || varOf(Low) > Var);
  assert(isTerminal(High) || varOf(High) > Var);

  const size_t Bucket = bucketOf(Var, Low, High);
  for (uint32_t N = Buckets[Bucket]; N != Invalid; N = rec(N).Next) {
    const Node &Nd = rec(N);
    if (Nd.Var == Var && Nd.Low == Low && Nd.High == High)
      return N;
  }

  uint32_t N = allocNode();
  rec(N) = Node{Var, Low, High, Buckets[Bucket]};
  refs(N) = 0;
  Buckets[Bucket] = N;
  ++Stats.NodesCreated;

  size_t Live = liveNodeCount();
  Stats.PeakNodes = std::max(Stats.PeakNodes, Live);
  if (Live > (Buckets.size() * 3) / 4)
    growUniqueTable();
  return N;
}

void BddManager::pollGovernor() {
  GovCountdown = Gov->probePeriod();
  uint64_t New = Stats.NodesCreated - GovLastCharged;
  GovLastCharged = Stats.NodesCreated;
  Gov->check(New);
}

uint32_t BddManager::allocNode() {
  // Deterministic OOM drill: fail the K-th allocation exactly, before any
  // structure is touched, as a real allocator would.
  if (FaultFailAfter != 0 && ++FaultAllocs >= FaultFailAfter)
    throw std::bad_alloc();
  if (FreeList != Invalid) {
    uint32_t N = FreeList;
    FreeList = rec(N).Low;
    --NumFree;
    return N;
  }
  // A full store appends a page; records already handed out never move.
  if (NodeEnd == Pages.size() * size_t(NodesPerPage)) {
    Pages.emplace_back(new Node[NodesPerPage]);
    RefPages.emplace_back(new uint32_t[NodesPerPage]);
  }
  // Nodes past the packed cache index range are legal — the computed
  // cache just refuses to store results that mention them.
  return NodeEnd++;
}

void BddManager::insertLiveNodes() {
  for (uint32_t N = 2; N < NodeEnd; ++N) {
    Node &Nd = rec(N);
    if (Nd.Var == TermVar) // Free node.
      continue;
    size_t Bucket = bucketOf(Nd.Var, Nd.Low, Nd.High);
    Nd.Next = Buckets[Bucket];
    Buckets[Bucket] = N;
  }
}

void BddManager::growUniqueTable() {
  // The computed cache keeps its fraction of the table's slots. Growth
  // runs inside makeNode, usually deep in an operation's recursion; the
  // cache's entries stay valid (node indices never move), so they are
  // re-inserted into the doubled cache. An entry of old bucket b lands in
  // new bucket b or b + (old bucket count), so none is evicted and each
  // bucket keeps its promotion order. The cache grows first and frees its
  // old storage before the new table is allocated, so the old cache and
  // the new table are never resident together. If an allocation throws,
  // the table is left as it was and the cache is either already doubled
  // or released; the next operation entry re-allocates a released cache,
  // as it does one released by `clearComputedCache`, which stays
  // released here.
  if (CacheBase) {
    std::vector<CacheEntry> Old;
    Old.swap(Cache);
    const CacheEntry *OldBase = CacheBase;
    const size_t OldSlots = (CacheBucketMask + 1) * CacheWays;
    const uint32_t GenW1 = (CacheGeneration & 31u) << IdxBits;
    const uint32_t GenW2 = (CacheGeneration >> 5) << IdxBits;
    CacheBase = nullptr;
    allocateCache(2 * cacheSlots());
    for (const CacheEntry *E = OldBase; E != OldBase + OldSlots; ++E)
      if ((E->W1 & ~IdxMask) == GenW1 && (E->W2 & ~IdxMask) == GenW2)
        cacheInsert(Op(E->W0 >> IdxBits), E->W0 & IdxMask,
                    E->W1 & IdxMask, E->W2 & IdxMask, E->Result);
  }
  std::vector<uint32_t> Grown(Buckets.size() * 2, Invalid);
  Buckets.swap(Grown);
  std::vector<uint32_t>().swap(Grown);
  insertLiveNodes();
}

bool BddManager::checkUniqueTable() const {
  size_t Entries = 0;
  for (size_t B = 0; B < Buckets.size(); ++B)
    for (uint32_t N = Buckets[B]; N != Invalid; N = rec(N).Next) {
      if (N < 2 || N >= NodeEnd || ++Entries > liveNodeCount())
        return false; // A foreign index, or a cycle.
      const Node &Nd = rec(N);
      if (Nd.Var == TermVar || bucketOf(Nd.Var, Nd.Low, Nd.High) != B)
        return false;
    }
  if (Entries != liveNodeCount())
    return false;
  for (uint32_t N = 2; N < NodeEnd; ++N) {
    const Node &Nd = rec(N);
    if (Nd.Var == TermVar)
      continue;
    uint32_t First = Buckets[bucketOf(Nd.Var, Nd.Low, Nd.High)];
    while (rec(First).Var != Nd.Var || rec(First).Low != Nd.Low ||
           rec(First).High != Nd.High)
      First = rec(First).Next;
    if (First != N)
      return false;
  }
  return true;
}

void BddManager::ref(uint32_t N) { ++refs(N); }

void BddManager::deref(uint32_t N) {
  assert(refs(N) > 0 && "unbalanced deref");
  --refs(N);
}

size_t BddManager::liveNodeCount() const { return NodeEnd - 2 - NumFree; }

uint64_t BddManager::markPasses() {
  return MarkPasses.load(std::memory_order_relaxed);
}

std::vector<uint8_t> BddManager::markReachable() const {
  MarkPasses.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> Marked(NodeEnd, 0);
  Marked[0] = Marked[1] = 1;
  std::vector<uint32_t> Stack;
  for (uint32_t N = 2; N < NodeEnd; ++N)
    if (refs(N) > 0 && rec(N).Var != TermVar)
      Stack.push_back(N);
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    if (N <= 1 || Marked[N])
      continue;
    Marked[N] = 1;
    Stack.push_back(rec(N).Low);
    Stack.push_back(rec(N).High);
  }
  return Marked;
}

BddGauge BddManager::gauge() const {
  std::vector<uint8_t> Marked = markReachable();
  BddGauge G;
  for (uint32_t N = 2; N < NodeEnd; ++N)
    G.Nodes += Marked[N];
  G.NodeBytes = G.Nodes * (sizeof(Node) + 2 * sizeof(uint32_t));
  G.CacheBytes = Cache.size() * sizeof(CacheEntry);
  return G;
}

void BddManager::beginOp() {
  if (GcThreshold != 0 && liveNodeCount() > GcThreshold)
    gc();
  if (!CacheBase)
    allocateCache(cacheSlots());
}

void BddManager::gc() {
  ++Stats.GcRuns;
  std::vector<uint8_t> Marked = markReachable();

  FreeList = Invalid;
  NumFree = 0;
  size_t Reclaimed = 0;
  for (uint32_t N = 2; N < NodeEnd; ++N) {
    if (Marked[N])
      continue;
    Node &Nd = rec(N);
    if (Nd.Var != TermVar)
      ++Reclaimed;
    Nd.Var = TermVar;
    Nd.Low = FreeList;
    FreeList = N;
    ++NumFree;
  }
  std::fill(Buckets.begin(), Buckets.end(), Invalid);
  insertLiveNodes();
  Stats.GcReclaimed += Reclaimed;
  Stats.LiveNodes = liveNodeCount();
  clearCache();

  // If collection freed little, raise the threshold to avoid thrashing.
  if (GcThreshold != 0 && Reclaimed * 4 < GcThreshold)
    GcThreshold *= 2;
}

//===----------------------------------------------------------------------===//
// Manager: computed cache
//===----------------------------------------------------------------------===//

bool BddManager::cacheLookup(Op O, uint32_t F, uint32_t G, uint32_t H,
                             uint32_t &Out) {
  // Keys beyond the packed index range are uncacheable: letting them in
  // would alias the stolen op/generation bits and serve wrong results in
  // NDEBUG builds. Realistic solves never get near 2^27 nodes (2 GB of
  // node table); past it the cache degrades, correctness does not.
  if (((F | G | H) & ~IdxMask) != 0)
    return false;
  ++Stats.OpLookups[uint32_t(O)];
  uint64_t Bucket = (hashTriple(F, G, H) ^ (uint64_t(O) * 0x9e3779b9u)) &
                    CacheBucketMask;
  CacheEntry *Ways = CacheBase + Bucket * CacheWays;
  // The expected packed words fold op and generation into the operand
  // compares, so a probe is the same three compares per way the unpacked
  // layout needed — but the whole 4-way bucket sits in one cache line.
  const uint32_t ExpW0 = F | (uint32_t(O) << IdxBits);
  const uint32_t ExpW1 = G | ((CacheGeneration & 31u) << IdxBits);
  const uint32_t ExpW2 = H | ((CacheGeneration >> 5) << IdxBits);
  for (unsigned W = 0; W < CacheWays; ++W) {
    const CacheEntry &E = Ways[W];
    if (E.W0 == ExpW0 && E.W1 == ExpW1 && E.W2 == ExpW2) {
      ++Stats.OpHits[uint32_t(O)];
      Out = E.Result;
      // Transposition promotion: a hit moves its entry one way toward
      // the bucket front. Re-used entries migrate to the protected front
      // ways; single-use entries churn at the back. This is what keeps
      // *high-value* results (a hit near the recursion root prunes a
      // whole subtree) alive — plain FIFO aging measured 18% more probes
      // on bluetooth 2a2s/k4 because hot top-level entries aged out at
      // the same rate as leaf-level ones.
      if (W != 0)
        std::swap(Ways[W], Ways[W - 1]);
      return true;
    }
  }
  return false;
}

void BddManager::cacheInsert(Op O, uint32_t F, uint32_t G, uint32_t H,
                             uint32_t R) {
  if (((F | G | H) & ~IdxMask) != 0)
    return; // Beyond the packed index range: uncacheable (see lookup).
  uint64_t Bucket = (hashTriple(F, G, H) ^ (uint64_t(O) * 0x9e3779b9u)) &
                    CacheBucketMask;
  CacheEntry *Ways = CacheBase + Bucket * CacheWays;
  // New entries start in the back (probation) way — the least recently
  // useful slot under transposition promotion — except that ways cleared
  // by a generation bump are reclaimed first, so capacity recovers
  // immediately after gc instead of waiting for promotions.
  unsigned Slot = CacheWays - 1;
  const uint32_t GenW1 = (CacheGeneration & 31u) << IdxBits;
  const uint32_t GenW2 = (CacheGeneration >> 5) << IdxBits;
  for (unsigned W = 0; W < CacheWays; ++W) {
    if ((Ways[W].W1 & ~uint32_t(IdxMask)) != GenW1 ||
        (Ways[W].W2 & ~uint32_t(IdxMask)) != GenW2) {
      Slot = W; // Stale generation: an empty way.
      break;
    }
  }
  Ways[Slot] = CacheEntry{F | (uint32_t(O) << IdxBits), G | GenW1,
                          H | GenW2, R};
}

void BddManager::clearCache() {
  // A generation bump is the whole clear: entries stamped with an older
  // generation read as empty. The generation lives in the 10 stolen bits
  // of the entry, so every GenPeriod-th clear falls back to the memset —
  // a recycled generation number must never revive pre-clear entries.
  CacheGeneration = (CacheGeneration + 1) % GenPeriod;
  if (CacheGeneration == 0) {
    std::fill(Cache.begin(), Cache.end(), CacheEntry{});
    CacheGeneration = 1;
  }
}

void BddManager::allocateCache(size_t Slots) {
  // Total slots follow the table regardless of associativity; caches
  // smaller than one bucket clamp the ways.
  CacheWays = unsigned(std::min<size_t>(MaxCacheWays, Slots));
  Cache.assign(Slots + 64 / sizeof(CacheEntry) - 1, CacheEntry{});
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Cache.data());
  CacheBase = Cache.data() + ((64 - (Addr & 63)) & 63) / sizeof(CacheEntry);
  CacheBucketMask = Slots / CacheWays - 1;
  CacheGeneration = 1; // Zeroed entries carry generation 0: all empty.
}

void BddManager::releaseCache() {
  std::vector<CacheEntry>().swap(Cache);
  CacheBase = nullptr;
}

//===----------------------------------------------------------------------===//
// Manager: recursive operation cores
//===----------------------------------------------------------------------===//

uint32_t BddManager::applyRec(Op O, uint32_t F, uint32_t G) {
  // Terminal rules.
  switch (O) {
  case Op::And:
    if (F == 0 || G == 0)
      return 0;
    if (F == 1)
      return G;
    if (G == 1)
      return F;
    if (F == G)
      return F;
    break;
  case Op::Or:
    if (F == 1 || G == 1)
      return 1;
    if (F == 0)
      return G;
    if (G == 0)
      return F;
    if (F == G)
      return F;
    break;
  case Op::Xor:
    if (F == G)
      return 0;
    if (F == 0)
      return G;
    if (G == 0)
      return F;
    if (F == 1)
      return notRec(G);
    if (G == 1)
      return notRec(F);
    break;
  default:
    assert(false && "applyRec only handles And/Or/Xor");
  }

  if (F > G)
    std::swap(F, G); // All three ops are commutative.

  uint32_t Result;
  if (cacheLookup(O, F, G, 0, Result))
    return Result;

  uint32_t FVar = varOf(F), GVar = varOf(G);
  uint32_t Top = std::min(FVar, GVar);
  uint32_t F0 = FVar == Top ? lowOf(F) : F;
  uint32_t F1 = FVar == Top ? highOf(F) : F;
  uint32_t G0 = GVar == Top ? lowOf(G) : G;
  uint32_t G1 = GVar == Top ? highOf(G) : G;

  uint32_t Low = applyRec(O, F0, G0);
  uint32_t High = applyRec(O, F1, G1);
  Result = makeNode(Top, Low, High);
  cacheInsert(O, F, G, 0, Result);
  return Result;
}

uint32_t BddManager::notRec(uint32_t F) {
  if (F == 0)
    return 1;
  if (F == 1)
    return 0;
  uint32_t Result;
  if (cacheLookup(Op::Not, F, 0, 0, Result))
    return Result;
  Result = makeNode(varOf(F), notRec(lowOf(F)), notRec(highOf(F)));
  cacheInsert(Op::Not, F, 0, 0, Result);
  return Result;
}

uint32_t BddManager::iteRec(uint32_t F, uint32_t G, uint32_t H) {
  if (F == 1)
    return G;
  if (F == 0)
    return H;
  if (G == H)
    return G;
  if (G == 1 && H == 0)
    return F;
  if (G == 0 && H == 1)
    return notRec(F);

  uint32_t Result;
  if (cacheLookup(Op::Ite, F, G, H, Result))
    return Result;

  uint32_t Top = varOf(F);
  if (!isTerminal(G))
    Top = std::min(Top, varOf(G));
  if (!isTerminal(H))
    Top = std::min(Top, varOf(H));

  auto Cofactor = [&](uint32_t N, bool High) {
    if (isTerminal(N) || varOf(N) != Top)
      return N;
    return High ? highOf(N) : lowOf(N);
  };

  uint32_t Low = iteRec(Cofactor(F, false), Cofactor(G, false),
                        Cofactor(H, false));
  uint32_t High = iteRec(Cofactor(F, true), Cofactor(G, true),
                         Cofactor(H, true));
  Result = makeNode(Top, Low, High);
  cacheInsert(Op::Ite, F, G, H, Result);
  return Result;
}

uint32_t BddManager::existsRec(uint32_t F, uint32_t CubeId) {
  if (isTerminal(F))
    return F;
  const CubeSet &C = Cubes[CubeId];
  uint32_t V = varOf(F);
  // All quantified variables are above this node: nothing to do.
  if (!C.Vars.empty() && V > C.Vars.back())
    return F;

  uint32_t Result;
  if (cacheLookup(Op::Exists, F, CubeId, 0, Result))
    return Result;

  if (V < C.InCube.size() && C.InCube[V]) {
    uint32_t Low = existsRec(lowOf(F), CubeId);
    if (Low == 1) {
      Result = 1;
    } else {
      uint32_t High = existsRec(highOf(F), CubeId);
      Result = applyRec(Op::Or, Low, High);
    }
  } else {
    Result = makeNode(V, existsRec(lowOf(F), CubeId),
                      existsRec(highOf(F), CubeId));
  }
  cacheInsert(Op::Exists, F, CubeId, 0, Result);
  return Result;
}

uint32_t BddManager::andExistsRec(uint32_t F, uint32_t G, uint32_t CubeId) {
  if (F == 0 || G == 0)
    return 0;
  if (F == 1 && G == 1)
    return 1;
  if (F == 1)
    return existsRec(G, CubeId);
  if (G == 1)
    return existsRec(F, CubeId);
  if (F == G)
    return existsRec(F, CubeId);
  if (F > G)
    std::swap(F, G);

  const CubeSet &C = Cubes[CubeId];
  uint32_t Top = std::min(varOf(F), varOf(G));
  // Below all quantified variables: plain conjunction.
  if (!C.Vars.empty() && Top > C.Vars.back())
    return applyRec(Op::And, F, G);

  uint32_t Result;
  if (cacheLookup(Op::AndExists, F, G, CubeId, Result))
    return Result;

  uint32_t F0 = varOf(F) == Top ? lowOf(F) : F;
  uint32_t F1 = varOf(F) == Top ? highOf(F) : F;
  uint32_t G0 = varOf(G) == Top ? lowOf(G) : G;
  uint32_t G1 = varOf(G) == Top ? highOf(G) : G;

  if (Top < C.InCube.size() && C.InCube[Top]) {
    uint32_t Low = andExistsRec(F0, G0, CubeId);
    if (Low == 1) {
      Result = 1;
    } else {
      uint32_t High = andExistsRec(F1, G1, CubeId);
      Result = applyRec(Op::Or, Low, High);
    }
  } else {
    Result = makeNode(Top, andExistsRec(F0, G0, CubeId),
                      andExistsRec(F1, G1, CubeId));
  }
  cacheInsert(Op::AndExists, F, G, CubeId, Result);
  return Result;
}

uint32_t BddManager::renameRec(uint32_t F, uint32_t PermId) {
  if (isTerminal(F))
    return F;
  uint32_t Result;
  if (cacheLookup(Op::Rename, F, PermId, 0, Result))
    return Result;

  uint32_t Low = renameRec(lowOf(F), PermId);
  uint32_t High = renameRec(highOf(F), PermId);
  uint32_t NewVar = Perms[PermId].Map[varOf(F)];
  // The renamed node is already ordered when its variable sits above both
  // renamed children (terminals sit below everything) — the common case
  // of a layout that places each copy next to the variable it renames.
  // Only a node the rename really moves past a child's top variable (or
  // onto it, for a many-to-one map) is rebuilt with ite.
  if (NewVar < varOf(Low) && NewVar < varOf(High))
    Result = makeNode(NewVar, Low, High);
  else
    Result = iteRec(makeNode(NewVar, 0, 1), High, Low);
  cacheInsert(Op::Rename, F, PermId, 0, Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// BddImporter
//===----------------------------------------------------------------------===//

Bdd BddImporter::import(const Bdd &F) {
  if (F.isNull())
    return Bdd();
  assert(F.manager() == &Src && "importing a foreign manager's BDD");
  // A source collection may have freed (and later reused) node indices the
  // memo still mentions; translations keyed on them would silently map a
  // *different* function. Entries are only trusted within one source
  // generation.
  if (Src.Stats.GcRuns != SrcGcRuns) {
    clear();
    SrcGcRuns = Src.Stats.GcRuns;
  }
  return Bdd(&Dst, importRec(F.rawIndex()));
}

void BddImporter::clear() {
  for (const Entry &E : Table)
    if (E.From != 0)
      Dst.deref(E.To);
  Table = std::vector<Entry>();
  TableBits = 0;
  Used = 0;
}

BddImporter::Entry &BddImporter::slot(uint32_t N) {
  // Fibonacci hashing: the top bits of the product spread the runs of
  // neighbouring indices a dag walk produces; linear probing then stays
  // within a cache line or two at this load.
  size_t Mask = Table.size() - 1;
  size_t I = size_t((uint64_t(N) * 0x9e3779b97f4a7c15ull) >> (64 - TableBits));
  while (Table[I].From != 0 && Table[I].From != N)
    I = (I + 1) & Mask;
  return Table[I];
}

void BddImporter::grow() {
  // Allocate before touching the table, so a failed allocation leaves
  // every entry (and its pin) in place.
  unsigned Bits = Table.empty() ? 8 : TableBits + 1;
  std::vector<Entry> Old(size_t(1) << Bits);
  Old.swap(Table);
  TableBits = Bits;
  for (const Entry &E : Old)
    if (E.From != 0)
      slot(E.From) = E;
}

uint32_t BddImporter::importRec(uint32_t N) {
  if (N <= 1)
    return N; // Terminals share indices 0/1 in every manager.
  if (!Table.empty()) {
    const Entry &Hit = slot(N);
    if (Hit.From == N)
      return Hit.To;
  }
  const BddManager::Node &Node = Src.rec(N);
  // Post-order: children are memoized (hence pinned in the destination)
  // before the parent is built, so nothing here can be collected
  // mid-import — and makeNode never runs GC anyway.
  uint32_t Low = importRec(Node.Low);
  uint32_t High = importRec(Node.High);
  uint32_t Result = Dst.makeNode(Node.Var, Low, High);
  if (2 * (Used + 1) > Table.size())
    grow();
  slot(N) = Entry{N, Result};
  Dst.ref(Result);
  ++Used;
  ++NumTranslations;
  return Result;
}
