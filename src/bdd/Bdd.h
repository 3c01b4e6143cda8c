//===- Bdd.h - Reduced ordered binary decision diagrams ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch shared-node ROBDD package. This stands in for the BDD
/// engine inside MUCKE (the paper's fixed-point solver) and provides the
/// complete operation set the symbolic algorithms need:
///
///   - apply (and / or / xor), negation, if-then-else
///   - existential and universal quantification over interned cubes
///   - the and-exists relational product (the image-computation workhorse),
///     also fused with an order-keeping rename of its first operand
///   - variable renaming via interned permutations (building each renamed
///     node directly wherever the rename keeps it above its children)
///   - sat-counting, support computation, dag-size counting, evaluation,
///     and a node-free intersection test
///
/// Memory is managed with external reference counts held by the RAII `Bdd`
/// handle plus a mark-and-sweep collector that runs only at operation entry
/// (never mid-recursion), so internal intermediate results are always safe.
///
/// Storage: nodes and their reference counts live in fixed-size pages
/// that are appended and never moved; the unique table chains nodes
/// through their records; and the computed cache is sized from the unique
/// table, growing with it.
///
/// Variable index == variable order level; the symbolic layer computes a
/// good static order up front (as Getafix does) instead of reordering
/// dynamically.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_BDD_BDD_H
#define GETAFIX_BDD_BDD_H

#include "support/ResourceGovernor.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace getafix {

class BddManager;

/// Handle to an interned quantification cube (a set of variables).
struct BddCube {
  uint32_t Id = UINT32_MAX;
  bool isValid() const { return Id != UINT32_MAX; }
};

/// Handle to an interned variable permutation.
struct BddPerm {
  uint32_t Id = UINT32_MAX;
  bool isValid() const { return Id != UINT32_MAX; }
};

/// The cached BDD operations, in computed-cache tag order. Public so the
/// per-op cache counters in `BddStats` can be indexed and named by
/// callers (`getafix --stats`, the benchmark drivers).
enum class BddOp : uint32_t {
  And = 0,
  Or,
  Xor,
  Not,
  Ite,
  Exists,
  AndExists,
  Rename,
  /// Never probed: no operation uses these three tags any more. Kept
  /// only because the benchmark, whose `perfbench/` sources are frozen,
  /// lists one `bdd.hit_rate.<op>` metric per tag below `NumBddOps`
  /// (`perfbench/perfbench.cpp:122`) and its self-test fails on a listed
  /// metric that is never printed; delete them with those metrics.
  Frontier,
  Constrain,
  Restrict,
};

constexpr unsigned NumBddOps = 11;

/// Short stable name for \p Op ("And", "AndExists", ...).
const char *bddOpName(BddOp Op);

/// Rows of the node attribution `BddStats::OpNodes`: one per `BddOp`
/// (the top-level operation that created the node), then one for the
/// nodes a `BddImporter` translates into the manager and one for direct
/// builds (`var`, `nvar`, `node`, `cubeBdd`).
constexpr unsigned NodeRowImport = NumBddOps;
constexpr unsigned NodeRowBuild = NumBddOps + 1;
constexpr unsigned NumNodeRows = NumBddOps + 2;

/// Short stable name for node-attribution row \p Row: `bddOpName` for an
/// op row, else "Import" or "Build".
const char *nodeRowName(unsigned Row);

/// RAII handle to a BDD node. Copyable; keeps the node (and everything it
/// reaches) alive across garbage collections.
class Bdd {
public:
  Bdd() = default;
  Bdd(const Bdd &Other);
  Bdd(Bdd &&Other) noexcept;
  Bdd &operator=(const Bdd &Other);
  Bdd &operator=(Bdd &&Other) noexcept;
  ~Bdd();

  bool isNull() const { return Mgr == nullptr; }
  bool isZero() const;
  bool isOne() const;
  bool isConst() const { return isZero() || isOne(); }

  /// Structural equality: canonicity makes this semantic equivalence.
  bool operator==(const Bdd &Other) const {
    return Mgr == Other.Mgr && Idx == Other.Idx;
  }
  bool operator!=(const Bdd &Other) const { return !(*this == Other); }

  Bdd operator&(const Bdd &Other) const;
  Bdd operator|(const Bdd &Other) const;
  Bdd operator^(const Bdd &Other) const;
  Bdd operator!() const;
  Bdd &operator&=(const Bdd &Other) { return *this = *this & Other; }
  Bdd &operator|=(const Bdd &Other) { return *this = *this | Other; }
  Bdd &operator^=(const Bdd &Other) { return *this = *this ^ Other; }

  /// Boolean implication: (!*this) | Other.
  Bdd implies(const Bdd &Other) const { return (!*this) | Other; }
  /// Boolean equivalence: !(*this ^ Other).
  Bdd iff(const Bdd &Other) const { return !(*this ^ Other); }

  /// If-then-else with *this as the condition.
  Bdd ite(const Bdd &Then, const Bdd &Else) const;

  /// Existentially quantifies the variables of \p Cube.
  Bdd exists(BddCube Cube) const;
  /// Universally quantifies the variables of \p Cube.
  Bdd forall(BddCube Cube) const;
  /// Computes exists Cube. (*this & Other) without building the conjunction.
  Bdd andExists(const Bdd &Other, BddCube Cube) const;
  /// Computes exists Cube. (this->permute(Perm) & Other) without building
  /// the renamed copy: one recursion that splits *this at the renamed
  /// image of its top variable and \p Other at its own. Valid only when
  /// \p Perm is strictly increasing on this function's support (it then
  /// keeps the variable order, so the renamed top is the image of the top);
  /// a Debug build asserts it. Cached under `BddOp::AndExists`.
  Bdd andExistsRenamed(BddPerm Perm, const Bdd &Other, BddCube Cube) const;
  /// Renames variables according to the interned permutation: a
  /// simultaneous substitution, so two variables may map onto one. Nodes
  /// the rename keeps above their children are rebuilt directly; only
  /// those it moves past a child's top variable go through ite.
  Bdd permute(BddPerm Perm) const;

  /// Number of satisfying assignments over \p NumVars variables.
  double satCount(unsigned NumVars) const;
  /// Number of distinct nodes in this BDD's dag (terminals excluded).
  size_t nodeCount() const;
  /// Sorted list of variables this function depends on.
  std::vector<unsigned> support() const;
  /// Evaluates under a total assignment (indexed by variable).
  bool eval(const std::vector<bool> &Assignment) const;
  /// Whether the two functions share a satisfying assignment: the answer
  /// of `!(*this & Other).isZero()` without building the conjunction. A
  /// read-only walk of both dags that creates no node and never probes
  /// the computed cache. Against a cube (a conjunction of literals, a
  /// minterm included) it is one walk down this dag; in general it visits
  /// each pair of nodes at most once per split of the walk.
  bool intersects(const Bdd &Other) const;
  /// One satisfying partial assignment: -1 don't-care, 0 false, 1 true.
  /// Requires a non-zero BDD.
  std::vector<int8_t> onePath() const;

  BddManager *manager() const { return Mgr; }
  uint32_t rawIndex() const { return Idx; }

private:
  friend class BddManager;
  friend class BddImporter;
  Bdd(BddManager *Mgr, uint32_t Idx);

  BddManager *Mgr = nullptr;
  uint32_t Idx = 0;
};

/// Operation counters for benchmarking and regression tests.
struct BddStats {
  uint64_t CacheLookups = 0; ///< Aggregate over all ops.
  uint64_t CacheHits = 0;    ///< Aggregate over all ops.
  /// Per-operation computed-cache probe/hit counters, indexed by `BddOp`.
  /// `CacheLookups`/`CacheHits` stay the running totals so existing
  /// consumers keep working; these split the same events by operation.
  uint64_t OpLookups[NumBddOps] = {};
  uint64_t OpHits[NumBddOps] = {};
  /// Nodes created, by the top-level public operation that created them
  /// (rows: `nodeRowName`); the rows sum to `NodesCreated`. A product's
  /// inner disjunctions count for the product, a rename's inner ite for
  /// the rename.
  uint64_t OpNodes[NumNodeRows] = {};
  uint64_t NodesCreated = 0;
  uint64_t GcRuns = 0;
  uint64_t GcReclaimed = 0;
  size_t LiveNodes = 0;
  size_t PeakNodes = 0;

  /// Accumulates \p Other into *this: counters are summed, and the gauges
  /// (LiveNodes, PeakNodes) are summed too — merging per-worker managers
  /// reports the *total* footprint across managers, which is the number a
  /// memory budget cares about (the per-manager peaks need not have
  /// coincided, so the sum is an upper bound on the simultaneous peak).
  void merge(const BddStats &Other) {
    CacheLookups += Other.CacheLookups;
    CacheHits += Other.CacheHits;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      OpLookups[I] += Other.OpLookups[I];
      OpHits[I] += Other.OpHits[I];
    }
    for (unsigned I = 0; I < NumNodeRows; ++I)
      OpNodes[I] += Other.OpNodes[I];
    NodesCreated += Other.NodesCreated;
    GcRuns += Other.GcRuns;
    GcReclaimed += Other.GcReclaimed;
    LiveNodes += Other.LiveNodes;
    PeakNodes += Other.PeakNodes;
  }

  /// The counter delta `*this - Before` for the monotonically increasing
  /// counters; gauges (LiveNodes, PeakNodes) keep this snapshot's values.
  /// Query sessions report per-query work on a shared manager this way.
  BddStats since(const BddStats &Before) const {
    BddStats D = *this;
    D.CacheLookups -= Before.CacheLookups;
    D.CacheHits -= Before.CacheHits;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      D.OpLookups[I] -= Before.OpLookups[I];
      D.OpHits[I] -= Before.OpHits[I];
    }
    for (unsigned I = 0; I < NumNodeRows; ++I)
      D.OpNodes[I] -= Before.OpNodes[I];
    D.NodesCreated -= Before.NodesCreated;
    D.GcRuns -= Before.GcRuns;
    D.GcReclaimed -= Before.GcReclaimed;
    return D;
  }
};

/// One reading of the memory gauges of one or more managers, taken with a
/// single mark pass per manager (`BddManager::gauge`). Sessions sample
/// it at the end of each query and answer every later read from it: the
/// sample stays exact until the next operation on the manager.
struct BddGauge {
  /// Nodes reachable from external references: what `gc()` would keep.
  size_t Nodes = 0;
  /// Their storage share: node record, reference count, one table slot.
  size_t NodeBytes = 0;
  /// Computed caches as allocated; 0 for a released cache.
  size_t CacheBytes = 0;

  /// The footprint estimate: live working set plus caches.
  size_t bytes() const { return NodeBytes + CacheBytes; }
  BddGauge &operator+=(const BddGauge &Other) {
    Nodes += Other.Nodes;
    NodeBytes += Other.NodeBytes;
    CacheBytes += Other.CacheBytes;
    return *this;
  }
};

/// Owns the node pages, the unique table, and the computed cache.
class BddManager {
public:
  /// The unique table starts at 2^12 slots and doubles as nodes
  /// accumulate; the computed cache holds `tableSlots() >> CacheShift`
  /// entries and doubles with it, for the manager's whole lifetime. The
  /// default (1) keeps the cache at half the table's slots, so a manager
  /// holding 50 k nodes has a cache of its own scale instead of one sized
  /// for millions. Tests and microbenchmarks pass other ratios to pin a
  /// cache that is small (or large) relative to the nodes — from 12, one
  /// entry per 4096 table slots, to 0, one entry per slot. The cache
  /// never outgrows the table.
  ///
  /// The cache is set-associative with \p CacheWays ways per bucket
  /// (power of two; 1 = direct-mapped, 4 = the default; caches smaller
  /// than one bucket clamp it). Buckets age by transposition promotion:
  /// new entries enter the back (probation) way, a hit moves its entry
  /// one way toward the front, and insertion replaces the back way (or a
  /// generation-stale one). Re-used results therefore survive conflict
  /// pressure instead of being evicted by whatever hashed onto their slot
  /// last — the direct-mapped failure mode that cost heavy solves a
  /// round's working set per round.
  explicit BddManager(unsigned NumVars = 0, unsigned CacheShift = 1,
                      unsigned CacheWays = 4);
  ~BddManager();

  BddManager(const BddManager &) = delete;
  BddManager &operator=(const BddManager &) = delete;

  /// Appends a fresh variable at the bottom of the order; returns its index.
  unsigned newVar();
  unsigned numVars() const { return NumVars; }

  Bdd zero() { return Bdd(this, 0); }
  Bdd one() { return Bdd(this, 1); }
  /// The literal for variable \p Var (must be < numVars()).
  Bdd var(unsigned Var);
  /// The negative literal for variable \p Var.
  Bdd nvar(unsigned Var);
  /// The unique node branching on \p Var to \p Low (Var false) and \p High
  /// (Var true) — one unique-table probe, no computed-cache traffic. \p Var
  /// must sit above both children's top variables.
  Bdd node(unsigned Var, const Bdd &Low, const Bdd &High);

  /// Interns a quantification cube. Variables may be unsorted; duplicates
  /// are ignored. Equal sets share one id. A linear scan of the interned
  /// cubes: intern once per use site, not per operation.
  BddCube makeCube(const std::vector<unsigned> &Vars);
  /// Interns a permutation given as (from, to) pairs. Unlisted variables map
  /// to themselves. The from side must be duplicate-free; targets may
  /// repeat (a many-to-one substitution). A linear scan, like `makeCube`.
  BddPerm makePermutation(
      const std::vector<std::pair<unsigned, unsigned>> &Pairs);

  /// Conjunction of positive literals of the cube's variables.
  Bdd cubeBdd(BddCube Cube);

  /// Runs mark-and-sweep now. Only call between operations (the public
  /// operation entry points do this automatically when the table grows).
  void gc();

  /// Sets the live-node threshold that triggers automatic gc at operation
  /// entry. Zero disables automatic collection.
  void setGcThreshold(size_t Nodes) { GcThreshold = Nodes; }
  /// The current automatic-gc threshold (collection runs may have raised
  /// it past the configured value). Per-worker managers of a parallel
  /// solve are sized from the main manager's knobs via this getter.
  size_t gcThreshold() const { return GcThreshold; }

  /// Number of computed-cache slots: a fixed fraction of the unique
  /// table's slots (half, by default), so it grows as the manager does
  /// (and reads the same while a cleared cache awaits re-allocation).
  /// Callers that adapt their algorithms to cache pressure compare
  /// working-set sizes to this, re-reading it as they go.
  size_t cacheSlots() const { return Buckets.size() >> CacheShift; }
  /// Associativity of the computed cache (ways per bucket).
  unsigned cacheWays() const {
    return unsigned(std::min<size_t>(MaxCacheWays, cacheSlots()));
  }
  /// Buckets of the unique table: a power of two, and never fewer than
  /// 4/3 of the live nodes.
  size_t tableSlots() const { return Buckets.size(); }

  /// Nodes per page of the node store. Pages are allocated whole as the
  /// node count passes each multiple and are never moved or freed.
  static constexpr uint32_t NodesPerPage = 1u << 16;
  /// Consistency check of the unique table, for tests: every live node is
  /// found by looking up its own triple — which also means no triple has
  /// two nodes, since a lookup stops at its first match — and the chains
  /// hold no other entries.
  bool checkUniqueTable() const;

  /// Installs (or, with null, removes) a resource governor. `makeNode`
  /// then probes it every `probePeriod()` calls — charging the batch to
  /// the governor's shared node counter and throwing `ResourceInterrupt`
  /// when a deadline, node budget, or cancel flag has tripped. A throw
  /// from `makeNode` is safe: the manager's structures are consistent at
  /// every makeNode entry and GC never runs mid-recursion, so any partial
  /// operation's nodes are simply unreferenced garbage for the next
  /// collection. With no governor the probe is one compare of a zero
  /// counter per call.
  void setGovernor(support::ResourceGovernor *G) {
    Gov = G;
    GovCountdown = G ? G->probePeriod() : 0;
    GovLastCharged = Stats.NodesCreated;
  }
  support::ResourceGovernor *governor() const { return Gov; }

  /// Deterministic fault injection: the \p K-th `allocNode` from now (and
  /// every allocation after it) throws `std::bad_alloc`, emulating memory
  /// exhaustion at an exact, reproducible point. 0 disarms. Also armed at
  /// construction from the environment variable
  /// `GETAFIX_FAULT_ALLOC_AFTER=K` so whole-process fault drills (the CI
  /// daemon smoke) need no code changes.
  void setFailAfterAllocations(uint64_t K) {
    FaultFailAfter = K;
    FaultAllocs = 0;
  }

  /// Drops every computed-cache entry and releases the cache's storage;
  /// the next operation re-allocates it, empty, at the size the unique
  /// table then implies. Results computed before and after are
  /// identical: this is the memory valve of long-lived sessions, which
  /// shed the cache of an idle manager and keep its nodes.
  void clearComputedCache() { releaseCache(); }

  /// Counter snapshot. The hot path maintains only the per-op cache
  /// counters; the aggregate CacheLookups/CacheHits are summed here.
  BddStats stats() const {
    BddStats S = Stats;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      S.CacheLookups += S.OpLookups[I];
      S.CacheHits += S.OpHits[I];
    }
    return S;
  }
  /// Allocated node records, garbage awaiting the next collection
  /// included.
  size_t liveNodeCount() const;

  /// The memory gauges of this manager right now, from one mark-only pass
  /// (no sweep, no free-list churn, no cache invalidation): the nodes
  /// reachable from external references — the count `gc()` would leave
  /// behind — and the estimated heap bytes of them and of the computed
  /// cache as currently allocated (nothing after `clearComputedCache`).
  /// `liveNodeCount()` also counts garbage that merely awaits the next
  /// collection, which badly inflates long-lived sessions whose
  /// automatic-gc threshold is never reached; resident-memory gauges use
  /// this instead. The bytes are an estimate, not RSS: free-listed node
  /// slots, the table's empty slots and the interned cube/permutation
  /// tables are ignored. Costs a mark pass over the node table — take it
  /// at query boundaries, not per operation.
  BddGauge gauge() const;

  /// Mark passes run so far by every manager of the process, collections
  /// and `gauge()` readings alike. Tests read it to pin how often a
  /// request walks whole node tables.
  static uint64_t markPasses();

private:
  friend class Bdd;

  /// One node record: 16 bytes, so records never straddle a cache line.
  /// A free record has Var == TermVar and chains the free list through
  /// Low. Reference counts live in pages of their own, off the lookup
  /// path.
  struct Node {
    uint32_t Var;
    uint32_t Low;
    uint32_t High;
    uint32_t Next; ///< Unique-table chain.
  };
  static constexpr unsigned PageBits = 16;
  static_assert(NodesPerPage == 1u << PageBits, "page geometry");

  using Op = BddOp;

  /// One computed-cache entry, packed to 16 bytes so a 4-way bucket is
  /// exactly one 64-byte cache line (the probe path is memory-bound; a
  /// wider entry made every bucket scan touch two lines and cost more
  /// than the associativity saved). Node/cube/perm indices realistically
  /// stay far below 2^27 (2 GB of node table); keys mentioning larger
  /// indices are simply not cached, which frees the top 5 bits of each
  /// operand word: W0 carries the op tag, W1/W2 carry the 10-bit cache
  /// generation. An entry is valid only when its generation matches the
  /// manager's — comparing the packed words checks operands, op, and
  /// generation in the same three compares the unpacked layout needed.
  struct CacheEntry {
    uint32_t W0 = 0; ///< F | op << IdxBits.
    uint32_t W1 = 0; ///< G | (gen & 31) << IdxBits.
    uint32_t W2 = 0; ///< H | (gen >> 5) << IdxBits; H is the third
                     ///< operand (ite) or cube/perm id.
    uint32_t Result = 0;
  };

  static constexpr unsigned IdxBits = 27;
  static constexpr uint32_t IdxMask = (1u << IdxBits) - 1;
  static constexpr uint32_t GenPeriod = 1u << 10; ///< 5+5 stolen bits.
  /// Fused products share the `AndExists` tag; their third operand is the
  /// interned (cube, perm) pair's id plus this bit. `makeCube` keeps cube
  /// ids below it, so no fused key equals a plain product's cube.
  static constexpr uint32_t FusedKeyBit = 1u << (IdxBits - 1);

  struct CubeSet {
    std::vector<unsigned> Vars;   ///< Sorted.
    std::vector<uint8_t> InCube;  ///< Indexed by variable.
    unsigned MinVar = UINT32_MAX; ///< Smallest quantified variable.
  };

  struct PermSet {
    std::vector<uint32_t> Map; ///< Indexed by variable; identity elsewhere.
    /// (cube id, cache key) of each fused product that renamed by this
    /// permutation: a use site fuses it with one or two cubes.
    std::vector<std::pair<uint32_t, uint32_t>> Fused;
  };

  static constexpr uint32_t TermVar = UINT32_MAX;
  static constexpr uint32_t Invalid = UINT32_MAX;

  // Node access -----------------------------------------------------------
  Node &rec(uint32_t N) {
    return Pages[N >> PageBits][N & (NodesPerPage - 1)];
  }
  const Node &rec(uint32_t N) const {
    return Pages[N >> PageBits][N & (NodesPerPage - 1)];
  }
  uint32_t &refs(uint32_t N) {
    return RefPages[N >> PageBits][N & (NodesPerPage - 1)];
  }
  uint32_t refs(uint32_t N) const {
    return RefPages[N >> PageBits][N & (NodesPerPage - 1)];
  }
  uint32_t varOf(uint32_t N) const { return rec(N).Var; }
  uint32_t lowOf(uint32_t N) const { return rec(N).Low; }
  uint32_t highOf(uint32_t N) const { return rec(N).High; }
  bool isTerminal(uint32_t N) const { return N <= 1; }

  uint32_t makeNode(uint32_t Var, uint32_t Low, uint32_t High);
  uint32_t allocNode();
  /// Re-arms the probe countdown and forwards the elapsed batch to the
  /// governor (which throws `ResourceInterrupt` on a tripped limit).
  void pollGovernor();
  static uint64_t hashTriple(uint32_t A, uint32_t B, uint32_t C);

  // Unique table ----------------------------------------------------------
  size_t bucketOf(uint32_t Var, uint32_t Low, uint32_t High) const {
    return hashTriple(Var, Low, High) & (Buckets.size() - 1);
  }
  /// Chains every live node into the table, which must be empty.
  void insertLiveNodes();
  /// Doubles the unique table and, with it, the computed cache, whose
  /// entries carry over.
  void growUniqueTable();

  // Computed cache --------------------------------------------------------
  bool cacheLookup(Op O, uint32_t F, uint32_t G, uint32_t H, uint32_t &Out);
  void cacheInsert(Op O, uint32_t F, uint32_t G, uint32_t H, uint32_t R);
  /// Invalidates every entry by bumping the generation, keeping storage.
  void clearCache();
  /// Allocates an empty cache of \p Slots entries: `cacheSlots()`, or
  /// twice that while the table grows.
  void allocateCache(size_t Slots);
  /// Frees the cache's storage; `beginOp` re-allocates it.
  void releaseCache();

  // Recursive cores (raw indices; never trigger gc) ------------------------
  uint32_t applyRec(Op O, uint32_t F, uint32_t G);
  uint32_t notRec(uint32_t F);
  uint32_t iteRec(uint32_t F, uint32_t G, uint32_t H);
  uint32_t existsRec(uint32_t F, uint32_t CubeId);
  uint32_t andExistsRec(uint32_t F, uint32_t G, uint32_t CubeId);
  /// exists Cube. (F[Perm] & G); \p Key is the cache's third operand.
  uint32_t andExistsRenamedRec(uint32_t F, uint32_t G, uint32_t CubeId,
                               uint32_t PermId, uint32_t Key);
  uint32_t renameRec(uint32_t F, uint32_t PermId);

  /// Operation entry: collects when over the gc threshold, allocates the
  /// computed cache if `clearComputedCache` released it, and charges the
  /// nodes created until the next entry to attribution row \p Row.
  void beginOp(unsigned Row);
  /// Mark phase shared by `gc()` and `reachableNodeCount()`: a byte per
  /// node slot, 1 where the node is reachable from an external reference
  /// (terminals included).
  std::vector<uint8_t> markReachable() const;
  void ref(uint32_t N);
  void deref(uint32_t N);

  // Data ------------------------------------------------------------------
  /// The node store: records [0, NodeEnd) in pages of NodesPerPage, so
  /// growth appends a page instead of copying the store, and a node's
  /// address is stable for the manager's lifetime. `RefPages` holds the
  /// reference counts in the same geometry.
  std::vector<std::unique_ptr<Node[]>> Pages;
  std::vector<std::unique_ptr<uint32_t[]>> RefPages;
  uint32_t NodeEnd = 0;        ///< One past the highest record in use.
  uint32_t FreeList = Invalid; ///< Chained through Node::Low.
  size_t NumFree = 0;
  unsigned NumVars = 0;

  /// Unique table: chain heads (Invalid when empty), power-of-two size.
  std::vector<uint32_t> Buckets;

  /// Backing storage, over-allocated by up to one bucket so `CacheBase`
  /// can sit on a 64-byte boundary — `operator new` only guarantees
  /// 16-byte alignment, and a misaligned 4-way bucket straddles two cache
  /// lines, which measurably slows the (memory-bound) probe path. Empty
  /// while released; then `CacheBase` is null.
  std::vector<CacheEntry> Cache;
  CacheEntry *CacheBase = nullptr; ///< 64-byte-aligned first bucket.
  uint64_t CacheBucketMask = 0; ///< Bucket index mask (buckets × ways = size).
  unsigned CacheWays = 4;       ///< Ways of the allocated cache.
  unsigned MaxCacheWays = 4;    ///< Requested associativity.
  unsigned CacheShift = 1; ///< log2(table slots / cache slots).
  static constexpr unsigned InitialTableBits = 12;
  uint32_t CacheGeneration = 1; ///< Entries with an older gen are empty.

  std::vector<CubeSet> Cubes;
  std::vector<PermSet> Perms;
  uint32_t NumFusedKeys = 0; ///< (cube, perm) pairs interned so far.

  /// Attribution row (`BddStats::OpNodes`) of the nodes `makeNode`
  /// creates: set by every entry point that can create one.
  unsigned NodeRow = NodeRowBuild;

  size_t GcThreshold = 1u << 22;
  BddStats Stats;

  /// Resource governance: probe every `Gov->probePeriod()` makeNode calls.
  /// `GovCountdown == 0` means "no governor" so the ungoverned hot path
  /// pays one compare, never a decrement.
  support::ResourceGovernor *Gov = nullptr;
  uint32_t GovCountdown = 0;
  uint64_t GovLastCharged = 0; ///< NodesCreated at the previous poll.

  /// Fault injection (deterministic alloc-failure drills); 0 = disarmed.
  uint64_t FaultFailAfter = 0;
  uint64_t FaultAllocs = 0;

  friend class BddImporter;
};

/// Cached cross-manager import: copies BDDs from one manager into another
/// that shares the same variable order (variable index == level in both).
/// This is the translation layer under the parallel SCC scheduler's
/// per-worker managers — a worker solves its SCC in isolation, then its
/// relation values are imported into the main manager, where canonicity
/// makes them bit-identical to the BDDs a sequential solve would have
/// built (the imported function is the same, the order is the same, and a
/// ROBDD is unique for a function and an order).
///
/// The memo is a flat open-addressed table of (source index, destination
/// index) pairs, with no allocation per entry; it doubles when half full,
/// so its memory follows the entries it holds, not the size of either
/// manager. Each entry pins its destination node with one external
/// reference, held until `clear()` or the importer's destruction drops
/// it, so destination GC can never invalidate an entry. Source-side
/// validity is generation-checked instead: a source GC may free and
/// later reuse node indices, so the whole memo is dropped whenever the
/// source manager's collection count changes.
///
/// Thread discipline: an importer (and both its managers) must be
/// externally synchronized — the parallel scheduler serializes every
/// main-manager touch (imports of inputs, exports of solved SCCs, and
/// the pins of the worker-to-main importer) behind one mutex, while
/// worker managers are only ever touched by the worker that owns them.
/// The destination manager must outlive the importer.
class BddImporter {
public:
  BddImporter(BddManager &Src, BddManager &Dst) : Src(Src), Dst(Dst) {
    assert(&Src != &Dst && "importing within one manager is the identity");
    assert(Src.numVars() <= Dst.numVars() &&
           "destination must know every source variable");
  }
  BddImporter(const BddImporter &) = delete;
  BddImporter &operator=(const BddImporter &) = delete;
  ~BddImporter() { clear(); }

  /// Copies \p F (a BDD of the source manager) into the destination
  /// manager; null imports as null.
  Bdd import(const Bdd &F);

  /// Memoized translations currently held (and kept alive in the
  /// destination).
  size_t memoSize() const { return Used; }
  /// Drops every memo entry, releasing its destination pin and the
  /// table's storage.
  void clear();

  /// Cumulative count of source nodes translated into the destination over
  /// the importer's lifetime (memo hits are free and not counted). This is
  /// the per-node cost of crossing the manager boundary; the parallel
  /// evaluator samples it to report import overhead.
  uint64_t translations() const { return NumTranslations; }

private:
  /// One memo slot; `From == 0` marks it empty (terminals are never
  /// memoized).
  struct Entry {
    uint32_t From = 0; ///< Source node index.
    uint32_t To = 0;   ///< Destination node index, pinned.
  };

  uint32_t importRec(uint32_t N);
  /// The slot holding \p N, or the empty slot where it belongs.
  Entry &slot(uint32_t N);
  /// Doubles the table (or allocates its first slots) and rehashes.
  void grow();

  BddManager &Src;
  BddManager &Dst;
  std::vector<Entry> Table; ///< Power-of-two size, at most half full.
  unsigned TableBits = 0;   ///< log2(Table.size()) once allocated.
  size_t Used = 0;
  uint64_t SrcGcRuns = 0;
  uint64_t NumTranslations = 0;
};

} // namespace getafix

#endif // GETAFIX_BDD_BDD_H
