//===- SessionPool.h - Memory-budgeted pool of solver sessions --*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `getafixd` server's cache of open `SolverSession`s, keyed by
/// program. Sessions are expensive (a compiled equation system, a BDD
/// manager, the summary rounds solved so far) and the paper's whole point
/// is that queries against an already-solved program are nearly free — so
/// the pool keeps sessions alive across requests and evicts least-
/// recently-used ones only when a configurable memory budget (the summed
/// bytes of each `SolverSession::gauge()`) is exceeded. Those
/// estimates are samples each session takes once at the end of every
/// query; the pool only reads them, so budgeting costs no node-table walk.
///
/// Reclamation is two-phase, coarse valve first:
///
///   1. `clearComputedCache()` on LRU sessions — cheap, keeps all solved
///      state, and frees the computed cache of every BDD manager the
///      session owns (the footprint estimate charges caches as
///      allocated, so it drops by the same amount).
///   2. Full eviction of LRU sessions — drops the engine state entirely.
///      The entry (program text, options, statistics) stays; the next
///      acquire transparently reopens and re-solves, bit-identical.
///
/// A third, fault-driven path bypasses the budget: a lease whose solve
/// escaped with a real exception (injected or genuine OOM) is marked
/// poisoned, and release destroys that session eagerly — poisoned state
/// is never returned to the pool (`markPoisoned`, `poisoned_evictions`).
///
/// Concurrency: each entry carries a mutex held for the whole lease, so
/// concurrent clients querying the same program serialize on its one
/// session and share solved state; clients on different programs run in
/// parallel. Budget enforcement only `try_lock`s entries, so it never
/// waits on (or evicts) a session a client is using.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SERVER_SESSIONPOOL_H
#define GETAFIX_SERVER_SESSIONPOOL_H

#include "api/Solver.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace getafix {
namespace server {

struct PoolOptions {
  /// Options every session is opened with. `Engine` may be overridden
  /// per program via `acquire`.
  api::SolverOptions Solver;
  /// Evict down to this many bytes of summed session footprints;
  /// 0 = unbounded.
  size_t MemoryBudgetBytes = 0;
  /// Hard cap on resident (non-evicted) sessions; 0 = unbounded.
  size_t MaxResidentSessions = 0;
};

/// Counters (monotonic) and gauges (sampled at `stats()`).
struct PoolStats {
  uint64_t Lookups = 0;     ///< acquire() calls.
  uint64_t Hits = 0;        ///< Served by an already-resident session.
  uint64_t Opens = 0;       ///< First-time session opens.
  uint64_t Reopens = 0;     ///< Transparent reopens after eviction.
  uint64_t Evictions = 0;   ///< Sessions dropped by the budget (phase 2).
  uint64_t CacheClears = 0; ///< Computed-cache valve firings (phase 1).
  /// Sessions destroyed eagerly because their lease was marked poisoned
  /// (a solve escaped with a real fault, e.g. an allocation failure).
  uint64_t PoisonedEvictions = 0;
  size_t ResidentSessions = 0; ///< Entries currently holding a session.
  size_t TotalPrograms = 0;    ///< Entries ever created (incl. evicted).
  size_t FootprintBytes = 0;   ///< Summed footprint of resident sessions.
};

class SessionPool {
  struct Entry;

public:
  explicit SessionPool(PoolOptions Opts);
  ~SessionPool();
  SessionPool(const SessionPool &) = delete;
  SessionPool &operator=(const SessionPool &) = delete;

  /// Loads a program's source text on first acquire of its key. Returns
  /// false (with an error message) when the program cannot be read.
  using SourceLoader =
      std::function<bool(std::string &Source, std::string &Error)>;

  /// Exclusive access to one pooled session: holds the entry's mutex for
  /// its lifetime, releases it (and triggers budget enforcement) on
  /// destruction. Movable.
  class Lease {
  public:
    Lease() = default;
    ~Lease() { release(); }
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    Lease(Lease &&O) noexcept { *this = std::move(O); }
    Lease &operator=(Lease &&O) noexcept;

    /// False when the program could not be loaded (see `error()`); the
    /// lease then holds no session.
    bool ok() const { return E != nullptr; }
    const std::string &error() const { return Err; }
    api::SolverSession &session();
    /// This acquire reopened a previously-evicted session.
    bool reopened() const { return Reopened; }
    /// Marks the leased session as poisoned: a solve escaped with a real
    /// fault (an allocation failure, a corrupted invariant), so its state
    /// cannot be trusted. Release then destroys the session eagerly
    /// instead of returning it to the pool — it is never reused; the next
    /// acquire of the key transparently reopens from source. Clean
    /// resource-limit stops (deadline, node budget, cancel) must NOT be
    /// marked: they leave the session at a completed round boundary.
    void markPoisoned() { Poisoned = true; }
    /// Releases early (destructor otherwise does it).
    void release();

  private:
    friend class SessionPool;
    SessionPool *Pool = nullptr;
    std::shared_ptr<Entry> E;
    std::string Err;
    bool Reopened = false;
    bool Poisoned = false;
  };

  /// Acquires the session for \p Key, opening it (via \p LoadSource) on
  /// first use and transparently reopening it after eviction. Blocks
  /// while another client holds the same program's lease. \p
  /// EngineOverride selects a non-default engine for this program (part
  /// of the identity: the same program under two engines is two entries).
  Lease acquire(const std::string &Key, const SourceLoader &LoadSource,
                const std::string &EngineOverride = "");

  /// Drops the resident session for \p Key (entry and statistics stay).
  /// False when the key is unknown, evicted, or currently leased.
  bool evict(const std::string &Key);
  /// Evicts every non-leased resident session; returns how many.
  size_t evictAll();

  PoolStats stats() const;
  size_t footprintBytes() const;
  bool isResident(const std::string &Key) const;
  /// Resident keys, least-recently-used first (test introspection).
  std::vector<std::string> residentLru() const;

  const PoolOptions &options() const { return Opts; }

private:
  void noteRelease(Entry &E);
  /// Destroys a poisoned session under the (still-held) entry mutex and
  /// drops the entry to non-resident. The entry itself survives.
  void notePoisonedRelease(Entry &E);
  /// Two-phase reclamation toward the budget; skips leased entries.
  /// Caller must NOT hold PoolMu or any entry mutex.
  void enforceBudget();

  PoolOptions Opts;
  mutable std::mutex PoolMu; ///< Guards Map, Tick, Stats, entry metadata.
  std::map<std::string, std::shared_ptr<Entry>> Map;
  uint64_t Tick = 0; ///< LRU clock.
  PoolStats Stats;
};

} // namespace server
} // namespace getafix

#endif // GETAFIX_SERVER_SESSIONPOOL_H
