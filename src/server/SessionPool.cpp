//===- SessionPool.cpp - Memory-budgeted pool of solver sessions ----------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Locking discipline: PoolMu guards the key map, the LRU clock, the
// statistics, every entry's metadata (Resident/Leased/Footprint/
// LastUse/ValveCold), and every mutation of the entry's session
// *pointer* (E.S). Each entry's own mutex guards the SolverSession
// object behind that pointer and is held for the full duration of a
// lease. Lock order is Entry::Mu before PoolMu — acquire takes PoolMu,
// drops it, blocks on Entry::Mu, then retakes PoolMu for metadata.
// Budget enforcement, which scans entries while holding PoolMu, only
// ever try_locks an entry mutex, so the inverted order cannot deadlock
// and a leased session's state is never touched — for leased entries it
// reads only the session's lock-free footprint gauge, which is why the
// pointer itself must be PoolMu-stable. Expensive session open/teardown
// stays outside PoolMu; only the pointer swap happens under it.
//
//===----------------------------------------------------------------------===//

#include "server/SessionPool.h"

#include <algorithm>
#include <cassert>

namespace getafix {
namespace server {

struct SessionPool::Entry {
  std::string Key;
  api::SolverOptions Opts;

  /// Guards S; held for the whole lease.
  std::mutex Mu;
  std::unique_ptr<api::SolverSession> S;
  std::string Source;
  bool SourceLoaded = false;

  // Metadata; guarded by SessionPool::PoolMu.
  bool Resident = false;
  bool Leased = false;
  /// Computed cache cleared by the budget valve and not used since (a
  /// second clear would free nothing, so phase 1 skips such entries).
  bool ValveCold = false;
  size_t Footprint = 0; ///< Estimate cached at last lease release.
  uint64_t LastUse = 0;
  uint64_t OpenCount = 0;
};

SessionPool::SessionPool(PoolOptions Opts) : Opts(std::move(Opts)) {}
SessionPool::~SessionPool() = default;

//===----------------------------------------------------------------------===//
// Lease
//===----------------------------------------------------------------------===//

SessionPool::Lease &SessionPool::Lease::operator=(Lease &&O) noexcept {
  if (this != &O) {
    release();
    Pool = O.Pool;
    E = std::move(O.E);
    Err = std::move(O.Err);
    Reopened = O.Reopened;
    Poisoned = O.Poisoned;
    O.Pool = nullptr;
    O.E.reset();
    O.Poisoned = false;
  }
  return *this;
}

api::SolverSession &SessionPool::Lease::session() {
  assert(E && E->S && "session() on a failed lease");
  return *E->S;
}

void SessionPool::Lease::release() {
  if (!E) {
    Pool = nullptr;
    return;
  }
  SessionPool *P = Pool;
  if (Poisoned)
    P->notePoisonedRelease(*E);
  else
    P->noteRelease(*E);
  E->Mu.unlock();
  E.reset();
  Pool = nullptr;
  Poisoned = false;
  P->enforceBudget();
}

//===----------------------------------------------------------------------===//
// Acquire
//===----------------------------------------------------------------------===//

SessionPool::Lease SessionPool::acquire(const std::string &Key,
                                        const SourceLoader &LoadSource,
                                        const std::string &EngineOverride) {
  std::shared_ptr<Entry> E;
  {
    std::lock_guard<std::mutex> G(PoolMu);
    ++Stats.Lookups;
    auto It = Map.find(Key);
    if (It == Map.end()) {
      E = std::make_shared<Entry>();
      E->Key = Key;
      E->Opts = Opts.Solver;
      if (!EngineOverride.empty())
        E->Opts.Engine = EngineOverride;
      Map.emplace(Key, E);
    } else {
      E = It->second;
    }
  }

  // Serialize with other clients of this program. Blocks; PoolMu is not
  // held, so other programs proceed.
  E->Mu.lock();

  bool WasResident;
  {
    std::lock_guard<std::mutex> G(PoolMu);
    E->Leased = true;
    E->ValveCold = false; // The lease is about to use the cache.
    E->LastUse = ++Tick;
    WasResident = E->Resident;
    if (WasResident)
      ++Stats.Hits;
  }

  Lease L;
  L.Pool = this;

  if (!WasResident) {
    if (!E->SourceLoaded) {
      std::string Src, Err;
      if (!LoadSource(Src, Err)) {
        {
          std::lock_guard<std::mutex> G(PoolMu);
          E->Leased = false;
        }
        E->Mu.unlock();
        L.Err = Err.empty() ? "failed to load program" : Err;
        return L;
      }
      E->Source = std::move(Src);
      E->SourceLoaded = true;
    }
    // Open (or transparently reopen) the session. Expensive — runs
    // under the entry mutex only; the pointer install happens under
    // PoolMu so budget scans can read it safely. A failed open (parse
    // error, unknown engine) still yields a session; it reports its
    // error from every solve, and the near-empty footprint is harmless
    // to keep pooled.
    auto NewS = api::Solver::open(api::Query::fromSource(E->Source), E->Opts);
    {
      std::lock_guard<std::mutex> G(PoolMu);
      E->S = std::move(NewS);
      E->Resident = true;
      if (E->OpenCount == 0)
        ++Stats.Opens;
      else
        ++Stats.Reopens;
      ++E->OpenCount;
    }
    L.Reopened = E->OpenCount > 1;
  }

  L.E = std::move(E);
  return L;
}

void SessionPool::noteRelease(Entry &E) {
  // Footprint is sampled here, under the entry mutex, so the estimate
  // reflects everything the lease's queries allocated.
  size_t Foot = E.S ? E.S->memoryFootprint() : 0;
  std::lock_guard<std::mutex> G(PoolMu);
  E.Footprint = Foot;
  E.Leased = false;
  E.LastUse = ++Tick;
}

void SessionPool::notePoisonedRelease(Entry &E) {
  // Detach the session pointer under PoolMu (budget scans read it there)
  // but run the (potentially large) BDD manager teardown after the lock
  // is gone. The lease still holds E.Mu, so nobody else uses the object.
  std::unique_ptr<api::SolverSession> Dead;
  {
    std::lock_guard<std::mutex> G(PoolMu);
    Dead = std::move(E.S);
    E.Resident = false;
    E.Footprint = 0;
    E.ValveCold = false;
    E.Leased = false;
    E.LastUse = ++Tick;
    ++Stats.PoisonedEvictions;
  }
}

//===----------------------------------------------------------------------===//
// Reclamation
//===----------------------------------------------------------------------===//

void SessionPool::enforceBudget() {
  for (;;) {
    // Destroying a session frees a whole BDD manager; keep that outside
    // both locks.
    std::unique_ptr<api::SolverSession> Doomed;
    bool Acted = false;
    {
      std::lock_guard<std::mutex> G(PoolMu);
      // Re-sample every resident entry before deciding anything: the
      // cached release-time sample goes stale the moment a session grows
      // *during* a lease (e.g. a later query triggers its witness solve),
      // and a budget decision on stale numbers under-reclaims. Unleased
      // entries are sampled exactly (their mutex is free); leased ones —
      // and the rare unleased entry whose try_lock loses a race — are
      // read through the session's lock-free gauge, updated by the API
      // layer at the end of every query. Gated on an actual byte budget;
      // the count-only policy never reads footprints.
      if (Opts.MemoryBudgetBytes != 0)
        for (const auto &KV : Map) {
          Entry &E = *KV.second;
          if (!E.Resident || !E.S)
            continue;
          if (!E.Leased && E.Mu.try_lock()) {
            E.Footprint = E.S->memoryFootprint();
            E.Mu.unlock();
          } else if (size_t Gauge = E.S->lastSampledFootprint()) {
            E.Footprint = Gauge;
          }
        }
      size_t Total = 0, Resident = 0;
      for (const auto &KV : Map)
        if (KV.second->Resident) {
          Total += KV.second->Footprint;
          ++Resident;
        }
      bool OverBudget =
          Opts.MemoryBudgetBytes != 0 && Total > Opts.MemoryBudgetBytes;
      bool OverCount = Opts.MaxResidentSessions != 0 &&
                       Resident > Opts.MaxResidentSessions;
      if (!OverBudget && !OverCount)
        return;

      std::vector<Entry *> Lru;
      for (const auto &KV : Map)
        if (KV.second->Resident && !KV.second->Leased)
          Lru.push_back(KV.second.get());
      std::sort(Lru.begin(), Lru.end(), [](const Entry *A, const Entry *B) {
        return A->LastUse < B->LastUse;
      });

      // Phase 1 — the coarse valve: clear the computed cache of the
      // least-recently-used session that still has a warm cache. Cheap,
      // keeps all solved state, and frees the caches, so the footprint
      // estimate drops by their share immediately.
      if (OverBudget) {
        for (Entry *C : Lru) {
          if (C->ValveCold || !C->Mu.try_lock())
            continue;
          if (C->S) {
            C->S->clearComputedCache();
            C->Footprint = C->S->memoryFootprint();
          }
          C->ValveCold = true;
          C->Mu.unlock();
          ++Stats.CacheClears;
          Acted = true;
          break;
        }
      }

      // Phase 2 — full eviction, LRU first. The entry (source text,
      // options, open counts) survives; the next acquire reopens.
      if (!Acted) {
        for (Entry *C : Lru) {
          if (!C->Mu.try_lock())
            continue;
          Doomed = std::move(C->S);
          C->Resident = false;
          C->Footprint = 0;
          C->ValveCold = false;
          C->Mu.unlock();
          ++Stats.Evictions;
          Acted = true;
          break;
        }
      }
    }
    if (!Acted)
      return; // Every candidate is leased; nothing reclaimable now.
  }
}

bool SessionPool::evict(const std::string &Key) {
  std::unique_ptr<api::SolverSession> Doomed;
  {
    std::lock_guard<std::mutex> G(PoolMu);
    auto It = Map.find(Key);
    if (It == Map.end())
      return false;
    Entry &E = *It->second;
    if (!E.Resident || E.Leased || !E.Mu.try_lock())
      return false;
    Doomed = std::move(E.S);
    E.Resident = false;
    E.Footprint = 0;
    E.ValveCold = false;
    E.Mu.unlock();
    ++Stats.Evictions;
  }
  return true;
}

size_t SessionPool::evictAll() {
  std::vector<std::unique_ptr<api::SolverSession>> Doomed;
  size_t N = 0;
  {
    std::lock_guard<std::mutex> G(PoolMu);
    for (const auto &KV : Map) {
      Entry &E = *KV.second;
      if (!E.Resident || E.Leased || !E.Mu.try_lock())
        continue;
      Doomed.push_back(std::move(E.S));
      E.Resident = false;
      E.Footprint = 0;
      E.ValveCold = false;
      E.Mu.unlock();
      ++Stats.Evictions;
      ++N;
    }
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

PoolStats SessionPool::stats() const {
  std::lock_guard<std::mutex> G(PoolMu);
  PoolStats S = Stats;
  S.TotalPrograms = Map.size();
  S.ResidentSessions = 0;
  S.FootprintBytes = 0;
  for (const auto &KV : Map)
    if (KV.second->Resident) {
      ++S.ResidentSessions;
      S.FootprintBytes += KV.second->Footprint;
    }
  return S;
}

size_t SessionPool::footprintBytes() const { return stats().FootprintBytes; }

bool SessionPool::isResident(const std::string &Key) const {
  std::lock_guard<std::mutex> G(PoolMu);
  auto It = Map.find(Key);
  return It != Map.end() && It->second->Resident;
}

std::vector<std::string> SessionPool::residentLru() const {
  std::lock_guard<std::mutex> G(PoolMu);
  std::vector<const Entry *> Es;
  for (const auto &KV : Map)
    if (KV.second->Resident)
      Es.push_back(KV.second.get());
  std::sort(Es.begin(), Es.end(), [](const Entry *A, const Entry *B) {
    return A->LastUse < B->LastUse;
  });
  std::vector<std::string> Keys;
  Keys.reserve(Es.size());
  for (const Entry *E : Es)
    Keys.push_back(E->Key);
  return Keys;
}

} // namespace server
} // namespace getafix
