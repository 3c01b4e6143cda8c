//===- ResourceGovernor.h - Deadlines, budgets, cancellation ----*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative resource governance for fixpoint solves. A solve is
/// worst-case exponential, so every serving layer needs a way to bound
/// it: a wall-clock deadline, a budget on BDD node allocations, and an
/// external cancel flag. The `ResourceGovernor` carries all three and is
/// *polled*, never preemptive:
///
///   - `BddManager::makeNode` probes it every `probePeriod()` calls
///     (a single compare-with-zero when no governor is installed, so the
///     hot path stays within noise — see docs/EVALUATION.md).
///   - The evaluator's round loops check it at every round boundary, so
///     a trip between probes still stops at a completed round.
///
/// A trip *latches*: once any limit fires, every subsequent check throws
/// `ResourceInterrupt`, which is how a cancelled parallel schedule drains —
/// the shared governor trips the remaining workers at their next probes.
/// The node counter is shared too (main and per-worker managers charge the
/// same governor), so the budget bounds the whole solve, not one manager.
///
/// Determinism contract: an interrupt may land mid-round, but every layer
/// that persists state (the evaluator's `FixpointState`, session rings)
/// commits only *completed* rounds — the aborted round's partial BDDs are
/// unreferenced garbage. A retry with a larger budget therefore re-runs
/// the aborted round from identical inputs and the whole solve chain stays
/// bit-identical to an uninterrupted solve. Governors are one-shot: build
/// a fresh one per solve attempt.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SUPPORT_RESOURCEGOVERNOR_H
#define GETAFIX_SUPPORT_RESOURCEGOVERNOR_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace getafix {
namespace support {

/// Which limit stopped a solve. `None` means the solve ran to completion
/// (or to its iteration cap, which is a different, non-governor mechanism).
enum class ResourceLimit { None, Deadline, NodeBudget, Cancelled };

inline const char *resourceLimitName(ResourceLimit L) {
  switch (L) {
  case ResourceLimit::None:
    return "none";
  case ResourceLimit::Deadline:
    return "deadline";
  case ResourceLimit::NodeBudget:
    return "node-budget";
  case ResourceLimit::Cancelled:
    return "cancelled";
  }
  return "?";
}

/// Thrown by `ResourceGovernor::check` when a limit trips. Deliberately
/// not derived from `std::exception`: containment layers that turn any
/// `std::exception` into a poisoned-session error must never conflate a
/// clean, resumable limit stop with a real fault.
struct ResourceInterrupt {
  ResourceLimit Limit = ResourceLimit::None;
};

class ResourceGovernor {
public:
  ResourceGovernor() = default;
  ResourceGovernor(const ResourceGovernor &) = delete;
  ResourceGovernor &operator=(const ResourceGovernor &) = delete;

  /// Arms a wall-clock deadline \p Ms milliseconds from now. Non-positive
  /// values are ignored (no deadline).
  void setDeadlineIn(int64_t Ms) {
    if (Ms <= 0)
      return;
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Ms);
    HasDeadline = true;
  }

  /// Arms a budget on total BDD node allocations charged to this
  /// governor (across every manager it is installed on). 0 = unlimited.
  void setNodeBudget(uint64_t Budget) { NodeBudget = Budget; }

  /// Watches an external cancel flag (owned by the caller, must outlive
  /// the governor). Checked at every probe.
  void setCancelFlag(const std::atomic<bool> *Flag) { CancelFlag = Flag; }

  /// Requests cancellation directly (the server watchdog's lever).
  /// Thread-safe; latches at the next probe of any governed manager.
  void cancel() { CancelRequested.store(true, std::memory_order_relaxed); }

  /// How many `makeNode` calls a manager batches between probes. The
  /// period trades probe cost against trip latency; at 4096 the probe is
  /// unmeasurable on the bluetooth hot path while a trip is still
  /// observed within microseconds.
  unsigned probePeriod() const { return Period; }
  void setProbePeriod(unsigned N) { Period = N ? N : 1; }

  /// The latched verdict; `None` while running.
  ResourceLimit tripped() const {
    return static_cast<ResourceLimit>(Trip.load(std::memory_order_acquire));
  }

  /// Total node allocations charged so far.
  uint64_t nodesCharged() const {
    return Nodes.load(std::memory_order_relaxed);
  }

  /// The armed deadline (only meaningful when `hasDeadline()`).
  bool hasDeadline() const { return HasDeadline; }
  std::chrono::steady_clock::time_point deadline() const { return Deadline; }

  /// Charges \p NewNodes allocations, evaluates every armed limit, and
  /// throws `ResourceInterrupt` if any has fired (now or earlier — trips
  /// latch). Cancel outranks deadline outranks budget when several fire
  /// in the same probe.
  void check(uint64_t NewNodes = 0) {
    uint64_t Total =
        Nodes.fetch_add(NewNodes, std::memory_order_relaxed) + NewNodes;
    int Latched = Trip.load(std::memory_order_acquire);
    if (Latched != 0)
      throw ResourceInterrupt{static_cast<ResourceLimit>(Latched)};
    ResourceLimit Hit = ResourceLimit::None;
    if (CancelRequested.load(std::memory_order_relaxed) ||
        (CancelFlag && CancelFlag->load(std::memory_order_relaxed)))
      Hit = ResourceLimit::Cancelled;
    else if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
      Hit = ResourceLimit::Deadline;
    else if (NodeBudget != 0 && Total > NodeBudget)
      Hit = ResourceLimit::NodeBudget;
    if (Hit == ResourceLimit::None)
      return;
    // First trip wins the latch; a racing worker keeps whichever verdict
    // landed first so every layer reports one consistent limit.
    int Expected = 0;
    Trip.compare_exchange_strong(Expected, static_cast<int>(Hit),
                                 std::memory_order_acq_rel);
    throw ResourceInterrupt{tripped()};
  }

private:
  std::atomic<uint64_t> Nodes{0};
  std::atomic<int> Trip{0}; ///< A latched ResourceLimit (0 = running).
  std::atomic<bool> CancelRequested{false};
  const std::atomic<bool> *CancelFlag = nullptr;
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;
  uint64_t NodeBudget = 0;
  unsigned Period = 4096;
};

} // namespace support
} // namespace getafix

#endif // GETAFIX_SUPPORT_RESOURCEGOVERNOR_H
