//===- RingLog.h - Delta-compressed per-round value log ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for the per-round "onion ring" values a fixpoint solve records
/// for cross-query replay and witness extraction. Retaining every round's
/// full BDD — as the original implementation did — keeps the entire Tarski
/// chain live for a session's lifetime, which is the classic state-space
/// memory killer for long-lived model-checking servers. The rounds of a
/// (semi-)naive solve form an increasing chain, so this log stores each
/// round as its *exact* delta against the previous round (`R_i & !R_{i-1}`)
/// plus a periodic full keyframe every K rounds to bound the cost of
/// reconstituting a full ring (an OR fold of at most K pieces).
///
/// Two facts make the diet invisible to every consumer:
///
///  - Exactness: deltas are computed with plain conjunction against the
///    previous ring, so every piece is the exact set of new tuples. A
///    round that is *not* a superset of its predecessor (possible only in
///    non-monotone systems such as the entry-forward-opt mark chain, and
///    never observed for its value chain) is stored as a forced keyframe,
///    so reconstruction never assumes monotonicity.
///
///  - Canonicity: reconstitution ORs the pieces from the nearest keyframe
///    upward; the result is set-equal to the recorded round, and by ROBDD
///    canonicity set-equal means the *same node* in the same manager. So
///    replay stop-checks, `answersFromState`, witness rank queries, and the
///    backward walks over reconstituted rings are bit-identical to a log
///    of full rings.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_FPCALC_RINGLOG_H
#define GETAFIX_FPCALC_RINGLOG_H

#include "bdd/Bdd.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace getafix {
namespace fpc {

class RingLog {
public:
  /// Appends the next round's full value; the log decides whether to store
  /// it as a keyframe or as its delta against the previous round.
  void append(const Bdd &Ring);

  /// Rings recorded so far (piece i corresponds to fixpoint round i+1).
  size_t size() const { return Pieces.size(); }
  bool empty() const { return Pieces.empty(); }

  /// Reconstitutes ring \p I as a full value — canonically identical to
  /// the value `append` was given. At most one keyframe interval of ORs.
  Bdd ring(size_t I) const;

  /// The newest ring, kept full. It aliases the live fixpoint value the
  /// solve holds anyway, so retaining it costs no extra nodes.
  const Bdd &last() const {
    assert(!Pieces.empty() && "last() on an empty ring log");
    return Last;
  }

  /// Index of the first ring intersecting \p T, or `size()` when none
  /// does. Runs over the stored pieces directly — no reconstitution — and
  /// is exact for arbitrary chains: if ring i is the first to intersect T
  /// then the intersecting tuple is absent from ring i-1, hence present in
  /// piece i (delta or keyframe alike), and every piece j is a subset of
  /// ring j, so no earlier piece can intersect first.
  size_t firstIntersecting(const Bdd &T) const;

  /// A full keyframe every K appended rounds: 1 stores every round full
  /// (the pre-diet behavior, the differential baseline), 0 stores only the
  /// first round full (maximal compression, unbounded reconstitution
  /// chains). Applies to rounds appended after the call.
  void setKeyframeInterval(uint64_t K) { Interval = K; }
  uint64_t keyframeInterval() const { return Interval; }

  void clear() {
    Pieces.clear();
    Last = Bdd();
    SinceKeyframe = 0;
    NumKeyframes = 0;
  }

  // Introspection for tests and memory audits --------------------------------
  /// Pieces stored as full keyframes (the first piece always is; a
  /// non-monotone step forces one regardless of the interval).
  size_t keyframes() const { return NumKeyframes; }
  /// Summed dag sizes of the stored pieces (shared nodes counted once per
  /// piece) — the test-level gauge that the diet shrinks retention.
  size_t storedNodes() const;

private:
  struct Piece {
    Bdd Value; ///< Full ring (keyframe) or exact delta vs the prior ring.
    bool Keyframe = false;
  };

  std::vector<Piece> Pieces;
  Bdd Last; ///< Full value of the newest ring.
  uint64_t Interval = 8;
  uint64_t SinceKeyframe = 0; ///< Deltas appended since the last keyframe.
  size_t NumKeyframes = 0;
};

} // namespace fpc
} // namespace getafix

#endif // GETAFIX_FPCALC_RINGLOG_H
