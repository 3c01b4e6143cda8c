//===- RingLog.cpp - Delta-compressed per-round value log -----------------===//

#include "fpcalc/RingLog.h"

using namespace getafix;
using namespace getafix::fpc;

void RingLog::append(const Bdd &Ring) {
  Piece P;
  bool Key =
      Pieces.empty() || (Interval != 0 && SinceKeyframe + 1 >= Interval);
  if (!Key) {
    Bdd Delta = Ring & !Last;
    // The reconstitution check doubles as the non-monotone safety net:
    // when the new round is not a superset of the previous one, no delta
    // can rebuild it, so the round is stored full.
    if ((Last | Delta) == Ring) {
      P.Value = std::move(Delta);
    } else {
      Key = true;
    }
  }
  if (Key) {
    P.Value = Ring;
    P.Keyframe = true;
  }
  Last = Ring;
  SinceKeyframe = Key ? 0 : SinceKeyframe + 1;
  NumKeyframes += Key ? 1 : 0;
  Pieces.push_back(std::move(P));
}

Bdd RingLog::ring(size_t I) const {
  assert(I < Pieces.size() && "ring index out of range");
  size_t J = I;
  while (!Pieces[J].Keyframe) {
    assert(J > 0 && "piece 0 must be a keyframe");
    --J;
  }
  // Fixed-order OR chain from the keyframe up; the fold order is
  // irrelevant to the result (ROBDD canonicity — the value is
  // set-determined) but kept fixed for reproducible intermediate work.
  Bdd V = Pieces[J].Value;
  for (++J; J <= I; ++J)
    V |= Pieces[J].Value;
  return V;
}

size_t RingLog::firstIntersecting(const Bdd &T) const {
  for (size_t I = 0; I < Pieces.size(); ++I)
    if (Pieces[I].Value.intersects(T))
      return I;
  return Pieces.size();
}

size_t RingLog::storedNodes() const {
  size_t N = 0;
  for (const Piece &P : Pieces)
    N += P.Value.nodeCount();
  return N;
}
