//===--- OrderEncoding.cpp - the memory order relation M -------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "encode/OrderEncoding.h"

#include <cassert>

using namespace checkfence;
using namespace checkfence::encode;

MemoryOrder::MemoryOrder(CnfBuilder &B, std::vector<AccessInfo> Accesses,
                         bool SerialOps,
                         const std::vector<std::pair<int, int>> &ForcedPairs)
    : B(B), Accs(std::move(Accesses)) {
  // Map accesses to units.
  UnitOf.resize(Accs.size());
  if (SerialOps) {
    // Units are operation invocations. Accesses with Group -1 each get a
    // fresh unit of their own.
    std::vector<int> GroupUnit;
    for (size_t I = 0; I < Accs.size(); ++I) {
      int G = Accs[I].Group;
      if (G < 0) {
        UnitOf[I] = NumUnits++;
        continue;
      }
      if (G >= static_cast<int>(GroupUnit.size()))
        GroupUnit.resize(G + 1, -1);
      if (GroupUnit[G] < 0)
        GroupUnit[G] = NumUnits++;
      UnitOf[I] = GroupUnit[G];
    }
  } else {
    NumUnits = static_cast<int>(Accs.size());
    for (size_t I = 0; I < Accs.size(); ++I)
      UnitOf[I] = static_cast<int>(I);
  }

  // Translate access-level forced pairs to unit level (intra-unit pairs are
  // handled by program order).
  std::vector<std::pair<int, int>> UnitForced;
  for (auto [A, Bx] : ForcedPairs) {
    int UA = UnitOf[A], UB = UnitOf[Bx];
    if (UA != UB)
      UnitForced.push_back({UA, UB});
  }

  UnitBefore.assign(static_cast<size_t>(NumUnits) * NumUnits, Lit());
  buildPairwise(UnitForced);
}

void MemoryOrder::buildPairwise(
    const std::vector<std::pair<int, int>> &Forced) {
  const int N = NumUnits;
  if (N == 0)
    return;

  // Adjacency of known edges; close transitively so forced chains become
  // constants rather than variables.
  std::vector<uint8_t> Known(static_cast<size_t>(N) * N, 0);
  for (auto [A, Bx] : Forced)
    Known[static_cast<size_t>(A) * N + Bx] = 1;
  for (int K = 0; K < N; ++K)
    for (int I = 0; I < N; ++I) {
      if (!Known[static_cast<size_t>(I) * N + K])
        continue;
      for (int J = 0; J < N; ++J)
        if (Known[static_cast<size_t>(K) * N + J])
          Known[static_cast<size_t>(I) * N + J] = 1;
    }

  // Assign literals: constants for closed edges, fresh vars otherwise
  // (shared between (i,j) and (j,i) for antisymmetry).
  for (int I = 0; I < N; ++I) {
    for (int J = I + 1; J < N; ++J) {
      bool FwdKnown = Known[static_cast<size_t>(I) * N + J];
      bool BwdKnown = Known[static_cast<size_t>(J) * N + I];
      assert(!(FwdKnown && BwdKnown) && "forced order is cyclic");
      Lit L;
      if (FwdKnown) {
        L = B.trueLit();
      } else if (BwdKnown) {
        L = B.falseLit();
      } else {
        L = B.fresh();
      }
      setUnitBefore(I, J, L);
    }
  }

  // Transitivity: x<y && y<z -> x<z. A triple's clause is also the clause
  // of its rotations (see the header), so visit only triples whose first
  // unit x is the smallest: (x, y, z) for every y != z above x covers both
  // cyclic orientations of each unordered triple. Skip clauses statically
  // satisfied.
  for (int X = 0; X < N; ++X)
    for (int Y = X + 1; Y < N; ++Y) {
      Lit XY = unitBefore(X, Y);
      if (B.isFalse(XY))
        continue;
      for (int Z = X + 1; Z < N; ++Z) {
        if (Z == Y)
          continue;
        Lit YZ = unitBefore(Y, Z);
        Lit XZ = unitBefore(X, Z);
        if (B.isFalse(YZ) || B.isTrue(XZ))
          continue;
        Lit Clause[3];
        size_t Len = 0;
        if (!B.isTrue(XY))
          Clause[Len++] = ~XY;
        if (!B.isTrue(YZ))
          Clause[Len++] = ~YZ;
        if (!B.isFalse(XZ))
          Clause[Len++] = XZ;
        B.addClause(Clause, Len);
      }
    }
}

Lit MemoryOrder::before(int A, int Bx) const {
  assert(A != Bx && "order is irreflexive");
  int UA = UnitOf[A], UB = UnitOf[Bx];
  if (UA == UB) {
    // Same unit (same invocation, hence same thread): program order.
    bool Before = Accs[A].IndexInThread < Accs[Bx].IndexInThread;
    return B.boolLit(Before);
  }
  return unitBefore(UA, UB);
}
