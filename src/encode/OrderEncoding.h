//===--- OrderEncoding.h - the memory order relation M ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encodes the total memory order <M over the memory accesses of an
/// execution (Sec. 3.2.1 auxiliary variables, item 1) the way the paper
/// does: one boolean Mxy per access pair, antisymmetry by literal sharing,
/// transitivity by explicit clauses (quadratic variables, cubic clauses).
///
/// Transitivity takes two clauses per unordered triple {x, y, z}: one per
/// cyclic orientation, (x, y, z) and (x, z, y). Because before(j, i) is
/// ~before(i, j), the clause of x<y && y<z -> x<z, that is
/// ~Mxy | ~Myz | Mxz, is literally the clause of its rotations (y, z, x)
/// and (z, x, y); emitting all six ordered triples would hand the solver
/// each clause three times.
///
/// Orders can operate at \e access granularity or, for the Serial "memory
/// model" (Sec. 2.3.2), at \e operation-invocation granularity: accesses of
/// the same invocation are ordered by program order and invocations are
/// totally ordered as units, which is exactly the seriality condition.
///
/// Statically-known edges (program order under SC, atomic-block interiors,
/// init-thread-before-others) are passed in as forced pairs; the pairwise
/// encoder closes them transitively (Floyd-Warshall) and replaces the
/// corresponding variables by constants before emitting clauses.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENCODE_ORDERENCODING_H
#define CHECKFENCE_ENCODE_ORDERENCODING_H

#include "encode/CnfBuilder.h"

#include <cstdint>
#include <vector>

namespace checkfence {
namespace encode {

/// Per-access metadata the order encoder needs.
struct AccessInfo {
  int Thread = 0;
  int IndexInThread = 0;
  int Group = -1; ///< operation invocation (serial granularity), -1 = own
};

/// The encoded total order.
class MemoryOrder {
public:
  /// \p SerialOps selects invocation granularity; in that mode accesses
  /// with the same Group are ordered by (Thread, IndexInThread).
  /// \p ForcedPairs are (a, b) access-index pairs with a <M b required.
  MemoryOrder(CnfBuilder &B, std::vector<AccessInfo> Accesses, bool SerialOps,
              const std::vector<std::pair<int, int>> &ForcedPairs);

  /// Literal for "access A is ordered before access B" (A != B).
  Lit before(int A, int B) const;

  int numAccesses() const { return static_cast<int>(Accs.size()); }

private:
  void buildPairwise(const std::vector<std::pair<int, int>> &Forced);

  CnfBuilder &B;
  std::vector<AccessInfo> Accs;

  // Unit granularity: in serial mode, units are groups; otherwise units
  // are accesses. UnitOf maps access -> unit.
  int NumUnits = 0;
  std::vector<int> UnitOf;
  // Flat NumUnits x NumUnits matrix of before-literals (diagonal unused).
  std::vector<Lit> UnitBefore;

  Lit unitBefore(int UA, int UB) const {
    return UnitBefore[static_cast<size_t>(UA) * NumUnits + UB];
  }
  void setUnitBefore(int UA, int UB, Lit L) {
    UnitBefore[static_cast<size_t>(UA) * NumUnits + UB] = L;
    UnitBefore[static_cast<size_t>(UB) * NumUnits + UA] = ~L;
  }
};

} // namespace encode
} // namespace checkfence

#endif // CHECKFENCE_ENCODE_ORDERENCODING_H
