//===--- RangeAnalysis.h - flow-insensitive value-set analysis --*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The range analysis of Sec. 3.4: a light-weight flow-insensitive
/// propagation that computes, for every SSA definition and every memory
/// location, a conservative set of the values it may hold in any valid
/// execution. The encoder uses the result to
///   (1) size integer bitvectors,
///   (2) bound pointer shapes (the pointer-value universe),
///   (3) fix constant definitions outright, and
///   (4) prune aliasing (only loads/stores with intersecting address sets
///       need visibility clauses).
///
/// Termination: the paper tags values with a traversal count; we instead
/// cap the set size and widen to Top, which is equivalent in effect for
/// the bounded unrolled programs we analyze.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_TRANS_RANGEANALYSIS_H
#define CHECKFENCE_TRANS_RANGEANALYSIS_H

#include "trans/FlatProgram.h"

#include <map>
#include <set>
#include <vector>

namespace checkfence {
namespace trans {

/// A conservative set of possible values; Top means "any value".
struct ValueSet {
  bool Top = false;
  std::set<lsl::Value> Values;

  bool insert(const lsl::Value &V, size_t Cap) {
    if (Top)
      return false;
    if (Values.size() >= Cap) {
      Top = true;
      Values.clear();
      return true;
    }
    return Values.insert(V).second;
  }

  bool widenToTop() {
    if (Top)
      return false;
    Top = true;
    Values.clear();
    return true;
  }

  bool mayBeUndef() const {
    return Top || Values.count(lsl::Value::undef());
  }
  bool mayBeInt() const {
    if (Top)
      return true;
    for (const lsl::Value &V : Values)
      if (V.isInt())
        return true;
    return false;
  }
  bool mayBePtr() const {
    if (Top)
      return true;
    for (const lsl::Value &V : Values)
      if (V.isPtr())
        return true;
    return false;
  }
  bool isSingleton() const { return !Top && Values.size() == 1; }
};

struct RangeOptions {
  size_t SetCap = 256;  ///< per-set size before widening to Top
  int MaxPasses = 64;   ///< fixpoint iteration limit (then widen)
  int TopIntBits = 32;  ///< integer width assumed for Top sets
};

/// Result of the analysis.
class RangeInfo {
public:
  /// Per-definition value sets (indexed by ValueId).
  std::vector<ValueSet> DefSets;

  /// All pointer values that can occur anywhere (addresses or data).
  /// The encoder represents a pointer payload as an index into this table.
  std::vector<lsl::Value> PointerUniverse;

  /// Pointer values that are actually dereferenced: the memory locations.
  /// Subset of PointerUniverse (by value, separately indexed).
  std::vector<lsl::Value> Cells;

  /// Per-event candidate cell indices (into Cells); only meaningful for
  /// load/store events. Used for alias pruning and value routing.
  std::vector<std::vector<int>> EventCells;

  /// Bits needed for the largest integer in any set (>= 1).
  int GlobalIntBits = 1;

  int universeIndex(const lsl::Value &V) const {
    auto It = UniverseIndexMap.find(V);
    return It == UniverseIndexMap.end() ? -1 : It->second;
  }
  int cellIndex(const lsl::Value &V) const {
    auto It = CellIndexMap.find(V);
    return It == CellIndexMap.end() ? -1 : It->second;
  }

  /// True when events \p EventA and \p EventB share a candidate cell,
  /// i.e. they may alias. Alias pruning in the encoder and the critical
  /// cycle analysis both use this test, in their inner loops.
  bool cellsIntersect(int EventA, int EventB) const {
    const std::vector<int> &A = EventCells[EventA];
    const std::vector<int> &B = EventCells[EventB];
    // Candidate lists are small and sorted (built from ordered sets).
    size_t I = 0, J = 0;
    while (I < A.size() && J < B.size()) {
      if (A[I] == B[J])
        return true;
      if (A[I] < B[J])
        ++I;
      else
        ++J;
    }
    return false;
  }

  /// Number of bits needed to count to N-1 (at least 1).
  static int bitsFor(uint64_t MaxValue);

  /// Bits needed for the integers of \p S (TopIntBits if Top).
  int intBitsFor(const ValueSet &S, const RangeOptions &Opts) const;

  std::map<lsl::Value, int> UniverseIndexMap;
  std::map<lsl::Value, int> CellIndexMap;
};

/// Runs the analysis over \p P.
RangeInfo analyzeRanges(const FlatProgram &P,
                        const RangeOptions &Opts = RangeOptions());

} // namespace trans
} // namespace checkfence

#endif // CHECKFENCE_TRANS_RANGEANALYSIS_H
