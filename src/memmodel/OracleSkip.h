//===--- OracleSkip.h - oracle results and skip reasons ---------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result of an explicit-state oracle (AxiomaticEnumerator,
/// ReadsFromOracle, ReferenceExecutor) and the structured reason it
/// declined to decide a program. The first two run the same
/// StaticExecution, so a program outside the supported fragment gets the
/// same reason from either, and oracleSkipMessage() keeps the user-facing
/// strings canonical: differential harnesses and explore reports compare
/// skip records across oracles byte-for-byte.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_ORACLESKIP_H
#define CHECKFENCE_MEMMODEL_ORACLESKIP_H

#include "lsl/Value.h"

#include <set>
#include <string>
#include <vector>

namespace checkfence {
namespace memmodel {

/// An observation: the error flag plus the observed values in program
/// declaration order.
struct RefObservation {
  bool Error = false;
  std::vector<lsl::Value> Values;

  bool operator<(const RefObservation &O) const {
    if (Error != O.Error)
      return Error < O.Error;
    if (Values.size() != O.Values.size())
      return Values.size() < O.Values.size();
    for (size_t I = 0; I < Values.size(); ++I) {
      if (Values[I] != O.Values[I])
        return Values[I] < O.Values[I];
    }
    return false;
  }
  bool operator==(const RefObservation &O) const {
    return !(*this < O) && !(O < *this);
  }
};

enum class OracleSkip {
  None,                   ///< oracle ran to completion (Ok may still be set)
  GuardDependsOnLoad,     ///< an event guard is not statically evaluable
  AddressDependsOnLoad,   ///< an access address is not statically evaluable
  BoundMarkDependsOnLoad, ///< a loop-bound guard is not statically evaluable
  ExceedsLoopBounds,      ///< the unrolling statically overflows its bounds
  TooManyAccesses,        ///< > 62 executed accesses (bitmask search limit)
  BudgetExceeded,         ///< the order/assignment/step budget ran out
  CyclicValueDependency,  ///< a thin-air value cycle (undecidable here)
};

/// The canonical user-facing message for \p Reason; empty for None.
inline const char *oracleSkipMessage(OracleSkip Reason) {
  switch (Reason) {
  case OracleSkip::None:
    return "";
  case OracleSkip::GuardDependsOnLoad:
    return "guard depends on a load";
  case OracleSkip::AddressDependsOnLoad:
    return "address depends on a load";
  case OracleSkip::BoundMarkDependsOnLoad:
    return "loop-bound mark depends on a load";
  case OracleSkip::ExceedsLoopBounds:
    return "program exceeds its loop bounds";
  case OracleSkip::TooManyAccesses:
    return "too many accesses for the bitmask search";
  case OracleSkip::BudgetExceeded:
    return "search budget exceeded";
  case OracleSkip::CyclicValueDependency:
    return "cyclic value dependency";
  }
  return "";
}

struct OracleResult {
  bool Ok = false;
  /// Why the oracle declined (None when Ok).
  OracleSkip Reason = OracleSkip::None;
  /// oracleSkipMessage(Reason): empty when Ok.
  std::string Error;
  /// The observations of every consistent execution (complete when Ok).
  std::set<RefObservation> Observations;
};

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_ORACLESKIP_H
