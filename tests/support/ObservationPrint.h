//===--- ObservationPrint.h - readable oracle observations -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders oracle observations as "(v1,v2)", "E(v1,v2)" when the execution
/// erred. PrintTo() is what GoogleTest finds for RefObservation, so a
/// failing EXPECT_EQ on observation sets prints values instead of bytes.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_TESTS_OBSERVATIONPRINT_H
#define CHECKFENCE_TESTS_OBSERVATIONPRINT_H

#include "memmodel/OracleSkip.h"

#include <ostream>
#include <set>
#include <string>

namespace checkfence {
namespace memmodel {

inline std::string show(const RefObservation &O) {
  std::string Out = O.Error ? "E(" : "(";
  for (size_t I = 0; I < O.Values.size(); ++I)
    Out += (I ? "," : "") + O.Values[I].str();
  return Out + ")";
}

inline void PrintTo(const RefObservation &O, std::ostream *OS) {
  *OS << show(O);
}

/// A set, one observation after another; clean ones are indented by a
/// space so their values line up with erring ones.
inline std::string show(const std::set<RefObservation> &S) {
  std::string Out;
  for (const RefObservation &O : S)
    Out += (O.Error ? "" : " ") + show(O) + " ";
  return Out;
}

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_TESTS_OBSERVATIONPRINT_H
