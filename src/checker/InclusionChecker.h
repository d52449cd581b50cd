//===--- InclusionChecker.h - the inclusion check ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks obs(E(T,I,Y)) subseteq S by solving Phi(T,I,Y) conjoined with a
/// mismatch clause for every specification element (Sec. 3.2, "inclusion
/// check"). A satisfying assignment is decoded into a counterexample trace.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_INCLUSIONCHECKER_H
#define CHECKFENCE_CHECKER_INCLUSIONCHECKER_H

#include "checker/SolveContext.h"

#include <optional>

namespace checkfence {
namespace checker {

struct InclusionOutcome {
  bool Ok = false;
  std::string Error;
  bool Pass = false;
  std::optional<Trace> Counterexample;
};

/// Runs the inclusion check of \p Spec on \p Ctx (built with the target
/// memory model): installs a mismatch clause per specification element,
/// gated by a fresh activation literal so the context's solver stays
/// usable for the bound probe, solves within the loop bounds, and decodes
/// the counterexample of a Sat answer.
InclusionOutcome checkInclusion(SolveContext &Ctx,
                                const ObservationSet &Spec);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_INCLUSIONCHECKER_H
