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

/// Runs the inclusion check of \p Spec on \p Prob (built with the target
/// memory model).
InclusionOutcome checkInclusion(EncodedProblem &Prob,
                                const ObservationSet &Spec);

/// The encoding half of the incremental inclusion check on \p Ctx:
/// installs the mismatch clauses for \p Spec, gated by a fresh activation
/// literal so the context's solver stays usable for the bound probe, and
/// returns the assumption set (the encoding's within-bounds assumptions
/// plus the activation literal) the session solves under.
struct PreparedInclusion {
  bool Ok = false;     ///< encoding usable (Error holds the message if not)
  std::string Error;
  bool Trivial = false; ///< mismatch clauses alone are unsat: trivially Pass
  std::vector<sat::Lit> Assumptions;
};

PreparedInclusion prepareInclusion(SolveContext &Ctx,
                                   const ObservationSet &Spec);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_INCLUSIONCHECKER_H
