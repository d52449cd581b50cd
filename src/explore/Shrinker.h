//===--- Shrinker.h - delta-debugging divergent scenarios -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduces a divergent scenario to a minimal reproducer by greedy delta
/// debugging: repeatedly apply the smallest-first reduction whose result
/// still diverges, until no reduction applies. Reductions:
///
///  * drop a whole thread (litmus threads / symbolic test threads)
///  * drop one statement (litmus) or one operation (symbolic)
///  * drop a symbolic init-sequence operation, or prime an operation
///  * shrink stored constants (2 -> 1)
///  * narrow the model set to the single diverging point
///
/// Every candidate is re-validated through the same DifferentialRunner
/// that found the divergence, so a shrunk repro is divergent by
/// construction, not by assumption. The step budget bounds pathological
/// cases; the partially shrunk scenario is still returned.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_EXPLORE_SHRINKER_H
#define CHECKFENCE_EXPLORE_SHRINKER_H

#include "explore/Differential.h"
#include "explore/Generator.h"

namespace checkfence {
namespace explore {

struct ShrinkResult {
  Scenario Min;          ///< the reduced scenario (== input if nothing held)
  Divergence Repro;      ///< a divergence of the reduced scenario
  /// The (possibly narrowed) model axis the repro diverges under.
  std::vector<memmodel::ModelParams> Models;
  int Steps = 0;         ///< successful reductions applied
  int Attempts = 0;      ///< differential re-runs spent
  bool HitBudget = false;
};

/// Shrinks \p S, whose differential run produced at least one
/// divergence, re-running candidates on \p V with the (possibly
/// narrowed) model set, at most 250 re-runs in all. \p Opts is the
/// differential configuration the divergence was found under.
ShrinkResult shrinkScenario(const Scenario &S, Verifier &V,
                            const DiffOptions &Opts);

} // namespace explore
} // namespace checkfence

#endif // CHECKFENCE_EXPLORE_SHRINKER_H
