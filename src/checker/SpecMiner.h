//===--- SpecMiner.h - specification mining ---------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerates the observation set of the serial executions (Sec. 3.2,
/// "specification mining") by iterated incremental SAT solving with
/// blocking clauses. An observation with the error flag set means the
/// implementation is broken even sequentially (e.g. the lazy-list missing
/// initialization, Sec. 4.1) and is reported instead of mined around.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_SPECMINER_H
#define CHECKFENCE_CHECKER_SPECMINER_H

#include "checker/SolveContext.h"

#include <optional>

namespace checkfence {
namespace checker {

struct MiningOutcome {
  bool Ok = false;
  std::string Error;
  ObservationSet Spec;
  int Iterations = 0;
  /// The implementation misbehaves on a *serial* execution.
  bool SequentialBug = false;
  std::optional<Trace> BugTrace;
};

/// Mines the observation set of the executions within \p Ctx's loop
/// bounds (\p Ctx must have been built with the Serial model).
/// \p MaxObservations caps runaway enumerations. The blocking clauses are
/// gated by a fresh activation literal, so the context's solver stays
/// usable for other phases (e.g. the bound probe) afterwards.
MiningOutcome mineSpecification(SolveContext &Ctx,
                                size_t MaxObservations = 1 << 20);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_SPECMINER_H
