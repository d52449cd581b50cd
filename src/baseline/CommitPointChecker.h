//===--- CommitPointChecker.h - the CAV'06 baseline method ------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *commit point method* of the authors' earlier case study [4]
/// (CAV'06), reimplemented as the Fig. 12 baseline. Instead of mining an
/// observation set, it checks each execution directly against the serial
/// semantics evaluated at the operations' annotated commit points:
///
///   * the implementation is encoded under the target memory model;
///   * a *shadow* reference implementation is encoded in the same formula
///     under the Serial model, with equal operation arguments;
///   * the shadow's serialization order is constrained to equal the
///     implementation's commit-point order (the <M order of the commit
///     accesses designated by commit() markers in the source);
///   * the solver searches for an execution whose results differ from the
///     shadow's. Unsat means every execution matches its commit-order
///     serialization.
///
/// Compared to the observation-set method this needs commit-point
/// annotations (which some algorithms, like the lazy list, do not have;
/// Sec. 5) and one monolithic solver call over a doubled formula.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_BASELINE_COMMITPOINTCHECKER_H
#define CHECKFENCE_BASELINE_COMMITPOINTCHECKER_H

#include "checker/CheckFence.h"
#include "harness/TestSpec.h"

#include <optional>
#include <string>

namespace checkfence {
namespace baseline {

struct CommitPointResult {
  bool Ok = false;
  std::string Error;
  bool Pass = false;
  std::optional<checker::Observation> CexObservation;
  // Statistics comparable to the observation-set method's.
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
  double TotalSeconds = 0;
  int SatVars = 0;
  uint64_t SatClauses = 0;
};

struct CommitPointOptions {
  memmodel::ModelParams Model = memmodel::ModelParams::relaxed();
  trans::LoopBounds Bounds; ///< unroll bounds (from a prior run's probe)
  int64_t ConflictBudget = -1;
};

/// Runs the commit-point check: \p ImplProg must contain commit() markers
/// (compile with the COMMIT_POINTS define); \p RefProg provides the serial
/// semantics. Both must define the same test threads \p ThreadProcs.
CommitPointResult
checkCommitPoints(const lsl::Program &ImplProg, const lsl::Program &RefProg,
                  const std::vector<std::string> &ThreadProcs,
                  const CommitPointOptions &Opts);

/// Convenience wrapper: compiles \p ImplSource (with COMMIT_POINTS) and
/// \p RefSource, builds \p Test, runs the check.
CommitPointResult runCommitPointTest(const std::string &ImplSource,
                                     const std::string &RefSource,
                                     const harness::TestSpec &Test,
                                     const CommitPointOptions &Opts);

} // namespace baseline
} // namespace checkfence

#endif // CHECKFENCE_BASELINE_COMMITPOINTCHECKER_H
