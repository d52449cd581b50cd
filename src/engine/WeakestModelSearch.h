//===--- WeakestModelSearch.h - weakest-passing-model search ----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finds, per (implementation, test), the weakest memory models under
/// which the check still passes. The lattice order (memmodel::
/// atLeastAsStrong) makes verdicts monotone: a pass under model M implies
/// a pass under every stronger M', and a counterexample under M' exists
/// under every weaker M. Two entry points exploit that:
///
///  * weakestPassing / summarizeReport - pure post-processing: given the
///    verdicts of a sweep (e.g. a `--models lattice` matrix run), compute
///    the minimal passing models of each (impl, test) group. This is what
///    MatrixReport embeds in its JSON and table when a sweep covered more
///    than one model; it is deterministic because it only reads recorded
///    verdicts, never the clock or the schedule.
///
///  * WeakestModelSearch::run - an active walk: check the lattice points
///    weakest-first, skipping every point whose verdict is already implied
///    by monotonicity. On typical sweeps this prunes roughly half of the
///    checks (the strong half once a weak model passes, the weak half
///    below a failure).
///
/// Only clean Pass/Fail (and SequentialBug, which is model-independent)
/// verdicts participate in inference; BoundsExhausted and Error cells are
/// never extrapolated.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_WEAKESTMODELSEARCH_H
#define CHECKFENCE_ENGINE_WEAKESTMODELSEARCH_H

#include "engine/MatrixRunner.h"

#include <string>
#include <vector>

namespace checkfence {
namespace engine {

/// One model's verdict within a sweep.
struct ModelVerdict {
  memmodel::ModelParams Model;
  bool Passed = false;
};

/// The minimal elements of the passing set under the lattice order: every
/// passing model that has no strictly weaker passing model in \p Verdicts.
/// Input order is preserved in the output (determinism).
std::vector<memmodel::ModelParams>
weakestPassing(const std::vector<ModelVerdict> &Verdicts);

/// The weakest-passing summary of one (impl, test) group.
struct WeakestSummary {
  std::string Impl;
  std::string Test;
  /// Minimal passing models, in sweep order; empty when nothing passed.
  std::vector<memmodel::ModelParams> Weakest;
  int ModelsPassed = 0;
  int ModelsChecked = 0; ///< cells with a conclusive Pass/Fail verdict
  int CellsRun = 0;      ///< checks actually executed (active search)
  int CellsInferred = 0; ///< verdicts obtained by monotonicity (active)
};

/// Groups a (multi-model) matrix report by (impl, test) - in first-
/// appearance order - and computes each group's weakest passing models.
std::vector<WeakestSummary> summarizeReport(const MatrixReport &Report);

/// Renders summaries as a JSON array (one object per group).
std::string weakestJson(const std::vector<WeakestSummary> &Summaries);

/// Renders summaries as a fixed-width table.
std::string weakestTable(const std::vector<WeakestSummary> &Summaries);

/// Active lattice walk for one (impl, test): runs \p Run only for models
/// whose verdict monotonicity cannot infer.
class WeakestModelSearch {
public:
  /// The \p Given lattice is checked weakest-first regardless of its
  /// order (memmodel::strengthOrder normalizes the strongest-first
  /// convention of memmodel::latticeModels; relative order of
  /// incomparable points is kept).
  explicit WeakestModelSearch(
      const std::vector<memmodel::ModelParams> &Given);

  /// Runs the search; \p Run is invoked with cells whose Impl/Test are
  /// \p Impl / \p Test and whose Model walks the lattice.
  WeakestSummary run(const std::string &Impl, const std::string &Test,
                     const CellFn &Run) const;

private:
  std::vector<memmodel::ModelParams> Lattice; ///< weakest-first
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_WEAKESTMODELSEARCH_H
