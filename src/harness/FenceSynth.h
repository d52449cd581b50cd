//===--- FenceSynth.h - automatic fence placement ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Automates the workflow the paper performs by hand in Sec. 4.2/4.3:
/// starting from an implementation without memory-ordering fences, find a
/// placement of fences that makes the given symbolic tests pass on a
/// relaxed model, and then verify that every placed fence is necessary.
///
/// The search is counterexample-guided. Each failing check yields a trace
/// whose accesses are ordered by the memory order <M; every same-thread
/// pair that appears *inverted* relative to program order is a relaxation
/// the execution exploited. For each inversion (x before y in program
/// order, y before x in <M) the candidate repair is an X-Y fence inserted
/// immediately before y's statement, where X/Y are the access kinds of
/// x/y. Accesses inside shared builtins (cas, locks) are attributed to
/// the implementation source line that invoked them via the inline
/// call-line stack recorded by the flattener.
///
/// Because fences only restrict the execution set, tests are repaired in
/// order: once a test passes it can never regress when later fences are
/// added. A final minimization pass removes fences whose absence does not
/// break any test, so the result is sufficient and 1-minimal ("necessary"
/// in the paper's sense) for the given tests and model.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_HARNESS_FENCESYNTH_H
#define CHECKFENCE_HARNESS_FENCESYNTH_H

#include "harness/Catalog.h"

#include <string>
#include <vector>

namespace checkfence {
namespace harness {

/// One synthesized fence: insert fence(Kind) immediately before the first
/// statement on source line \p Line.
struct FencePlacement {
  int Line = 0;
  lsl::FenceKind Kind = lsl::FenceKind::LoadLoad;

  bool operator<(const FencePlacement &O) const {
    return Line != O.Line ? Line < O.Line : Kind < O.Kind;
  }
  bool operator==(const FencePlacement &O) const {
    return Line == O.Line && Kind == O.Kind;
  }
};

std::string placementStr(const FencePlacement &P);

/// Synthesis starts from the implementation with its own fence() calls
/// stripped, inserts only after the shared prelude
/// (impls::firstImplLine), gives up after 24 fences, and always ends
/// with the necessity pass.
struct SynthOptions {
  checker::CheckOptions Check;
  std::set<std::string> Defines;
  /// Seed candidate placements from the static critical-cycle analysis
  /// (analysis/CriticalCycles.h): each repair round intersects the
  /// counterexample's candidates with the cuts that address a statically
  /// harmful delay pair of the currently placed program, so placements no
  /// critical cycle runs through — which the necessity pass would only
  /// remove again — are never placed and never burn a counterexample
  /// round. The SAT checks are left to confirm the placement and prove
  /// minimality. When the analysis backs none of the candidates (or the
  /// model is outside the analysis fragment) the round falls back to the
  /// unrestricted pick, so the final placement is the same 1-minimal
  /// result with strictly fewer checker runs on seedable workloads.
  bool SeedFromAnalysis = true;
  /// Worker threads for the minimization pass (each removal candidate
  /// re-checks every test; the per-test checks run in parallel). The
  /// repair loop itself is inherently sequential (each placement depends
  /// on the previous counterexample) and runs on the calling thread.
  int Jobs = 1;
};

struct SynthResult {
  bool Success = false;
  /// Diagnosis when Success is false: sequential bug, non-fence-fixable
  /// counterexample, or budget exhaustion.
  std::string Message;
  /// The final (minimized) placement, sorted by line.
  std::vector<FencePlacement> Fences;
  /// Candidate fences that were placed during the search but removed by
  /// the minimization pass.
  std::vector<FencePlacement> Removed;
  int ChecksRun = 0;
  double TotalSeconds = 0;
  /// Per-phase wall clock: the counterexample-guided repair loop and the
  /// necessity (minimization) pass.
  double RepairSeconds = 0;
  double MinimizeSeconds = 0;
  /// Human-readable narrative of the search (one entry per step).
  std::vector<std::string> Log;
};

/// Inserts fences into \p Prog: each placement adds a Fence statement
/// immediately before the first statement whose source line matches.
/// Returns the number of placements that found their line.
int applyFencePlacements(lsl::Program &Prog,
                         const std::vector<FencePlacement> &Fences);

/// Synthesizes a fence placement for \p ImplSource that makes every test
/// in \p Tests pass under Opts.Check.Model.
SynthResult synthesizeFences(const std::string &ImplSource,
                             const std::vector<TestSpec> &Tests,
                             const SynthOptions &Opts);

} // namespace harness
} // namespace checkfence

#endif // CHECKFENCE_HARNESS_FENCESYNTH_H
