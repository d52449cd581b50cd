//===--- CriticalCycles.h - delay-set robustness analysis -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static critical-cycle (Shasha–Snir delay-set) analysis over the
/// flattened program, in the style of "Don't sit on the fence" (Alglave,
/// Kroening, Nimal, Poetzl): build the conflict/program-order graph of a
/// FlatProgram, compute which program-order edges a ModelParams lattice
/// point may delay, and decide *robustness* — whether any execution the
/// weak model admits can differ observationally from a sequentially
/// consistent one.
///
/// The enforced-order relation mirrors exactly the constraints the SAT
/// encoder (memmodel::MemoryModelEncoder) emits *unconditionally*:
///
///   * the model's program-order edge bits (ordersEdge),
///   * atomic-block interiors,
///   * the statically decided cases of Relaxed axiom 1 (must-alias
///     same-thread pairs whose later access is a store), and
///   * fences that execute in every run (guard provably truthy), ordering
///     matching-kind accesses around them,
///
/// closed under transitivity (the memory order <M is total per execution,
/// so guaranteed edges compose). A same-thread program-order pair outside
/// this closure is a *delay pair*: the model may commit the two accesses
/// to <M out of order. A delay pair is harmful only when it lies on a
/// critical cycle — a cycle through program-order edges and inter-thread
/// conflict edges (may-alias accesses, at least one a store) — or, for
/// models without store forwarding, when a load may overtake a same-
/// address store of its own thread (a per-location coherence hazard with
/// no inter-thread cycle at all). When neither exists the program is
/// robust: every execution under the model is observationally equivalent
/// to a sequentially consistent one, so the weak-model verdict can be
/// inherited from sc. Everything here is a conservative over-
/// approximation (may-alias conflicts, guard-blind program order), so
/// "robust" is trustworthy while "not robust" may be a false alarm.
///
/// Consumers: checker::runCheck's phase-0 pruner (discharge the SAT
/// inclusion loop on robust cells), FenceSynth (seed candidate placements
/// from cycle cuts), and the `--analyze` lint surface (witness cycles and
/// per-lattice-point verdicts). See docs/ANALYSIS.md.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ANALYSIS_CRITICALCYCLES_H
#define CHECKFENCE_ANALYSIS_CRITICALCYCLES_H

#include "memmodel/MemoryModel.h"
#include "trans/FlatProgram.h"
#include "trans/RangeAnalysis.h"

#include <climits>
#include <string>
#include <vector>

namespace checkfence {
namespace analysis {

/// True when \p M is within the analysis' semantic reach: a single total
/// memory order (multi-copy atomic) at plain access granularity. The
/// Serial mining model orders whole operation invocations, which the
/// event-level graph does not represent; non-MCA points have no single
/// <M for the delay-set argument to talk about.
constexpr bool analysisEligible(const memmodel::ModelParams &M) {
  return M.MultiCopyAtomic && !M.SerialOps;
}

/// The program-order edge kinds a lattice point may delay (the complement
/// of its order bits), plus the semantic flags the delay-set argument
/// cares about. Program-independent; see also RobustnessResult for the
/// program-specific delay pairs.
struct DelaySet {
  bool LoadLoad = false;
  bool LoadStore = false;
  bool StoreLoad = false;
  bool StoreStore = false;
  bool Forwarding = false;      ///< effectiveForwarding() of the point
  bool MultiCopyAtomic = true;

  int count() const {
    return (LoadLoad ? 1 : 0) + (LoadStore ? 1 : 0) + (StoreLoad ? 1 : 0) +
           (StoreStore ? 1 : 0);
  }
};

DelaySet delaySetFor(const memmodel::ModelParams &M);

struct AnalysisOptions {
  /// Source-line window for suggested cuts (FenceSynth's eligible region);
  /// accesses attribute through their inline call sites like the trace-
  /// based candidate mining does. Cuts outside the window are dropped
  /// (the verdict is unaffected).
  int MinLine = 0;
  int MaxLine = INT_MAX;
  /// Cap on rendered cycle witnesses (the verdict always accounts for
  /// every delay pair; only the witness list is truncated).
  int MaxCycleWitnesses = 16;
};

/// One node of a witness cycle.
struct CycleNode {
  int EventIndex = -1; ///< into FlatProgram::Events
  int Thread = 0;
  int IndexInThread = 0;
  bool IsStore = false;
  int Line = 0; ///< Loc.Line of the event (0 when unknown)
};

/// A critical cycle certifying one delay pair: Nodes[0] -> Nodes[1] is
/// the delayed program-order edge, and the remaining edges walk back to
/// Nodes[0] through program-order and conflict edges. Edge i runs from
/// Nodes[i] to Nodes[(i+1) % size].
struct CriticalCycle {
  std::vector<CycleNode> Nodes;
  std::vector<bool> EdgeIsConflict; ///< size() == Nodes.size()

  /// Deterministic one-line rendering ("t1[2]:store@L12 =po:delayed=> ...").
  std::string str() const;
};

/// A fence placement that cuts at least one critical cycle: a fence of
/// kind \p Kind directly before source line \p Line.
struct SuggestedCut {
  int Line = 0;
  lsl::FenceKind Kind = lsl::FenceKind::StoreStore;

  friend bool operator<(const SuggestedCut &A, const SuggestedCut &B) {
    if (A.Line != B.Line)
      return A.Line < B.Line;
    return static_cast<int>(A.Kind) < static_cast<int>(B.Kind);
  }
  friend bool operator==(const SuggestedCut &A, const SuggestedCut &B) {
    return A.Line == B.Line && A.Kind == B.Kind;
  }
};

struct RobustnessResult {
  /// analysisEligible(Model): when false nothing else is meaningful.
  bool Eligible = false;
  /// True when no delay pair lies on a critical cycle and no local
  /// coherence hazard exists: the program with its current fences cannot
  /// exhibit non-sequentially-consistent behaviour under the model.
  bool Robust = false;
  /// One-line explanation of the verdict (always set).
  std::string Reason;
  /// Same-thread program-order pairs outside the enforced-order closure.
  int DelayedPairs = 0;
  /// Delay pairs that lie on a critical cycle (harmful).
  int CyclePairs = 0;
  /// Store->load may-alias pairs a forwarding-free model lets the load
  /// overtake (harmful without any inter-thread cycle).
  int CoherenceHazards = 0;
  /// Shortest-path witness per harmful delay pair, deterministic order,
  /// capped at AnalysisOptions::MaxCycleWitnesses.
  std::vector<CriticalCycle> Cycles;
  /// Deduplicated, sorted cuts covering every harmful pair whose later
  /// access attributes to a line inside the window.
  std::vector<SuggestedCut> Cuts;
  /// Harmful pairs each cut addresses (parallel to Cuts) — the coverage
  /// score the `--analyze` surface ranks suggested cuts by. FenceSynth
  /// seeding uses only cut membership: the counterexample trace supplies
  /// the ranking among statically backed candidates.
  std::vector<int> CutScores;
};

/// Runs the analysis of \p P (with its existing fences) under \p M.
/// \p R must be analyzeRanges(P).
RobustnessResult analyzeRobustness(const trans::FlatProgram &P,
                                   const trans::RangeInfo &R,
                                   const memmodel::ModelParams &M,
                                   const AnalysisOptions &Opts = {});

} // namespace analysis
} // namespace checkfence

#endif // CHECKFENCE_ANALYSIS_CRITICALCYCLES_H
