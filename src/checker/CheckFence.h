//===--- CheckFence.h - top-level checking driver ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full CheckFence pipeline (Fig. 1/3): given an LSL program containing
/// the implementation and test-thread procedures, it
///
///   1. mines the specification (observation set) under the Serial model,
///   2. checks inclusion of all executions under the target memory model,
///   3. probes for executions exceeding the current loop bounds and grows
///      exactly the exceeded loop instances (lazy unrolling, Sec. 3.3),
///
/// iterating until the bounds are sufficient, a counterexample is found,
/// or a sequential bug is detected during mining.
///
/// Specifications can optionally be mined from a separate (simpler)
/// reference implementation - the "refset" mode of Fig. 11a.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_CHECKFENCE_H
#define CHECKFENCE_CHECKER_CHECKFENCE_H

#include "checker/Encoder.h"
#include "checker/InclusionChecker.h"
#include "checker/SpecMiner.h"
#include "checkfence/Result.h"

#include <functional>
#include <optional>

namespace checkfence {
namespace engine {
class SpecStore;
}
namespace checker {

/// Optional instrumentation and cooperative-cancellation hooks threaded
/// through the mine/include/probe loop. Every member may be empty. The
/// hooks fire between solver calls (never inside one), so cancellation is
/// cooperative: a run stops at the next phase boundary with
/// Status::Cancelled instead of aborting mid-round. Callbacks must be
/// thread-safe when the same options drive parallel matrix cells.
struct CheckHooks {
  /// Polled at phase boundaries; return true to stop the run.
  std::function<bool()> Cancelled;
  /// A mine/include/probe round started (1-based).
  std::function<void(int Round)> OnRoundStarted;
  /// Specification mining completed with this many observations.
  std::function<void(int Count)> OnObservationsMined;
  /// Lazy unrolling grew the bound of one loop instance.
  std::function<void(const std::string &Loop, int NewBound)> OnBoundGrown;
};

struct CheckOptions {
  memmodel::ModelParams Model = memmodel::ModelParams::relaxed();
  bool RangeAnalysis = true;
  /// Outer mine/include/probe rounds (bounds stabilize in round one via
  /// the inner probe loop, so two rounds usually suffice).
  int MaxBoundIterations = 8;
  /// Cap on individual bound-growing probes across the whole run.
  int MaxProbes = 64;
  int64_t ConflictBudget = -1;
  size_t MaxObservations = 1 << 20;
  /// Starting per-loop bounds (e.g. the FinalBounds of a previous run, to
  /// skip the lazy-unrolling phase as the paper's Fig. 10 timings do).
  trans::LoopBounds InitialBounds;
  /// Streaming/cancellation hooks. Not part of a run's identity: the
  /// result cache must ignore this field when fingerprinting options.
  CheckHooks Hooks;
  /// Mined specifications shared by every check of one request (lattice
  /// points, fence variants): a check whose fence-blind program, mining
  /// bounds and encoding options match a published specification reuses
  /// it instead of mining (engine/SpecStore.h). Refset and budgeted
  /// checks bypass it. Per-request state like Hooks: never owned, never
  /// fingerprinted, ignored by runCheckFresh. The store outlives every
  /// check of its request, and each check's session ends with the check.
  /// May be null (always mine).
  engine::SpecStore *Specs = nullptr;
  /// Run the non-incremental reference pipeline (runCheckFresh) instead
  /// of the session engine. Part of a run's identity: the result cache
  /// keys fresh and session runs apart.
  bool Fresh = false;
};

/// Aggregate statistics across the whole run (Fig. 10/11 columns).
struct CheckStats {
  /// Inclusion problem (final iteration). Embeds EncodeStats directly so
  /// new per-problem counters propagate here automatically.
  EncodeStats Inclusion;
  // Specification mining (totals across iterations).
  double MiningSeconds = 0;
  int ObservationCount = 0;
  // Lazy unrolling.
  int BoundIterations = 0;
  double ProbeSeconds = 0;
  // The inclusion phase end to end, across all bound iterations.
  double IncludeSeconds = 0;
  // Whole run.
  double TotalSeconds = 0;
};

struct CheckResult {
  /// The public verdict enum (checkfence/Result.h); Cancelled means
  /// CheckHooks::Cancelled stopped the run.
  checkfence::Status Status = checkfence::Status::Error;
  std::string Message;
  ObservationSet Spec;
  std::optional<Trace> Counterexample;
  CheckStats Stats;
  trans::LoopBounds FinalBounds;

  bool passed() const { return Status == checkfence::Status::Pass; }
  bool failed() const {
    return Status == checkfence::Status::Fail ||
           Status == checkfence::Status::SequentialBug;
  }
};

/// Runs the full check. \p ThreadProcs lists the test thread procedures
/// (index 0 is the initialization thread). If \p SpecProg is non-null the
/// specification is mined from it instead of \p ImplProg (both programs
/// must define the same thread procedures and observation layout). With
/// Opts.Fresh it runs runCheckFresh instead.
///
/// The session engine drives the mine -> include -> probe iteration on
/// two kinds of SolveContext - the Serial model (specification mining and
/// refset probing) and the target model (inclusion checks and bound
/// probes) - each holding the one unrolling it is on:
///
///  * The inclusion check and the bound probe of one round share a single
///    encoding; assumptions over activation literals switch between
///    "within bounds + specification" and "some bound exceeded".
///  * When lazy unrolling grows a loop bound, the new unrolling is encoded
///    on a fresh context and the old one is dropped: the re-encoding
///    shares no variables with it, so no learnt clause could carry over,
///    and the solver only ever holds the live instance.
///  * Mining is skipped entirely when the mined program's bounds did not
///    change since the last completed enumeration - the re-run would
///    reproduce the identical observation set.
///  * Mining is also skipped when Opts.Specs holds the specification
///    already: the serial observation set depends on neither the target
///    model nor fence placement, so every lattice point and fence variant
///    of a request mines each (fence-blind program, bounds) once. Refset
///    and budgeted checks always mine.
///
/// Every solver a check builds lives only for the check.
CheckResult runCheck(const lsl::Program &ImplProg,
                     const std::vector<std::string> &ThreadProcs,
                     const CheckOptions &Opts,
                     const lsl::Program *SpecProg = nullptr);

/// The non-incremental reference pipeline: a fresh SolveContext (with a
/// fresh solver) for every phase and every probe, exactly as the paper's
/// original workflow re-ran zChaff per query. It shares no solver between
/// queries, and is kept for the differential tests that pin the session
/// engine's results to it.
CheckResult runCheckFresh(const lsl::Program &ImplProg,
                          const std::vector<std::string> &ThreadProcs,
                          const CheckOptions &Opts,
                          const lsl::Program *SpecProg = nullptr);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_CHECKFENCE_H
