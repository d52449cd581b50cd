//===--- CheckSession.h - incremental check orchestration -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session engine behind checker::runCheck. A CheckSession owns two
/// persistent SolveContexts - one for the Serial model (specification
/// mining and refset probing), one for the target model (inclusion checks
/// and bound probes) - and drives the paper's mine -> include -> probe
/// iteration (Fig. 1/3, Sec. 3.3) incrementally on them:
///
///  * The inclusion check and the bound probe of one round share a single
///    encoding; assumptions over activation literals switch between
///    "within bounds + specification" and "some bound exceeded".
///  * When lazy unrolling grows a loop bound, the new unrolling is
///    *appended* to the same solver (variables and clauses only ever grow;
///    learnt clauses, phases and activities survive) instead of starting a
///    fresh solver per probe as the from-scratch pipeline does.
///  * Mining is skipped entirely when the mined program's bounds did not
///    change since the last completed enumeration - the re-run would
///    reproduce the identical observation set.
///  * Mining is also skipped when the request's SpecStore (if any) holds
///    the specification already: the serial observation set depends on
///    neither the target model nor fence placement, so every lattice
///    point and fence variant of a request mines each (fence-blind
///    program, bounds) once. Refset and budgeted checks always mine.
///
/// Per-round solver-size snapshots are recorded so tests can assert the
/// no-reset property directly.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_CHECKSESSION_H
#define CHECKFENCE_ENGINE_CHECKSESSION_H

#include "checker/CheckFence.h"
#include "checker/SolveContext.h"
#include "engine/SpecStore.h"

#include <vector>

namespace checkfence {
namespace engine {

/// Solver sizes at the end of one mine/include/probe round. Within one
/// check these grow monotonically - the solvers are never reset.
struct SessionSnapshot {
  int Round = 0;          ///< 1-based bound iteration
  int MineVars = 0;       ///< serial-context solver variables
  size_t MineClauses = 0; ///< serial-context problem clauses
  int CheckVars = 0;      ///< target-context solver variables
  size_t CheckClauses = 0;
};

class CheckSession {
public:
  explicit CheckSession(const checker::CheckOptions &Opts) : Opts(Opts) {}

  /// Runs the full check on this session's persistent contexts. One
  /// check per session: the solvers keep the check's encodings, so a
  /// second call would run on a grown formula. Callers construct a fresh
  /// session per check (checker::runCheck does).
  checker::CheckResult check(const lsl::Program &ImplProg,
                             const std::vector<std::string> &ThreadProcs,
                             const lsl::Program *SpecProg = nullptr);

  /// One entry per completed bound iteration.
  const std::vector<SessionSnapshot> &snapshots() const {
    return Snapshots;
  }

  const checker::SolveContext &mineContext() const { return MineCtx; }
  const checker::SolveContext &checkContext() const { return CheckCtx; }

private:
  void snapshot(int Round);

  checker::CheckOptions Opts;
  checker::SolveContext MineCtx;  ///< Serial model: mining + refset probe
  checker::SolveContext CheckCtx; ///< Target model: inclusion + probe
  std::vector<SessionSnapshot> Snapshots;
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_CHECKSESSION_H
