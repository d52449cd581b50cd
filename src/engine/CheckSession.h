//===--- CheckSession.h - incremental check orchestration -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session engine behind checker::runCheck. A check drives the
/// paper's mine -> include -> probe iteration (Fig. 1/3, Sec. 3.3) on two
/// kinds of SolveContext - the Serial model (specification mining and
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
///  * Mining is also skipped when the request's SpecStore (if any) holds
///    the specification already: the serial observation set depends on
///    neither the target model nor fence placement, so every lattice
///    point and fence variant of a request mines each (fence-blind
///    program, bounds) once. Refset and budgeted checks always mine.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_CHECKSESSION_H
#define CHECKFENCE_ENGINE_CHECKSESSION_H

#include "checker/CheckFence.h"

#include <vector>

namespace checkfence {
namespace engine {

class CheckSession {
public:
  explicit CheckSession(const checker::CheckOptions &Opts) : Opts(Opts) {}

  /// Runs the full check. Every solver the check builds lives only for
  /// the check, so a session may run any number of checks.
  checker::CheckResult check(const lsl::Program &ImplProg,
                             const std::vector<std::string> &ThreadProcs,
                             const lsl::Program *SpecProg = nullptr) const;

private:
  checker::CheckOptions Opts;
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_CHECKSESSION_H
