//===--- ReferenceExecutor.h - explicit-state oracle ------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A brute-force interleaving enumerator over FlatPrograms, used as an
/// independent oracle in the encoder test-suite:
///
///  * at \b event granularity it enumerates sequentially consistent
///    executions (atomic blocks step as units) - feasible only for
///    litmus-sized programs;
///  * at \b invocation granularity it enumerates serial executions - the
///    specification-mining semantics - which is feasible for the real
///    tests (operation counts are small).
///
/// Observations collected here are compared against the SAT-based
/// specification miner to validate the encoding end-to-end.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_REFERENCEEXECUTOR_H
#define CHECKFENCE_MEMMODEL_REFERENCEEXECUTOR_H

#include "memmodel/OracleSkip.h"
#include "trans/FlatProgram.h"

namespace checkfence {
namespace memmodel {

struct RefOptions {
  bool InvocationGranularity = false; ///< serial semantics when true
  uint64_t MaxSteps = 50'000'000;     ///< exploration budget (aborts over)
};

/// Enumerates all within-bounds executions of \p P under sequential
/// consistency (or seriality) and returns the set of observations.
/// Executions violating an assume or exceeding a loop bound are dropped;
/// assertion failures and undefined-value uses set the error flag. A
/// search that takes more than \p Opts.MaxSteps event steps stops and
/// reports OracleSkip::BudgetExceeded (its observations are then partial).
OracleResult enumerateExecutions(const trans::FlatProgram &P,
                                 const RefOptions &Opts);

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_REFERENCEEXECUTOR_H
