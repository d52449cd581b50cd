//===--- AxiomaticEnumerator.h - brute-force axiom oracle -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, independent implementation of the Sec. 2.3.2 memory-model
/// axioms: instead of encoding the memory order <M into SAT, this oracle
/// literally enumerates every total order of the executed accesses, filters
/// by the axioms of the chosen model (program-order embedding, fences,
/// atomic-block exclusivity, seriality), computes each load's value from
/// the <M-maximal element of its visibility set S(l) (with store
/// forwarding where the model allows it), and collects the observations.
/// Orders that give every load the same writer share one evaluation.
///
/// It exists purely for differential testing: on litmus-sized programs the
/// observation set produced here must equal the one mined from the SAT
/// encoding, for every model. Unlike ReferenceExecutor (an operational
/// interleaving oracle, sequentially consistent by construction), this
/// enumerator covers the *relaxed* models too.
///
/// Supported input shape: straight-line unrolled programs whose guards and
/// addresses are known without executing loads (branch-free litmus tests;
/// nondeterministic Choice values are enumerated). Programs outside this
/// fragment are rejected with Ok = false rather than answered wrongly.
/// The fragment, the static edges and the evaluation of each execution
/// are StaticExecution's; this file holds only the order search.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_AXIOMATICENUMERATOR_H
#define CHECKFENCE_MEMMODEL_AXIOMATICENUMERATOR_H

#include "memmodel/MemoryModel.h"
#include "memmodel/OracleSkip.h"
#include "trans/FlatProgram.h"

namespace checkfence {
namespace memmodel {

struct AxiomaticOptions {
  ModelParams Model = ModelParams::sc();
  /// Abort guard: orders explored across all choice assignments.
  uint64_t MaxOrders = 50'000'000;
};

/// Enumerates all executions of \p P allowed by \p Opts.Model and returns
/// their observations. \p P must be within-bounds straight-line code (the
/// flattener output of a loop-free test).
OracleResult enumerateAxiomatic(const trans::FlatProgram &P,
                                const AxiomaticOptions &Opts);

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_AXIOMATICENUMERATOR_H
