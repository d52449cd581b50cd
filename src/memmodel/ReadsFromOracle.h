//===--- ReadsFromOracle.h - polynomial reads-from oracle -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reads-from-based consistency oracle for the non-serial points of the
/// relaxation lattice. Where AxiomaticEnumerator enumerates every
/// total order of the executed accesses (factorial in the access count),
/// this oracle enumerates *reads-from assignments* — one writer (or the
/// initial memory) per executed load — and decides each assignment's
/// consistency by acyclicity of a derived constraint graph, in the style
/// of reads-from consistency checking (Tunç et al., "Optimal Reads-From
/// Consistency Checking"; Chakraborty et al., "How Hard is Weak-Memory
/// Testing?"). Observation values are a pure function of the reads-from
/// assignment, so the observation set over consistent assignments equals
/// the enumerator's observation set over consistent total orders — at a
/// cost that grows with the (vastly smaller) number of assignments.
///
/// Per-assignment consistency is polynomial: rf(l) = s induces definite
/// order edges (s before l unless forwarded; always-forwarded competitors
/// before s) plus one two-literal disjunction per same-address competitor
/// ((s' before s) or (l before s')), and the oracle saturates these over
/// a bitmask transitive closure, branching only on disjunctions that
/// remain genuinely open (where load-load and load-store program order
/// are kept, program order decides almost all of them statically; the
/// weaker points branch more but stay exact). Atomic blocks are
/// contracted to supernodes; their interior order is already total via
/// program order.
///
/// Exactness rests on multi-copy atomicity, which every lattice point has:
/// a single global <M with the visibility rule "max earlier same-address
/// store, own earlier stores forwarded" is precisely the enumerator's
/// semantics. Callers gate usage with readsFromEligible() (see
/// MemoryModel.h), which excludes only the serial points. Both oracles
/// search the same StaticExecution, which decides the fragment, the skip
/// reasons and each execution's checks and observations, so skip
/// accounting is oracle-agnostic by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_MEMMODEL_READSFROMORACLE_H
#define CHECKFENCE_MEMMODEL_READSFROMORACLE_H

#include "memmodel/MemoryModel.h"
#include "memmodel/OracleSkip.h"
#include "trans/FlatProgram.h"

#include <cstdint>

namespace checkfence {
namespace memmodel {

struct ReadsFromOptions {
  ModelParams Model = ModelParams::sc();
  /// Abort guard: reads-from assignments tried (plus disjunction branch
  /// nodes) across all choice assignments.
  uint64_t MaxAssignments = 5'000'000;
};

/// Computes the observation set of \p P under \p Opts.Model. Exact for
/// every non-serial model; callers should gate on readsFromEligible().
/// Same input fragment as enumerateAxiomatic.
OracleResult checkReadsFrom(const trans::FlatProgram &P,
                            const ReadsFromOptions &Opts);

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_MEMMODEL_READSFROMORACLE_H
