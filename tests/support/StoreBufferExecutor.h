//===--- StoreBufferExecutor.h - operational TSO/PSO oracle -----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An *operational* (machine-style) semantics for the TSO and PSO models,
/// in the x86-TSO tradition: threads execute their instructions in
/// program order; stores enter a per-thread store buffer and drain to the
/// single-copy memory at nondeterministic times; loads read the newest
/// same-address buffer entry (forwarding) or memory.
///
///  * TSO: the buffer drains strictly in FIFO order.
///  * PSO: any entry with no older same-address entry and no older
///    store-store barrier may drain (per-address FIFO).
///  * store-store fences insert a barrier token into the buffer (a no-op
///    on TSO, whose FIFO already orders stores).
///  * store-load fences block the thread's subsequent *loads* until every
///    buffer entry present at the fence has drained; later stores are not
///    additionally ordered, matching the axiomatic fence which adds only
///    store-to-load edges.
///  * load-load and load-store fences are no-ops: this machine issues
///    loads in program order.
///
/// The executor enumerates all interleavings of instruction and drain
/// steps and collects the observations. It exists purely as a third,
/// independently-styled semantics to differentially test the *axiomatic*
/// TSO/PSO encodings against (tests/AxiomaticOracleTests) - the
/// equivalence of buffer machines and their axiomatic counterparts is the
/// classic x86-TSO correspondence.
///
/// Restrictions: atomic blocks are not supported (their interaction with
/// buffering is model-dependent; litmus programs do not need them).
///
/// Test support only: built into the uninstalled checkfence_testsupport
/// library that the test executables link, not into checkfence_core.
///
//======---------------------------------------------------------------------===//

#ifndef CHECKFENCE_TESTS_STOREBUFFEREXECUTOR_H
#define CHECKFENCE_TESTS_STOREBUFFEREXECUTOR_H

#include "memmodel/MemoryModel.h"
#include "memmodel/ReferenceExecutor.h"

#include <set>
#include <string>

namespace checkfence {
namespace memmodel {

struct StoreBufferOptions {
  /// Must be ModelParams::tso() or ModelParams::pso() - the two lattice
  /// points this buffer machine realizes.
  ModelParams Model = ModelParams::tso();
  uint64_t MaxSteps = 50'000'000;
};

struct StoreBufferResult {
  bool Ok = false;
  std::string Error; ///< unsupported feature or budget exhaustion
  std::set<RefObservation> Observations;
};

/// Enumerates all executions of \p P on the buffer machine and returns
/// their observations.
StoreBufferResult enumerateStoreBuffer(const trans::FlatProgram &P,
                                       const StoreBufferOptions &Opts);

} // namespace memmodel
} // namespace checkfence

#endif // CHECKFENCE_TESTS_STOREBUFFEREXECUTOR_H
