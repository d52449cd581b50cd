//===--- Unrolling.h - one program unrolled at one bound vector -*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model-independent half of the formula Phi = Delta and Theta
/// (Sec. 3.2): the thread procedures inlined and unrolled at one loop-bound
/// vector (trans::Flattener) and the range analysis of the result. Only
/// Theta depends on the memory model, so every encoding of one program at
/// one bound vector - mining and checking in a bound round, each lattice
/// point of an explore scenario - is built on one shared, immutable
/// Unrolling, and so are the explicit-state oracles and the static
/// robustness analysis that read the same FlatProgram.
///
/// unroll() is the one place a program is flattened and range-analyzed
/// outside the trans layer itself.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_UNROLLING_H
#define CHECKFENCE_CHECKER_UNROLLING_H

#include "trans/Flattener.h"
#include "trans/RangeAnalysis.h"

#include <memory>
#include <string>
#include <vector>

namespace checkfence {
namespace checker {

struct Unrolling {
  trans::FlatProgram Flat;
  /// The range analysis of Flat; empty when flattening failed.
  trans::RangeInfo Ranges;
  trans::LoopBounds Bounds;
  /// "flattening failed: ..." when a thread procedure could not be
  /// flattened (unknown procedure, recursion, bad registers).
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Flattens \p ThreadProcs (thread 0 is the init sequence) of \p Prog at
/// \p Bounds and range-analyzes the result. Never null; check ok().
std::shared_ptr<const Unrolling>
unroll(const lsl::Program &Prog, const std::vector<std::string> &ThreadProcs,
       const trans::LoopBounds &Bounds);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_UNROLLING_H
