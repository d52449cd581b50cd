//===--- Unrolling.cpp - one program unrolled at one bound vector -----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/Unrolling.h"

#include "obs/Trace.h"

using namespace checkfence;
using namespace checkfence::checker;

std::shared_ptr<const Unrolling>
checkfence::checker::unroll(const lsl::Program &Prog,
                            const std::vector<std::string> &ThreadProcs,
                            const trans::LoopBounds &Bounds) {
  obs::Span UnrollSpan("trans", "unroll");
  auto U = std::make_shared<Unrolling>();
  U->Bounds = Bounds;
  trans::Flattener F(Prog, U->Flat, U->Bounds);
  for (size_t T = 0; T < ThreadProcs.size(); ++T) {
    if (!F.flattenThread(ThreadProcs[T], static_cast<int>(T))) {
      U->Error = "flattening failed: " + F.error();
      return U;
    }
  }
  // Always computed: the encoding needs the pointer universe even when
  // ProblemConfig::RangeAnalysis switches off exploiting the results.
  U->Ranges = trans::analyzeRanges(U->Flat);
  return U;
}
