//===--- BenchGrid.h - engine-layer helpers for the benches -----*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-cell runner used by the engine-layer benches. Split from
/// BenchUtil.h because it reaches into src/ (harness, impls) - the
/// public-API benches (bench_matrix, bench_explore) must not include this
/// header, and CI's boundary grep enforces that.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_BENCH_BENCHGRID_H
#define CHECKFENCE_BENCH_BENCHGRID_H

#include "BenchUtil.h"

#include "harness/Catalog.h"
#include "impls/Impls.h"

#include <string>

namespace benchutil {

/// Runs a catalog test on an implementation and returns the result.
inline checkfence::checker::CheckResult
runOne(const std::string &Impl, const std::string &Test,
       checkfence::harness::RunOptions Opts) {
  using namespace checkfence;
  return harness::runTest(impls::sourceFor(Impl),
                          harness::testByName(Test), Opts);
}

} // namespace benchutil

#endif // CHECKFENCE_BENCH_BENCHGRID_H
