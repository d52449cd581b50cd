//===--- Catalog.h - the paper's test catalog (Fig. 8) ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic tests of Fig. 8 (queue, set, and deque families) and the
/// operation alphabets used to write them, plus a convenience wrapper that
/// compiles an implementation, builds a test, and runs the full check.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_HARNESS_CATALOG_H
#define CHECKFENCE_HARNESS_CATALOG_H

#include "checker/CheckFence.h"
#include "engine/MatrixRunner.h"
#include "harness/TestSpec.h"

#include <set>
#include <string>
#include <vector>

namespace checkfence {
namespace harness {

/// e = enqueue(v), d = dequeue()->v.
OpAlphabet queueAlphabet();
/// a = add(v)->b, c = contains(v)->b, r = remove(v)->b.
OpAlphabet setAlphabet();
/// al/ar = push left/right(v), rl/rr = pop left/right()->v.
OpAlphabet dequeAlphabet();
/// u = push(v), o = pop()->v (the stack extension, not in the paper).
OpAlphabet stackAlphabet();

struct CatalogEntry {
  std::string Name;     ///< e.g. "Ti2"
  std::string Kind;     ///< "queue", "set", or "deque"
  std::string Notation; ///< e.g. "e ( ed | de )"
};

/// All tests of Fig. 8 (plus Saa, which appears in the Fig. 10 table).
const std::vector<CatalogEntry> &paperTests();

/// Additional tests for the data types this repository adds beyond the
/// paper (currently the Treiber stack).
const std::vector<CatalogEntry> &extensionTests();

/// Parses a catalog test by name (paper tests first, then extensions);
/// aborts on unknown names (programming error in callers).
TestSpec testByName(const std::string &Name);

/// Looks a catalog test up by name; nullptr for unknown names.
const CatalogEntry *findCatalogEntry(const std::string &Name);

/// Alphabet for a data-type kind ("queue"/"set"/"deque"/"stack").
OpAlphabet alphabetFor(const std::string &Kind);

/// End-to-end convenience: compile \p ImplSource (CheckFence-C), build
/// \p Test, and run the full check. \p Defines selects #ifdef variants.
/// If \p SpecSource is non-empty, the specification is mined from it
/// instead (the "refset" mode). \p Fresh runs the non-incremental
/// reference pipeline (checker::runCheckFresh) instead of the session
/// engine; it ignores Check.Specs.
struct RunOptions {
  checker::CheckOptions Check;
  std::set<std::string> Defines;
  bool StripFences = false;
  std::set<int> StripFenceLines;
  std::string SpecSource;
  bool Fresh = false;
};

checker::CheckResult runTest(const std::string &ImplSource,
                             const TestSpec &Test, const RunOptions &Opts);

/// Expands an evaluation matrix over catalog names: every (impl, test,
/// model) combination whose test kind matches the implementation's
/// data-type kind. An empty \p Impls means every implementation, an empty
/// \p Tests means every catalog test of the implementation's kind (paper
/// and extension tests), and an empty \p Models means the Relaxed model.
std::vector<engine::MatrixCell>
expandMatrix(const std::vector<std::string> &Impls,
             const std::vector<std::string> &Tests,
             const std::vector<memmodel::ModelParams> &Models);

/// A thread-safe engine::CellFn that resolves cell names against the
/// implementation table and the Fig. 8 catalog and runs the full check
/// with \p Base options (the cell's model overrides Base.Check.Model, and
/// its SeedBounds raise Base.Check.InitialBounds pointwise unless
/// Base.Fresh selects the reference pipeline, which never seeds).
/// Unknown names produce CheckStatus::Error results instead of aborting.
engine::CellFn catalogCellRunner(const RunOptions &Base);

} // namespace harness
} // namespace checkfence

#endif // CHECKFENCE_HARNESS_CATALOG_H
