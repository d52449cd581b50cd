//===--- Catalog.h - the paper's test catalog (Fig. 8) ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic tests of Fig. 8 (queue, set, and deque families) and the
/// operation alphabets used to write them, plus the one compile step of a
/// check (an implementation with a test's threads) and a convenience
/// wrapper that compiles and runs the full check.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_HARNESS_CATALOG_H
#define CHECKFENCE_HARNESS_CATALOG_H

#include "checker/CheckFence.h"
#include "engine/MatrixRunner.h"
#include "harness/TestSpec.h"

#include <optional>
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

/// Parses the catalog test \p Name (paper tests first, then extensions)
/// into \p Out. False + \p Error on an unknown name or a notation that
/// fails to parse.
bool catalogTest(const std::string &Name, TestSpec &Out, std::string &Error);

/// catalogTest for names known to exist; aborts on unknown names
/// (programming error in callers).
TestSpec testByName(const std::string &Name);

/// Looks a catalog test up by name; nullptr for unknown names.
const CatalogEntry *findCatalogEntry(const std::string &Name);

/// Alphabet for a data-type kind ("queue"/"set"/"deque"/"stack"); empty
/// for an unknown kind.
OpAlphabet alphabetFor(const std::string &Kind);

/// How to compile and check a test: \p Defines selects #ifdef variants,
/// StripFences/StripFenceLines drop the implementation's fence() calls,
/// and a non-empty \p SpecSource is the implementation the specification
/// is mined from instead (the "refset" mode).
struct RunOptions {
  checker::CheckOptions Check;
  std::set<std::string> Defines;
  bool StripFences = false;
  std::set<int> StripFenceLines;
  std::string SpecSource;
};

/// An implementation compiled together with a test's thread procedures,
/// plus the compiled reference implementation in refset mode.
struct CompiledTest {
  lsl::Program Impl;
  std::vector<std::string> Threads;
  std::optional<lsl::Program> Spec;

  /// The program to mine the specification from, or nullptr for Impl.
  const lsl::Program *spec() const { return Spec ? &*Spec : nullptr; }
};

/// Compiles \p Source (CheckFence-C) with Opts' defines and fence
/// stripping, builds \p Test's threads into it, and compiles and threads
/// Opts.SpecSource when set. False + \p Error on a frontend error.
bool compileTest(const std::string &Source, const TestSpec &Test,
                 const RunOptions &Opts, CompiledTest &Out,
                 std::string &Error);

/// End-to-end convenience: compileTest, then checker::runCheck.
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
/// Base.Check.Fresh selects the reference pipeline, which never seeds).
/// Unknown names produce Status::Error results instead of aborting.
engine::CellFn catalogCellRunner(const RunOptions &Base);

} // namespace harness
} // namespace checkfence

#endif // CHECKFENCE_HARNESS_CATALOG_H
