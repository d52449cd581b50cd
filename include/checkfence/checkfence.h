//===--- checkfence/checkfence.h - public API umbrella ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/API.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one header a library consumer needs:
///
///   #include "checkfence/checkfence.h"
///
///   checkfence::Verifier V;
///   auto R = V.check(checkfence::Request::check("msn", "T0")
///                        .model("relaxed"));
///   if (R.failed()) puts(R.CounterexampleTrace.c_str());
///
/// Everything under include/checkfence/ is the supported, versioned API
/// surface; headers under src/ are internal and may change at any time.
/// This umbrella additionally exposes the catalog (implementations,
/// tests, models) and the library/schema version.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_CHECKFENCE_H
#define CHECKFENCE_PUBLIC_CHECKFENCE_H

#include "checkfence/Events.h"
#include "checkfence/Remote.h"
#include "checkfence/Request.h"
#include "checkfence/Result.h"
#include "checkfence/Server.h"
#include "checkfence/Verifier.h"

#include <string>
#include <vector>

#define CHECKFENCE_VERSION_MAJOR 0
#define CHECKFENCE_VERSION_MINOR 9
#define CHECKFENCE_VERSION_PATCH 0

namespace checkfence {

/// Library version as "major.minor.patch".
const char *versionString();

/// A built-in implementation (the paper's Table 1 plus extensions).
struct ImplDesc {
  std::string Name;        ///< "msn", "ms2", ...
  std::string Kind;        ///< "queue", "set", "deque", or "stack"
  std::string Description;
};

/// A catalog symbolic test (Fig. 8 plus extensions).
struct TestDesc {
  std::string Name;     ///< "T0", "Sac", ...
  std::string Kind;
  std::string Notation; ///< e.g. "e ( ed | de )"
};

/// A named memory model (a point in the relaxation lattice).
struct ModelDesc {
  std::string Name;       ///< "sc", "tso", ...
  std::string Descriptor; ///< canonical lattice descriptor ("po:...")
  std::string Note;       ///< one-line description
  /// The static critical-cycle robustness analysis covers this point
  /// (per-access granularity, i.e. not serial): `--analyze` produces a
  /// verdict for it and synthesis steering uses it (see
  /// docs/ANALYSIS.md).
  bool Analysis = false;
};

/// Built-in implementations, tests (paper first, then extensions), and
/// named models (strongest first).
std::vector<ImplDesc> listImplementations();
std::vector<TestDesc> listTests();
std::vector<ModelDesc> listModels();

/// True when \p Name resolves to a model: a registry name ("tso") or a
/// lattice descriptor ("po:ll+ls,fwd"). Lets front ends reject typos as
/// usage errors before dispatching a request.
bool validModelName(const std::string &Name);

/// Full CheckFence-C source of a built-in implementation (prelude
/// included); empty for unknown names.
std::string implementationSource(const std::string &Name);

/// The shared CheckFence-C prelude (assert/fence declarations, cas,
/// dcas, locks) that the Verifier prepends to user sources.
std::string preludeSource();

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_CHECKFENCE_H
