//===--- ApiInternal.h - facade implementation helpers ----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal glue between the public facade (include/checkfence/) and the
/// engine layers: request resolution (names -> compiled programs) and
/// fingerprinting for the result cache. Not installed.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_API_APIINTERNAL_H
#define CHECKFENCE_API_APIINTERNAL_H

#include "checkfence/Request.h"
#include "checkfence/Result.h"

#include "checker/CheckFence.h"
#include "harness/Catalog.h"

#include <cstdint>
#include <string>
#include <vector>

namespace checkfence {
namespace api {

/// A request resolved to compiled programs, ready to check.
struct CompiledCase {
  bool Ok = false;
  std::string Error;

  harness::CompiledTest Compiled;
  harness::TestSpec Test;
  std::string ImplLabel; ///< display name ("msn" or "<source>")
  std::string KindStr;   ///< data-type kind when known
  std::string FullSource; ///< prelude + implementation (for synthesis)
};

/// Resolves a check/synthesis request's implementation, test, variant
/// defines, and optional reference spec into compiled LSL programs.
CompiledCase buildCase(const Request &Req);

/// Builds engine options from a request; unset request fields keep the
/// one library-default CheckOptions{} value. False + \p Error on an
/// unresolvable model name.
bool checkOptionsFrom(const Request &Req, checker::CheckOptions &Out,
                      std::string &Error);

/// Deterministic options fingerprint for result-cache keys. Ignores
/// Hooks and InitialBounds (per-request state).
std::string optionsFingerprint(const checker::CheckOptions &O);

} // namespace api
} // namespace checkfence

#endif // CHECKFENCE_API_APIINTERNAL_H
