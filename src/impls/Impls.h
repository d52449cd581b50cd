//===--- Impls.h - the studied implementations (Table 1) --------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CheckFence-C sources for six concurrent data-type implementations:
/// the five algorithms of the paper's Table 1 plus one extension.
///
///   ms2      - Michael & Scott two-lock queue           (Table 1)
///   msn      - Michael & Scott non-blocking queue       (Table 1, Fig. 9)
///   lazylist - Heller et al. lazy list-based set        (Table 1)
///   harris   - Harris non-blocking set (marked pointers) (Table 1)
///   snark    - DCAS-based non-blocking deque, with the
///              published bugs                           (Table 1)
///   treiber  - Treiber lock-free stack                  (extension)
///
/// plus simple sequential reference implementations per data-type kind
/// ("refset" specification mining, Fig. 11a). All sources include the
/// shared prelude (cas/dcas/locks).
///
/// Variant defines:
///   LAZYLIST_INIT_BUG - omit the 'marked' initialization (Sec. 4.1 bug)
///
/// Fence placements follow Sec. 4.2/4.3; strip them with
/// LoweringOptions::StripFences to reproduce the relaxed-model failures.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_IMPLS_IMPLS_H
#define CHECKFENCE_IMPLS_IMPLS_H

#include <string>
#include <vector>

namespace checkfence {
namespace impls {

struct ImplInfo {
  std::string Name;        ///< "msn", "ms2", ...
  std::string Kind;        ///< "queue", "set", or "deque"
  std::string Description; ///< Table 1 description
};

/// The five implementations of Table 1.
const std::vector<ImplInfo> &allImpls();

/// Looks an implementation up by name; nullptr for unknown names.
const ImplInfo *findImpl(const std::string &Name);

/// Full CheckFence-C source (prelude + implementation + test wrappers).
std::string sourceFor(const std::string &Name);

/// The shared prelude (assert/fence declarations, cas, dcas, locks).
std::string preludeSource();

/// The first line of \p Source after the shared prelude it starts with
/// (1 when it does not start with the prelude). Fence synthesis and the
/// analysis's suggested cuts place fences only from this line on, never
/// inside the cas/lock builtins.
int firstImplLine(const std::string &Source);

/// Sequential reference implementation for a data-type kind.
std::string referenceFor(const std::string &Kind);

} // namespace impls
} // namespace checkfence

#endif // CHECKFENCE_IMPLS_IMPLS_H
