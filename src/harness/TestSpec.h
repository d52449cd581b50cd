//===--- TestSpec.h - symbolic test programs --------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Symbolic tests (Sec. 2.1, Fig. 8): a finite sequence of operation calls
/// per thread, plus an optional initialization sequence. Operation
/// arguments are chosen nondeterministically from {0,1}; primed operations
/// restrict retry loops to a single iteration.
///
/// Tests are written in the paper's compact notation, e.g.
///   "e ( ed | de )"      (queue test Ti2)
///   "(a' | a' | c' | c' | r' | r')"   (set test S1)
/// and expanded into LSL thread procedures by buildTestThreads().
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_HARNESS_TESTSPEC_H
#define CHECKFENCE_HARNESS_TESTSPEC_H

#include "lsl/Program.h"

#include <string>
#include <vector>

namespace checkfence {
namespace harness {

/// One operation invocation in a test.
struct OpSpec {
  std::string Proc;   ///< wrapper procedure, e.g. "enqueue_op"
  int NumArgs = 0;    ///< symbolic {0,1} arguments
  bool HasRet = false;
  bool Primed = false; ///< retry loops restricted to one iteration

  friend bool operator==(const OpSpec &A, const OpSpec &B) {
    return A.Proc == B.Proc && A.NumArgs == B.NumArgs &&
           A.HasRet == B.HasRet && A.Primed == B.Primed;
  }
  friend bool operator!=(const OpSpec &A, const OpSpec &B) {
    return !(A == B);
  }
};

struct TestSpec {
  std::string Name;
  std::vector<OpSpec> Init; ///< runs in the init thread, after init_op
  std::vector<std::vector<OpSpec>> Threads;

  /// Structural equality: the operation sequences only. Name is display
  /// metadata (the notation does not carry it), so parse(render(spec))
  /// compares equal to spec regardless of naming.
  friend bool operator==(const TestSpec &A, const TestSpec &B) {
    return A.Init == B.Init && A.Threads == B.Threads;
  }
  friend bool operator!=(const TestSpec &A, const TestSpec &B) {
    return !(A == B);
  }
};

/// Binding of a notation token to an operation wrapper.
struct OpBinding {
  std::string Token; ///< "e", "d", "al", ...
  std::string Proc;
  int NumArgs = 0;
  bool HasRet = false;
};
using OpAlphabet = std::vector<OpBinding>;

/// Parses the paper's test notation over \p Alphabet. Tokens are matched
/// longest-first; a prime (') after a token marks a no-retry invocation.
/// Format: [init-ops] '(' thread { '|' thread } ')'.
bool parseTestNotation(const std::string &Text, const OpAlphabet &Alphabet,
                       TestSpec &Out, std::string &Error);

/// Renders \p Spec back into the paper's notation over \p Alphabet, e.g.
/// "e ( e d | d e' )". The inverse of parseTestNotation up to whitespace:
/// parse(render(S)) == S for every spec whose operations are all bound in
/// the alphabet. Operations without a token render as "?" (and then do
/// not re-parse) - callers generating specs from an alphabet never hit
/// this.
std::string renderTestNotation(const TestSpec &Spec,
                               const OpAlphabet &Alphabet);

/// Builds the test's thread procedures into \p Prog and returns their
/// names; index 0 is the initialization thread (calls "__global_init" and
/// "init_op" before the init-sequence operations).
std::vector<std::string> buildTestThreads(lsl::Program &Prog,
                                          const TestSpec &Test);

} // namespace harness
} // namespace checkfence

#endif // CHECKFENCE_HARNESS_TESTSPEC_H
