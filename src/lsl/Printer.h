//===--- Printer.h - textual dump of LSL programs ---------------*- C++ -*-==//
///
/// \file
/// Renders LSL procedures/programs as human-readable text, used by the
/// frontend golden tests and by -debug style dumps.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_LSL_PRINTER_H
#define CHECKFENCE_LSL_PRINTER_H

#include "lsl/Program.h"

#include <string>

namespace checkfence {
namespace lsl {

/// Renders a single statement tree (multi-line for blocks).
std::string printStmt(const Proc &P, const Stmt *S, int Indent = 0);

/// Renders a whole procedure.
std::string printProc(const Proc &P);

/// Renders all procedures of a program.
std::string printProgram(const Program &Prog);

/// printProgram with every Fence statement skipped and every block
/// tagged with its source line. Two programs that differ only in fence
/// placement render identically; loop-bound keys (which name block
/// lines) mean the same loops in both. Keys serial-model artifacts,
/// which fences cannot affect (support::fenceBlindFingerprint).
std::string printProgramFenceBlind(const Program &Prog);

/// Renders \p Prog back as CheckFence-C source. Supported is the
/// *explore fragment*: scalar int globals and straight-line procedures
/// built from global stores (constant / register / register + constant),
/// loads into named locals, fences, observes, and atomic blocks of the
/// same forms - the shapes the explore generator emits and the shrinker
/// preserves.
///
/// The output round-trips through the frontend: compiling it again
/// (preprocess -> parse -> lower) yields a program whose printProgram
/// text is byte-identical to \p Prog's, so persisted repros re-check
/// with the same lowered-program fingerprint. Programs outside the
/// fragment return false with \p Error set (never wrong output).
bool printCSource(const Program &Prog, std::string &Out,
                  std::string &Error);

} // namespace lsl
} // namespace checkfence

#endif // CHECKFENCE_LSL_PRINTER_H
