//===--- Program.h - LSL procedures and programs ----------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LSL program is a set of named procedures. A procedure has parameter
/// registers (0..NumParams-1), a body, and designated return registers that
/// the body assigns before falling off the end (the C frontend lowers
/// 'return e;' into 'retreg = e; break <outermost>').
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_LSL_PROGRAM_H
#define CHECKFENCE_LSL_PROGRAM_H

#include "lsl/Stmt.h"

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace checkfence {
namespace lsl {

/// A named LSL procedure.
struct Proc {
  std::string Name;
  int NumParams = 0;
  std::vector<Reg> RetRegs;
  int NumRegs = 0;
  int NumTags = 0;
  std::vector<Stmt *> Body;
  /// Debug names for registers (may be shorter than NumRegs).
  std::vector<std::string> RegNames;

  Reg newReg(const std::string &Name = "") {
    Reg R = NumRegs++;
    RegNames.resize(NumRegs);
    RegNames[R] = Name;
    return R;
  }

  int newTag() { return NumTags++; }

  std::string regName(Reg R) const;
};

/// A whole LSL translation unit. Owns all statements (arena) and the
/// global-variable layout: each global gets a base address; the pointer
/// value of global G is [BaseOf(G)].
class Program {
public:
  Program() = default;
  /// Move-only: statements point into the arena, and a moved deque keeps
  /// its elements where they are.
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Allocates a statement in the arena.
  Stmt *create(StmtKind K) {
    Arena.emplace_back();
    Arena.back().K = K;
    return &Arena.back();
  }

  Proc *getOrCreateProc(const std::string &Name) {
    auto It = Procs.find(Name);
    if (It != Procs.end())
      return It->second.get();
    auto P = std::make_unique<Proc>();
    P->Name = Name;
    Proc *Raw = P.get();
    Procs.emplace(Name, std::move(P));
    return Raw;
  }

  Proc *findProc(const std::string &Name) const {
    auto It = Procs.find(Name);
    return It == Procs.end() ? nullptr : It->second.get();
  }

  const std::map<std::string, std::unique_ptr<Proc>> &procs() const {
    return Procs;
  }

  /// Registers a global variable; returns its base address index.
  uint32_t addGlobal(const std::string &Name) {
    Globals.push_back(Name);
    return static_cast<uint32_t>(Globals.size() - 1);
  }

  const std::vector<std::string> &globals() const { return Globals; }

  /// First base address available for heap allocation (all global bases are
  /// below this).
  uint32_t heapBase() const { return static_cast<uint32_t>(Globals.size()); }

  /// A fresh allocation-site number.
  int newAllocSite() { return NumAllocSites++; }

private:
  std::map<std::string, std::unique_ptr<Proc>> Procs;
  std::deque<Stmt> Arena;
  std::vector<std::string> Globals;
  int NumAllocSites = 0;
};

} // namespace lsl
} // namespace checkfence

#endif // CHECKFENCE_LSL_PROGRAM_H
