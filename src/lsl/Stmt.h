//===--- Stmt.h - LSL statements (paper Fig. 4) -----------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The load-store language (LSL) statement forms, mirroring Fig. 4:
///
///   s ::= r = v              (constant)
///       | r = f(r...)        (primitive op)
///       | *r = r             (store)
///       | r = *r             (load)
///       | fenceX             (memory ordering fence)
///       | atomic { s* }      (atomic block)
///       | p(r...)(r...)      (procedure call: args, then return registers)
///       | t: { s* }          (labeled block)
///       | if (r) break t     (leave block)
///       | if (r) continue t  (repeat block)
///       | assert(r)
///       | assume(r)
///
/// plus three extensions required by the methodology:
///
///       | r = choice(v1,...) (nondeterministic pick: symbolic test args)
///       | r = alloc(site)    (fresh heap cell group: new_node)
///       | observe(r)         (append r to the observation vector)
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_LSL_STMT_H
#define CHECKFENCE_LSL_STMT_H

#include "lsl/Value.h"
#include "support/SourceLoc.h"

#include <string>
#include <vector>

namespace checkfence {
namespace lsl {

/// A virtual register, numbered per procedure.
using Reg = int;

constexpr Reg RegNone = -1;

enum class StmtKind : uint8_t {
  Const,    ///< Def = ConstVal
  Choice,   ///< Def = one of Choices (nondeterministic)
  PrimOp,   ///< Def = Op(Args..., Imm)
  Load,     ///< Def = *Addr
  Store,    ///< *Addr = Args[0]
  Fence,    ///< fence(FenceK)
  Atomic,   ///< atomic { Body }
  Call,     ///< Callee(Args...)(Rets...)
  Block,    ///< BlockTag: { Body }
  Break,    ///< if (Cond) break TargetTag
  Continue, ///< if (Cond) continue TargetTag
  Assert,   ///< assert(Cond)
  Assume,   ///< assume(Cond)
  Alloc,    ///< Def = fresh address (allocation site AllocSite)
  Observe,  ///< observe(Args[0])
  Commit,   ///< commit-point marker (baseline commit-point method)
};

const char *stmtKindName(StmtKind K);

/// A single LSL statement. Statements are arena-allocated by the owning
/// Program and referenced by raw pointer; block-like statements own their
/// children through the same arena.
struct Stmt {
  StmtKind K;
  SourceLoc Loc;

  /// Defined register (Const/Choice/PrimOp/Load/Alloc), else RegNone.
  Reg Def = RegNone;
  /// Register operands. Store: Args[0] is the stored value. Observe: the
  /// observed register. PrimOp: the operand list. Call: argument registers.
  std::vector<Reg> Args;
  /// Condition register (Break/Continue/Assert/Assume).
  Reg Cond = RegNone;
  /// Address register (Load/Store).
  Reg Addr = RegNone;

  Value ConstVal;               // Const
  std::vector<Value> Choices;   // Choice
  PrimOpKind Op = PrimOpKind::Copy;
  int64_t Imm = 0;              // PtrField immediate
  FenceKind FenceK = FenceKind::LoadLoad;
  std::string Callee;           // Call
  std::vector<Reg> Rets;        // Call return registers
  int BlockTag = -1;            // Block label
  int TargetTag = -1;           // Break/Continue target
  std::vector<Stmt *> Body;     // Block/Atomic children
  int AllocSite = -1;           // Alloc

  bool isBlockLike() const {
    return K == StmtKind::Block || K == StmtKind::Atomic;
  }
};

} // namespace lsl
} // namespace checkfence

#endif // CHECKFENCE_LSL_STMT_H
