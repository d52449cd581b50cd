//===--- FlatProgram.h - unrolled guarded-SSA form --------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// After inlining and loop unrolling (Sec. 3.2), each thread is a simple
/// sequence of machine-level instructions. We represent this as:
///
///  * a pool of pure SSA \e definitions (constants, nondeterministic
///    choices, primitive ops, and load results) shared by all threads, and
///  * per-thread lists of \e events (loads, stores, fences) and \e checks
///    (assert / assume / definedness), each carrying a \e guard: an SSA
///    value that is truthy exactly when the instruction executes.
///
/// Register assignment was resolved into Select (mux) chains by the
/// flattener, so the encoder never sees control flow: condition (2) of the
/// execution definition in Sec. 2.3.1 becomes a pure dataflow formula
/// (the Delta_k of Sec. 3.2.1) and condition (3) ranges over the events.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_TRANS_FLATPROGRAM_H
#define CHECKFENCE_TRANS_FLATPROGRAM_H

#include "lsl/Value.h"
#include "support/SourceLoc.h"

#include <cassert>
#include <map>
#include <string>
#include <vector>

namespace checkfence {
namespace trans {

/// Index of an SSA definition in FlatProgram::Defs.
using ValueId = int;
constexpr ValueId NoValue = -1;

/// A pure SSA definition.
struct FlatDef {
  enum class Kind : uint8_t {
    Const,   ///< the LSL value Val
    Choice,  ///< nondeterministically one of Options
    Op,      ///< PrimOp(Operands..., Imm)
    LoadVal, ///< the value returned by memory for load event EventIndex
  };

  Kind K = Kind::Const;
  lsl::Value Val;                   // Const
  std::vector<lsl::Value> Options;  // Choice
  lsl::PrimOpKind Op = lsl::PrimOpKind::Copy;
  std::vector<ValueId> Operands;    // Op
  int64_t Imm = 0;                  // Op (PtrField)
  int EventIndex = -1;              // LoadVal
  std::string Name;                 // debug hint
};

/// A memory access or fence, annotated with its guard.
struct FlatEvent {
  enum class Kind : uint8_t { Load, Store, Fence };

  Kind K = Kind::Load;
  ValueId Guard = NoValue;
  ValueId Addr = NoValue;  // Load/Store
  ValueId Data = NoValue;  // Store: stored value; Load: the LoadVal def
  lsl::FenceKind FenceK = lsl::FenceKind::LoadLoad;
  int Thread = 0;
  int IndexInThread = 0; ///< program-order position within the thread
  int AtomicId = -1;     ///< enclosing atomic-block instance, -1 if none
  int OpInvId = -1;      ///< enclosing operation invocation, -1 if none
  SourceLoc Loc;
  /// Source lines of the call sites this event was inlined through,
  /// outermost first (empty for top-level statements). Lets tools
  /// attribute an access inside a shared builtin (cas, lock) back to the
  /// implementation line that invoked it (used by fence synthesis).
  std::vector<int> CallLines;

  bool isAccess() const { return K != Kind::Fence; }
  bool isLoad() const { return K == Kind::Load; }
  bool isStore() const { return K == Kind::Store; }
};

/// A side condition: assertion, assumption, or runtime-type check.
struct FlatCheck {
  enum class Kind : uint8_t {
    Assert,      ///< error if guard && !truthy(Cond); error if Cond undef
    Assume,      ///< execution infeasible unless guard -> truthy(Cond)
    CheckAddr,   ///< error if guard && Cond is not a pointer
    CheckBranch, ///< error if guard && Cond is undefined
    CheckDef,    ///< error if guard && Cond is undefined (computation use)
  };

  Kind K = Kind::Assert;
  ValueId Guard = NoValue;
  ValueId Cond = NoValue;
  int Thread = 0;
  SourceLoc Loc;
};

/// One slot of the observation vector (an operation argument or result).
struct FlatObservation {
  ValueId Val = NoValue;
  int OpInvId = -1;
  std::string Label;
};

/// Marks "execution wanted to run loop instance LoopId past its current
/// unroll bound" (guard truthy). Used by the lazy unrolling driver
/// (Sec. 3.3): normal checks assume all marks false; the bound probe asks
/// for any mark true.
struct FlatBoundMark {
  ValueId Guard = NoValue;
  std::string LoopKey; ///< stable identity of the loop instance
  bool Restricted = false; ///< primed ops: bound is fixed, never grown
  int Thread = 0;
  SourceLoc Loc;
};

/// An operation invocation of the symbolic test (for seriality and traces).
struct FlatOpInvocation {
  int Id = 0;
  int Thread = 0;
  std::string Name;
};

/// A commit-point marker (baseline method): when its guard holds, the
/// immediately preceding access of its thread is the operation's commit
/// access candidate.
struct FlatCommitMark {
  ValueId Guard = NoValue;
  int OpInvId = -1;
  int PrecedingEvent = -1; ///< event index of the preceding access, or -1
  int Thread = 0;
  SourceLoc Loc;
};

/// The unrolled test program.
class FlatProgram {
public:
  std::vector<FlatDef> Defs;
  std::vector<FlatEvent> Events;
  std::vector<FlatCheck> Checks;
  std::vector<FlatObservation> Observations;
  std::vector<FlatBoundMark> BoundMarks;
  std::vector<FlatOpInvocation> OpInvocations;
  std::vector<FlatCommitMark> CommitMarks;
  int NumThreads = 0;
  int NumAtomicInstances = 0;
  /// Thread 0 is the initialization sequence: its events are ordered before
  /// all other threads' events.
  bool ThreadZeroIsInit = true;
  /// Number of distinct unrolled instructions (paper Fig. 10 "instrs"): the
  /// flattener counts every flattened LSL statement instance.
  int UnrolledInstrCount = 0;

  const FlatDef &def(ValueId V) const {
    assert(V >= 0 && V < static_cast<int>(Defs.size()));
    return Defs[V];
  }

  ValueId addDef(FlatDef D) {
    Defs.push_back(std::move(D));
    return static_cast<ValueId>(Defs.size() - 1);
  }

  /// True if \p V is a Const def; if so *Out receives the value.
  bool isConst(ValueId V, lsl::Value *Out = nullptr) const {
    if (V < 0 || Defs[V].K != FlatDef::Kind::Const)
      return false;
    if (Out)
      *Out = Defs[V].Val;
    return true;
  }

  /// True if \p V is the constant integer \p N.
  bool isConstInt(ValueId V, int64_t N) const {
    lsl::Value Val;
    return isConst(V, &Val) && Val.isInt() && Val.intValue() == N;
  }

  int numLoads() const {
    int N = 0;
    for (const FlatEvent &E : Events)
      N += E.isLoad();
    return N;
  }
  int numStores() const {
    int N = 0;
    for (const FlatEvent &E : Events)
      N += E.isStore();
    return N;
  }
  int numAccesses() const { return numLoads() + numStores(); }
};

} // namespace trans
} // namespace checkfence

#endif // CHECKFENCE_TRANS_FLATPROGRAM_H
