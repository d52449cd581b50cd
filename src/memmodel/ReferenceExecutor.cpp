//===--- ReferenceExecutor.cpp - explicit-state oracle ----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "memmodel/ReferenceExecutor.h"

#include <cassert>
#include <map>

using namespace checkfence;
using namespace checkfence::memmodel;
using namespace checkfence::trans;

using lsl::Value;

namespace {

class Enumerator {
public:
  Enumerator(const FlatProgram &P, const RefOptions &Opts)
      : P(P), Opts(Opts), ThreadPos(P.NumThreads, 0),
        DefVals(P.Defs.size(), Value::undef()), DefKnown(P.Defs.size(), 0),
        OpArgs(P.Defs.size()) {
    ThreadEvents.resize(P.NumThreads);
    for (size_t I = 0; I < P.Events.size(); ++I)
      ThreadEvents[P.Events[I].Thread].push_back(static_cast<int>(I));
    for (size_t I = 0; I < P.Defs.size(); ++I)
      if (P.Defs[I].K == FlatDef::Kind::Choice)
        ChoiceDefs.push_back(static_cast<ValueId>(I));
  }

  OracleResult run() {
    // Enumerate all assignments of the nondeterministic choices, then all
    // interleavings for each assignment.
    enumerateChoices(0);
    OracleResult Out;
    Out.Reason = Skip;
    Out.Error = oracleSkipMessage(Skip);
    Out.Ok = Skip == OracleSkip::None;
    Out.Observations = std::move(Observations);
    return Out;
  }

private:
  /// A store's change to memory, undone on backtrack.
  struct StoreUndo {
    std::map<Value, Value>::iterator Cell;
    bool Inserted = false;
    Value Old; // the cell's previous contents unless Inserted
  };

  const FlatProgram &P;
  const RefOptions &Opts;
  std::vector<std::vector<int>> ThreadEvents;
  std::vector<ValueId> ChoiceDefs;
  std::set<RefObservation> Observations;
  RefObservation LeafObs; // finalize() scratch
  uint64_t Steps = 0;
  OracleSkip Skip = OracleSkip::None;
  const Value Undef;

  // The state of the current interleaving prefix. Scheduling units run in
  // place; dfs() undoes each one on backtrack through the two logs.
  std::vector<size_t> ThreadPos;
  std::map<Value, Value> Memory;
  std::vector<Value> DefVals;
  std::vector<char> DefKnown;
  std::vector<ValueId> Defined; // defs made known, in order (choices aside)
  std::vector<StoreUndo> Stores;
  std::vector<std::vector<Value>> OpArgs; // operand scratch per Op def

  void enumerateChoices(size_t ChoiceIdx) {
    if (ChoiceIdx == ChoiceDefs.size()) {
      dfs();
      undo(0, 0); // memo of a leaf that no step led to (no events)
      return;
    }
    ValueId Id = ChoiceDefs[ChoiceIdx];
    for (const Value &Option : P.Defs[Id].Options) {
      if (Skip != OracleSkip::None)
        return;
      DefVals[Id] = Option;
      DefKnown[Id] = 1;
      enumerateChoices(ChoiceIdx + 1);
    }
  }

  /// Memoizes \p V as the value of \p Id in the current prefix.
  const Value &define(ValueId Id, const Value &V) {
    assert(!DefKnown[Id] && "a def is defined once per interleaving");
    DefVals[Id] = V;
    DefKnown[Id] = 1;
    Defined.push_back(Id);
    return DefVals[Id];
  }

  void undo(size_t DefMark, size_t StoreMark) {
    for (; Defined.size() > DefMark; Defined.pop_back())
      DefKnown[Defined.back()] = 0;
    for (; Stores.size() > StoreMark; Stores.pop_back()) {
      StoreUndo &U = Stores.back();
      if (U.Inserted)
        Memory.erase(U.Cell);
      else
        U.Cell->second = std::move(U.Old);
    }
  }

  const Value &eval(ValueId Id) {
    if (Id < 0)
      return Undef;
    if (DefKnown[Id])
      return DefVals[Id];
    const FlatDef &D = P.Defs[Id];
    switch (D.K) {
    case FlatDef::Kind::Const:
      return define(Id, D.Val);
    case FlatDef::Kind::Choice:
      return define(Id, Undef); // bound upfront; unreachable
    case FlatDef::Kind::LoadVal:
      // A load result read before the load executed: can only happen for
      // dead code whose guard is false; undefined is a safe answer.
      return Undef;
    case FlatDef::Kind::Op: {
      // Defs form a DAG, so no operand evaluation reenters this scratch.
      std::vector<Value> &Args = OpArgs[Id];
      Args.resize(D.Operands.size());
      for (size_t I = 0; I < D.Operands.size(); ++I)
        Args[I] = eval(D.Operands[I]);
      return define(Id, lsl::evalPrimOp(D.Op, Args, D.Imm));
    }
    }
    return Undef;
  }

  bool guardHolds(ValueId Guard) {
    const Value &G = eval(Guard);
    return !G.isUndef() && G.isTruthy();
  }

  /// Executes the next scheduling unit of thread \p T in place.
  void executeUnit(int T) {
    const std::vector<int> &Evs = ThreadEvents[T];
    size_t &Pos = ThreadPos[T];
    assert(Pos < Evs.size());
    const FlatEvent &First = P.Events[Evs[Pos]];

    // Determine the unit: one event, a whole atomic block, or a whole
    // invocation depending on granularity.
    auto SameUnit = [&](const FlatEvent &E) {
      if (Opts.InvocationGranularity)
        return E.OpInvId == First.OpInvId;
      if (First.AtomicId >= 0)
        return E.AtomicId == First.AtomicId;
      return false; // single event
    };

    bool FirstStep = true;
    while (Pos < Evs.size()) {
      const FlatEvent &E = P.Events[Evs[Pos]];
      if (!FirstStep && !SameUnit(E))
        break;
      FirstStep = false;
      ++Pos;
      ++Steps;
      if (!guardHolds(E.Guard))
        continue;
      switch (E.K) {
      case FlatEvent::Kind::Load: {
        const Value &Addr = eval(E.Addr);
        const Value *Loaded = &Undef;
        if (Addr.isPtr()) {
          auto It = Memory.find(Addr);
          if (It != Memory.end())
            Loaded = &It->second;
        }
        define(E.Data, *Loaded);
        break;
      }
      case FlatEvent::Kind::Store: {
        const Value &Addr = eval(E.Addr);
        if (!Addr.isPtr())
          break;
        const Value &Data = eval(E.Data);
        auto [Cell, Inserted] = Memory.try_emplace(Addr);
        Stores.push_back({Cell, Inserted, std::move(Cell->second)});
        Cell->second = Data;
        break;
      }
      case FlatEvent::Kind::Fence:
        break;
      }
    }
  }

  /// Runs thread \p T one scheduling unit (its whole remainder when
  /// \p ToEnd) further, searches on from there, and undoes the step.
  void step(int T, bool ToEnd) {
    size_t Pos = ThreadPos[T], DefMark = Defined.size(),
           StoreMark = Stores.size();
    do
      executeUnit(T);
    while (ToEnd && ThreadPos[T] < ThreadEvents[T].size());
    dfs();
    undo(DefMark, StoreMark);
    ThreadPos[T] = Pos;
  }

  void dfs() {
    if (Steps > Opts.MaxSteps) {
      Skip = OracleSkip::BudgetExceeded;
      return;
    }

    // The init thread runs to completion before anything else.
    if (P.ThreadZeroIsInit && P.NumThreads > 0 &&
        ThreadPos[0] < ThreadEvents[0].size()) {
      step(0, /*ToEnd=*/true);
      return;
    }

    bool Any = false;
    for (int T = 0; T < P.NumThreads; ++T) {
      if (ThreadPos[T] >= ThreadEvents[T].size())
        continue;
      Any = true;
      step(T, /*ToEnd=*/false);
    }
    if (!Any)
      finalize();
  }

  void finalize() {
    // Within-bounds semantics: drop executions that exceed a loop bound.
    for (const FlatBoundMark &M : P.BoundMarks)
      if (guardHolds(M.Guard))
        return;

    bool Error = false;
    for (const FlatCheck &C : P.Checks) {
      if (!guardHolds(C.Guard))
        continue;
      const Value &Cond = eval(C.Cond);
      switch (C.K) {
      case FlatCheck::Kind::Assume:
        if (Cond.isUndef()) {
          Error = true;
          break;
        }
        if (!Cond.isTruthy())
          return; // infeasible
        break;
      case FlatCheck::Kind::Assert:
        if (Cond.isUndef() || !Cond.isTruthy())
          Error = true;
        break;
      case FlatCheck::Kind::CheckAddr:
        if (!Cond.isPtr())
          Error = true;
        break;
      case FlatCheck::Kind::CheckBranch:
      case FlatCheck::Kind::CheckDef:
        if (Cond.isUndef())
          Error = true;
        break;
      }
    }

    LeafObs.Error = Error;
    LeafObs.Values.resize(P.Observations.size());
    for (size_t I = 0; I < P.Observations.size(); ++I)
      LeafObs.Values[I] = eval(P.Observations[I].Val);
    Observations.insert(LeafObs); // copies only a new observation
  }
};

} // namespace

OracleResult checkfence::memmodel::enumerateExecutions(const FlatProgram &P,
                                                       const RefOptions &Opts) {
  return Enumerator(P, Opts).run();
}
