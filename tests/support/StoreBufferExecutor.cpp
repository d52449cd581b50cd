//===--- StoreBufferExecutor.cpp - operational TSO/PSO oracle ---------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "StoreBufferExecutor.h"

#include <map>
#include <set>
#include <string>

using namespace checkfence;
using namespace checkfence::memmodel;
using namespace checkfence::trans;

using lsl::Value;

namespace {

/// One store-buffer slot: a pending store, or a store-store barrier.
struct BufferEntry {
  bool IsBarrier = false;
  /// Set by a store-load fence: the thread's loads stall until this entry
  /// drains.
  bool BlocksLoads = false;
  Value Addr;
  Value Data;
};

struct ThreadState {
  size_t Pos = 0; ///< next event index within the thread
  std::vector<BufferEntry> Buffer;
};

class Machine {
public:
  Machine(const FlatProgram &P, const StoreBufferOptions &Opts)
      // The buffer drains FIFO exactly when the model preserves
      // store-store program order (TSO); PSO drains per-address.
      : P(P), Opts(Opts), Fifo(Opts.Model.OrderStoreStore) {
    ThreadEvents.resize(P.NumThreads);
    for (size_t I = 0; I < P.Events.size(); ++I)
      ThreadEvents[P.Events[I].Thread].push_back(static_cast<int>(I));
    for (size_t I = 0; I < P.Defs.size(); ++I)
      if (P.Defs[I].K == FlatDef::Kind::Choice)
        ChoiceDefs.push_back(static_cast<ValueId>(I));
  }

  StoreBufferResult run() {
    for (const FlatEvent &E : P.Events) {
      if (E.isAccess() && E.AtomicId >= 0) {
        Result.Error = "atomic blocks are not supported";
        return std::move(Result);
      }
    }
    State Init;
    Init.DefVals.assign(P.Defs.size(), Value::undef());
    Init.DefKnown.assign(P.Defs.size(), 0);
    Init.Threads.resize(P.NumThreads);
    enumerateChoices(Init, 0);
    if (Result.Error.empty())
      Result.Ok = true;
    return std::move(Result);
  }

private:
  struct State {
    std::vector<ThreadState> Threads;
    std::map<Value, Value> Memory;
    std::vector<Value> DefVals;
    std::vector<char> DefKnown;
  };

  /// Canonical serialization for the visited-state memo. Everything a
  /// future step can observe is covered: thread positions, buffers,
  /// memory, and the values produced so far (load results; constants and
  /// ops are deterministic, choices are fixed per enumeration).
  std::string signature(const State &S) const {
    std::string Sig;
    for (const ThreadState &T : S.Threads) {
      Sig += std::to_string(T.Pos);
      Sig += 't';
      for (const BufferEntry &B : T.Buffer) {
        Sig += B.IsBarrier ? '|' : (B.BlocksLoads ? '!' : '.');
        if (!B.IsBarrier) {
          Sig += B.Addr.str();
          Sig += '=';
          Sig += B.Data.str();
        }
        Sig += ';';
      }
      Sig += '#';
    }
    for (const auto &[Addr, Val] : S.Memory) {
      Sig += Addr.str();
      Sig += '=';
      Sig += Val.str();
      Sig += ';';
    }
    Sig += '@';
    for (size_t I = 0; I < P.Defs.size(); ++I) {
      if (P.Defs[I].K != FlatDef::Kind::LoadVal || !S.DefKnown[I])
        continue;
      Sig += std::to_string(I);
      Sig += '=';
      Sig += S.DefVals[I].str();
      Sig += ';';
    }
    return Sig;
  }

  void enumerateChoices(State &S, size_t Idx) {
    if (Idx == ChoiceDefs.size()) {
      Visited.clear();
      dfs(S);
      return;
    }
    ValueId Id = ChoiceDefs[Idx];
    for (const Value &Option : P.Defs[Id].Options) {
      S.DefVals[Id] = Option;
      S.DefKnown[Id] = 1;
      enumerateChoices(S, Idx + 1);
    }
  }

  Value eval(State &S, ValueId Id) {
    if (Id < 0)
      return Value::undef();
    if (S.DefKnown[Id])
      return S.DefVals[Id];
    const FlatDef &D = P.def(Id);
    Value V;
    switch (D.K) {
    case FlatDef::Kind::Const:
      V = D.Val;
      break;
    case FlatDef::Kind::Choice:
    case FlatDef::Kind::LoadVal:
      return Value::undef(); // choice bound upfront; load not yet issued
    case FlatDef::Kind::Op: {
      std::vector<Value> Args;
      Args.reserve(D.Operands.size());
      for (ValueId O : D.Operands)
        Args.push_back(eval(S, O));
      V = lsl::evalPrimOp(D.Op, Args, D.Imm);
      break;
    }
    }
    S.DefVals[Id] = V;
    S.DefKnown[Id] = 1;
    return V;
  }

  bool guardHolds(State &S, ValueId Guard) {
    Value G = eval(S, Guard);
    return !G.isUndef() && G.isTruthy();
  }

  /// Indices of buffer entries eligible to drain next.
  std::vector<size_t> drainable(const ThreadState &T) const {
    std::vector<size_t> Out;
    for (size_t I = 0; I < T.Buffer.size(); ++I) {
      const BufferEntry &E = T.Buffer[I];
      if (E.IsBarrier)
        continue;
      bool Blocked = false;
      for (size_t J = 0; J < I && !Blocked; ++J) {
        const BufferEntry &Older = T.Buffer[J];
        Blocked = Older.IsBarrier || (!Older.IsBarrier &&
                                      !Older.Addr.isUndef() &&
                                      Older.Addr == E.Addr) ||
                  Fifo;
        // Undefined addresses conservatively block everything behind them.
        Blocked = Blocked || Older.Addr.isUndef();
      }
      if (!Blocked)
        Out.push_back(I);
      if (Fifo)
        break; // only the head can be eligible
    }
    return Out;
  }

  void drain(State &S, int T, size_t Index) {
    ThreadState &TS = S.Threads[T];
    BufferEntry E = TS.Buffer[Index];
    TS.Buffer.erase(TS.Buffer.begin() + Index);
    if (!E.Addr.isUndef())
      S.Memory[E.Addr] = E.Data;
    // Leading barriers evaporate once nothing precedes them.
    while (!TS.Buffer.empty() && TS.Buffer.front().IsBarrier)
      TS.Buffer.erase(TS.Buffer.begin());
  }

  /// Whether thread \p T's next instruction can execute now; loads stall
  /// behind a pending store-load fence.
  bool instructionEnabled(State &S, int T) const {
    const ThreadState &TS = S.Threads[T];
    if (TS.Pos >= ThreadEvents[T].size())
      return false;
    const FlatEvent &E = P.Events[ThreadEvents[T][TS.Pos]];
    if (E.isLoad())
      for (const BufferEntry &B : TS.Buffer)
        if (B.BlocksLoads)
          return false;
    return true;
  }

  /// Executes the next instruction of thread \p T in place.
  void executeInstruction(State &S, int T) {
    ThreadState &TS = S.Threads[T];
    const FlatEvent &E = P.Events[ThreadEvents[T][TS.Pos]];
    ++TS.Pos;
    if (!guardHolds(S, E.Guard))
      return;
    switch (E.K) {
    case FlatEvent::Kind::Load: {
      Value Addr = eval(S, E.Addr);
      Value Loaded = Value::undef();
      if (Addr.isPtr()) {
        bool Forwarded = false;
        for (size_t I = TS.Buffer.size(); I-- > 0;) {
          const BufferEntry &B = TS.Buffer[I];
          if (!B.IsBarrier && B.Addr == Addr) {
            Loaded = B.Data;
            Forwarded = true;
            break;
          }
        }
        if (!Forwarded) {
          auto It = S.Memory.find(Addr);
          if (It != S.Memory.end())
            Loaded = It->second;
        }
      }
      S.DefVals[E.Data] = Loaded;
      S.DefKnown[E.Data] = 1;
      break;
    }
    case FlatEvent::Kind::Store: {
      BufferEntry B;
      B.Addr = eval(S, E.Addr);
      B.Data = eval(S, E.Data);
      TS.Buffer.push_back(B);
      break;
    }
    case FlatEvent::Kind::Fence:
      switch (E.FenceK) {
      case lsl::FenceKind::StoreStore:
        if (!Fifo && !TS.Buffer.empty()) {
          BufferEntry B;
          B.IsBarrier = true;
          TS.Buffer.push_back(B);
        }
        break;
      case lsl::FenceKind::StoreLoad:
        for (BufferEntry &B : TS.Buffer)
          if (!B.IsBarrier)
            B.BlocksLoads = true;
        break;
      case lsl::FenceKind::LoadLoad:
      case lsl::FenceKind::LoadStore:
        break; // loads issue in program order on this machine
      }
      break;
    }
  }

  void dfs(State &S) {
    if (++Steps > Opts.MaxSteps) {
      Result.Error = "step budget exceeded";
      return;
    }
    if (!Result.Error.empty())
      return;
    if (!Visited.insert(signature(S)).second)
      return; // state already explored

    // The init thread runs to completion (with full drains) first.
    if (P.ThreadZeroIsInit && P.NumThreads > 0) {
      ThreadState &T0 = S.Threads[0];
      if (T0.Pos < ThreadEvents[0].size() || !T0.Buffer.empty()) {
        State S2 = S;
        while (S2.Threads[0].Pos < ThreadEvents[0].size())
          executeInstruction(S2, 0);
        while (!S2.Threads[0].Buffer.empty()) {
          std::vector<size_t> D = drainable(S2.Threads[0]);
          if (D.empty())
            break; // only barriers remain; they evaporate in drain()
          drain(S2, 0, D[0]);
        }
        dfs(S2);
        return;
      }
    }

    bool Any = false;
    for (int T = P.ThreadZeroIsInit ? 1 : 0; T < P.NumThreads; ++T) {
      if (instructionEnabled(S, T)) {
        Any = true;
        State S2 = S;
        executeInstruction(S2, T);
        dfs(S2);
      }
      for (size_t Index : drainable(S.Threads[T])) {
        Any = true;
        State S2 = S;
        drain(S2, T, Index);
        dfs(S2);
      }
    }
    if (!Any)
      finalize(S);
  }

  void finalize(State &S) {
    // A stuck thread (load blocked forever) cannot happen: drains are
    // always eventually enabled. Unfinished threads mean a real deadlock
    // in the input, which the flat programs here never contain.
    for (int T = 0; T < P.NumThreads; ++T)
      if (S.Threads[T].Pos < ThreadEvents[T].size())
        return;

    for (const FlatBoundMark &M : P.BoundMarks)
      if (guardHolds(S, M.Guard))
        return; // within-bounds semantics

    bool Error = false;
    for (const FlatCheck &C : P.Checks) {
      if (!guardHolds(S, C.Guard))
        continue;
      Value Cond = eval(S, C.Cond);
      switch (C.K) {
      case FlatCheck::Kind::Assume:
        if (Cond.isUndef()) {
          Error = true;
          break;
        }
        if (!Cond.isTruthy())
          return;
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

    RefObservation Obs;
    Obs.Error = Error;
    for (const FlatObservation &O : P.Observations)
      Obs.Values.push_back(eval(S, O.Val));
    Result.Observations.insert(std::move(Obs));
  }

  const FlatProgram &P;
  StoreBufferOptions Opts;
  bool Fifo;
  std::vector<std::vector<int>> ThreadEvents;
  std::vector<ValueId> ChoiceDefs;
  StoreBufferResult Result;
  std::set<std::string> Visited;
  uint64_t Steps = 0;
};

} // namespace

StoreBufferResult
checkfence::memmodel::enumerateStoreBuffer(const FlatProgram &P,
                                           const StoreBufferOptions &Opts) {
  Machine M(P, Opts);
  return M.run();
}
