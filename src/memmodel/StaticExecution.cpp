//===--- StaticExecution.cpp - shared kernel of the oracles ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "memmodel/StaticExecution.h"

using namespace checkfence;
using namespace checkfence::memmodel;
using namespace checkfence::trans;

using lsl::Value;

StaticExecution::StaticExecution(const FlatProgram &P,
                                 const ModelParams &Model,
                                 const std::vector<Value> &Bound)
    : P(P), Model(Model), DefVals(P.Defs.size(), Value::undef()),
      DefKnown(P.Defs.size(), 0), DynStamp(P.Defs.size(), 0),
      DynVal(P.Defs.size(), nullptr), OpVals(P.Defs.size()),
      OpArgs(P.Defs.size()) {
  for (size_t I = 0; I < P.Defs.size(); ++I)
    if (P.Defs[I].K == FlatDef::Kind::Choice) {
      DefVals[I] = Bound[I];
      DefKnown[I] = 1;
    }
  Skip = build();
}

bool StaticExecution::evalStatic(ValueId Id, Value &Out) {
  if (Id < 0) {
    Out = Value::undef();
    return true;
  }
  if (DefKnown[Id]) {
    Out = DefVals[Id];
    return true;
  }
  const FlatDef &D = P.def(Id);
  Value V;
  switch (D.K) {
  case FlatDef::Kind::Const:
    V = D.Val;
    break;
  case FlatDef::Kind::Choice:
    V = DefVals[Id]; // bound by the choice enumeration
    break;
  case FlatDef::Kind::LoadVal:
    return false; // not static
  case FlatDef::Kind::Op: {
    std::vector<Value> Args;
    Args.reserve(D.Operands.size());
    for (ValueId O : D.Operands) {
      Args.emplace_back();
      if (!evalStatic(O, Args.back()))
        return false;
    }
    V = lsl::evalPrimOp(D.Op, Args, D.Imm);
    break;
  }
  }
  DefVals[Id] = V;
  DefKnown[Id] = 1;
  Out = V;
  return true;
}

OracleSkip StaticExecution::build() {
  AccessOfEvent.assign(P.Events.size(), -1);

  // Collect the executed accesses and fences. Guards and addresses must be
  // static.
  std::vector<const FlatEvent *> Fences;
  for (size_t I = 0; I < P.Events.size(); ++I) {
    const FlatEvent &E = P.Events[I];
    Value G;
    if (!evalStatic(E.Guard, G))
      return OracleSkip::GuardDependsOnLoad;
    if (G.isUndef() || !G.isTruthy())
      continue;
    if (!E.isAccess()) {
      Fences.push_back(&E);
      continue;
    }
    Value Addr;
    if (!evalStatic(E.Addr, Addr))
      return OracleSkip::AddressDependsOnLoad;
    Access A;
    A.Event = static_cast<int>(I);
    A.IsStore = E.isStore();
    A.Addr = Addr;
    AccessOfEvent[I] = static_cast<int>(Accesses.size());
    Accesses.push_back(A);
  }
  if (Accesses.size() > MaxAccesses)
    return OracleSkip::TooManyAccesses;

  // Within-bounds semantics: a statically-exceeded loop bound means the
  // program was not fully unrolled - outside the supported fragment.
  for (const FlatBoundMark &M : P.BoundMarks) {
    Value G;
    if (!evalStatic(M.Guard, G))
      return OracleSkip::BoundMarkDependsOnLoad;
    if (!G.isUndef() && G.isTruthy())
      return OracleSkip::ExceedsLoopBounds;
  }

  int N = static_cast<int>(Accesses.size());

  // Contiguity clusters: operation invocations under Serial, atomic-block
  // instances otherwise. A cluster occupies consecutive positions of <M.
  {
    std::vector<int> ClusterOfRaw; // raw id -> cluster, -1 = not seen
    std::vector<int> ClusterCount;
    for (Access &A : Accesses) {
      const FlatEvent &E = P.Events[A.Event];
      int Raw = Model.SerialOps ? E.OpInvId : E.AtomicId;
      if (Raw < 0)
        continue;
      if (Raw >= static_cast<int>(ClusterOfRaw.size()))
        ClusterOfRaw.resize(Raw + 1, -1);
      if (ClusterOfRaw[Raw] < 0) {
        ClusterOfRaw[Raw] = NumClusters++;
        ClusterCount.push_back(0);
      }
      A.Cluster = ClusterOfRaw[Raw];
      A.Rank = ClusterCount[A.Cluster]++;
    }
  }

  // Static edges. (1) The init thread precedes everything, and runs
  // sequentially. (The SAT encoding leaves different-address init stores
  // mutually unordered under the relaxed models; since every init access
  // precedes all others, their relative order cannot influence any load,
  // so chaining them here only removes redundant permutations.)
  if (P.ThreadZeroIsInit) {
    int PrevInit = -1;
    for (int A = 0; A < N; ++A) {
      if (P.Events[Accesses[A].Event].Thread != 0)
        continue;
      if (PrevInit >= 0)
        addEdge(PrevInit, A);
      PrevInit = A;
      for (int B = 0; B < N; ++B)
        if (P.Events[Accesses[B].Event].Thread != 0)
          addEdge(A, B);
    }
  }

  // (2) Program order, per edge kind; (3) Relaxed axiom 1 (same-address
  // edges ending in a store); (4) atomic-block interiors.
  for (int A = 0; A < N; ++A) {
    const FlatEvent &EA = P.Events[Accesses[A].Event];
    for (int B = A + 1; B < N; ++B) {
      const FlatEvent &EB = P.Events[Accesses[B].Event];
      if (EA.Thread != EB.Thread)
        continue;
      bool InOrder = EA.IndexInThread < EB.IndexInThread;
      int First = InOrder ? A : B, Second = InOrder ? B : A;
      const FlatEvent &EF = P.Events[Accesses[First].Event];
      const FlatEvent &ES = P.Events[Accesses[Second].Event];
      if (Model.ordersEdge(EF.isLoad(), ES.isLoad()))
        addEdge(First, Second);
      if (ES.isStore() && Accesses[First].Addr == Accesses[Second].Addr)
        addEdge(First, Second);
      if (EF.AtomicId >= 0 && EF.AtomicId == ES.AtomicId)
        addEdge(First, Second);
    }
  }

  // (5) Fences: executed X-Y fences order earlier X accesses before later
  // Y accesses of the same thread.
  for (const FlatEvent *F : Fences) {
    const FlatEvent &EF = *F;
    bool XIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::LoadStore;
    bool YIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::StoreLoad;
    for (int A = 0; A < N; ++A) {
      const FlatEvent &EA = P.Events[Accesses[A].Event];
      if (EA.Thread != EF.Thread || EA.IndexInThread > EF.IndexInThread ||
          EA.isLoad() != XIsLoad)
        continue;
      for (int B = 0; B < N; ++B) {
        const FlatEvent &EB = P.Events[Accesses[B].Event];
        if (EB.Thread != EF.Thread || EB.IndexInThread < EF.IndexInThread ||
            EB.isLoad() != YIsLoad)
          continue;
        addEdge(A, B);
      }
    }
  }

  // Reads-from candidates.
  for (int A = 0; A < N; ++A) {
    if (Accesses[A].IsStore)
      continue;
    Loads.push_back(A);
    for (int B = 0; B < N; ++B)
      if (Accesses[B].IsStore && Accesses[B].Addr == Accesses[A].Addr)
        Accesses[A].Stores.push_back(B);
  }
  return OracleSkip::None;
}

bool StaticExecution::forwards(int S, int L) const {
  const FlatEvent &ES = P.Events[Accesses[S].Event];
  const FlatEvent &EL = P.Events[Accesses[L].Event];
  return Model.StoreForwarding && ES.Thread == EL.Thread &&
         ES.IndexInThread < EL.IndexInThread;
}

int StaticExecution::latestVisibleStore(int L,
                                        const std::vector<int> &PosOf) const {
  int BestPos = -1, Best = -1;
  for (int S : Accesses[L].Stores) {
    if ((PosOf[S] < PosOf[L] || forwards(S, L)) && PosOf[S] > BestPos) {
      BestPos = PosOf[S];
      Best = S;
    }
  }
  return Best;
}

const Value *StaticExecution::evalDyn(ValueId Id,
                                      const std::vector<int> &WriterOf) {
  if (Id < 0)
    return &Undef;
  if (DefKnown[Id]) // static part already memoized
    return &DefVals[Id];
  if (DynStamp[Id] == KnownStamp())
    return DynVal[Id];
  if (DynStamp[Id] == BusyStamp())
    return nullptr; // circular value dependency (thin-air shape)
  DynStamp[Id] = BusyStamp();
  const FlatDef &D = P.def(Id);
  const Value *V = &Undef;
  switch (D.K) {
  case FlatDef::Kind::Const:
    V = &D.Val;
    break;
  case FlatDef::Kind::Choice:
    V = &DefVals[Id]; // bound by the choice enumeration
    break;
  case FlatDef::Kind::LoadVal: {
    // A skipped load (dead guard) and one reading initial memory (axiom
    // 2) are undefined.
    int A = D.EventIndex >= 0 ? AccessOfEvent[D.EventIndex] : -1;
    if (A >= 0 && WriterOf[A] >= 0)
      V = evalDyn(P.Events[Accesses[WriterOf[A]].Event].Data, WriterOf);
    break;
  }
  case FlatDef::Kind::Op: {
    // A def is evaluated at most once per leaf and never reenters itself,
    // so its operand scratch is free here.
    std::vector<Value> &Args = OpArgs[Id];
    Args.resize(D.Operands.size());
    for (size_t I = 0; V && I < D.Operands.size(); ++I) {
      V = evalDyn(D.Operands[I], WriterOf);
      if (V)
        Args[I] = *V;
    }
    if (V) {
      OpVals[Id] = lsl::evalPrimOp(D.Op, Args, D.Imm);
      V = &OpVals[Id];
    }
    break;
  }
  }
  if (!V) {
    DynStamp[Id] = 0;
    return nullptr;
  }
  DynVal[Id] = V;
  DynStamp[Id] = KnownStamp();
  return V;
}

OracleSkip StaticExecution::evaluate(const std::vector<int> &WriterOf,
                                     std::set<RefObservation> &Observations) {
  Stamp += 2; // forget the previous leaf's values

  bool Error = false;
  for (const FlatCheck &C : P.Checks) {
    const Value *G = evalDyn(C.Guard, WriterOf);
    if (!G)
      return OracleSkip::CyclicValueDependency;
    if (G->isUndef() || !G->isTruthy())
      continue;
    const Value *Cond = evalDyn(C.Cond, WriterOf);
    if (!Cond)
      return OracleSkip::CyclicValueDependency;
    switch (C.K) {
    case FlatCheck::Kind::Assume:
      if (Cond->isUndef()) {
        Error = true;
        break;
      }
      if (!Cond->isTruthy())
        return OracleSkip::None; // infeasible execution
      break;
    case FlatCheck::Kind::Assert:
      if (Cond->isUndef() || !Cond->isTruthy())
        Error = true;
      break;
    case FlatCheck::Kind::CheckAddr:
      if (!Cond->isPtr())
        Error = true;
      break;
    case FlatCheck::Kind::CheckBranch:
    case FlatCheck::Kind::CheckDef:
      if (Cond->isUndef())
        Error = true;
      break;
    }
  }

  LeafObs.Error = Error;
  LeafObs.Values.resize(P.Observations.size());
  for (size_t I = 0; I < P.Observations.size(); ++I) {
    const Value *V = evalDyn(P.Observations[I].Val, WriterOf);
    if (!V)
      return OracleSkip::CyclicValueDependency;
    LeafObs.Values[I] = *V;
  }
  Observations.insert(LeafObs); // copies only a new observation
  return OracleSkip::None;
}

namespace {

/// Walks the Choice assignments depth-first, in definition order.
struct ChoiceWalk {
  const FlatProgram &P;
  const ModelParams &Model;
  const ExecutionSearch &Search;
  std::set<RefObservation> &Observations;
  std::vector<ValueId> Choices;
  std::vector<Value> Bound;

  OracleSkip recurse(size_t Idx) {
    if (Idx == Choices.size()) {
      StaticExecution X(P, Model, Bound);
      if (X.skip() != OracleSkip::None)
        return X.skip();
      return Search(X, Observations);
    }
    ValueId Id = Choices[Idx];
    for (const Value &Option : P.Defs[Id].Options) {
      Bound[Id] = Option;
      OracleSkip Skip = recurse(Idx + 1);
      if (Skip != OracleSkip::None)
        return Skip;
    }
    return OracleSkip::None;
  }
};

} // namespace

OracleResult checkfence::memmodel::forEachChoice(const FlatProgram &P,
                                                 const ModelParams &Model,
                                                 const ExecutionSearch &Search) {
  OracleResult Out;
  ChoiceWalk Walk{P, Model, Search, Out.Observations, {},
                  std::vector<Value>(P.Defs.size(), Value::undef())};
  for (size_t I = 0; I < P.Defs.size(); ++I)
    if (P.Defs[I].K == FlatDef::Kind::Choice)
      Walk.Choices.push_back(static_cast<ValueId>(I));
  Out.Reason = Walk.recurse(0);
  Out.Error = oracleSkipMessage(Out.Reason);
  Out.Ok = Out.Reason == OracleSkip::None;
  return Out;
}
