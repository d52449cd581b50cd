//===--- MemoryModel.cpp - parametric axiomatic memory models ---------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "memmodel/MemoryModel.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <numeric>
#include <sstream>

using namespace checkfence;
using namespace checkfence::memmodel;
using namespace checkfence::encode;
using namespace checkfence::trans;

//===----------------------------------------------------------------------===//
// Named lattice points
//===----------------------------------------------------------------------===//

const std::vector<NamedModel> &checkfence::memmodel::namedModels() {
  static const std::vector<NamedModel> Models = {
      {"serial", ModelParams::serial(),
       "operation-granularity sequential order (specification mining)"},
      {"sc", ModelParams::sc(), "sequential consistency"},
      {"tso", ModelParams::tso(), "total store order (FIFO store buffer)"},
      {"pso", ModelParams::pso(),
       "partial store order (per-address store buffers)"},
      {"rmo", ModelParams::rmo(),
       "RMO-like: only load-load order preserved"},
      {"relaxed", ModelParams::relaxed(),
       "the paper's Relaxed model (no program order beyond axiom 1)"},
  };
  return Models;
}

std::string ModelParams::str() const {
  std::string Edges;
  auto Add = [&](bool Bit, const char *Name) {
    if (!Bit)
      return;
    if (!Edges.empty())
      Edges += '+';
    Edges += Name;
  };
  Add(OrderLoadLoad, "ll");
  Add(OrderLoadStore, "ls");
  Add(OrderStoreLoad, "sl");
  Add(OrderStoreStore, "ss");
  std::string Out = "po:";
  if (fullProgramOrder())
    Out += "all";
  else if (Edges.empty())
    Out += "none";
  else
    Out += Edges;
  if (StoreForwarding)
    Out += ",fwd";
  if (SerialOps)
    Out += ",serial";
  return Out;
}

std::string checkfence::memmodel::modelName(const ModelParams &P) {
  for (const NamedModel &N : namedModels())
    if (N.Params == P)
      return N.Name;
  return P.str();
}

std::optional<ModelParams>
checkfence::memmodel::modelFromName(const std::string &Name) {
  std::string S;
  S.reserve(Name.size());
  for (char C : Name)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));

  for (const NamedModel &N : namedModels())
    if (S == N.Name)
      return N.Params;

  // Descriptor grammar: po:<edges>[,fwd|,nofwd][,serial]
  // where <edges> is "all", "none", or a '+'-joined subset of ll/ls/sl/ss.
  if (S.rfind("po:", 0) != 0)
    return std::nullopt;
  // getline never yields the empty clause after a trailing delimiter, so
  // reject "po:ll," style truncations up front.
  if (!S.empty() && S.back() == ',')
    return std::nullopt;
  ModelParams P;
  std::stringstream SS(S.substr(3));
  std::string Clause;
  bool First = true;
  while (std::getline(SS, Clause, ',')) {
    if (First) {
      First = false;
      if (Clause == "all") {
        P.OrderLoadLoad = P.OrderLoadStore = true;
        P.OrderStoreLoad = P.OrderStoreStore = true;
      } else if (Clause != "none") {
        // A '+'-joined edge list; reject empty or dangling tokens
        // ("po:", "po:ll+").
        if (Clause.empty() || Clause.front() == '+' ||
            Clause.back() == '+')
          return std::nullopt;
        std::stringstream ES(Clause);
        std::string Edge;
        while (std::getline(ES, Edge, '+')) {
          if (Edge == "ll")
            P.OrderLoadLoad = true;
          else if (Edge == "ls")
            P.OrderLoadStore = true;
          else if (Edge == "sl")
            P.OrderStoreLoad = true;
          else if (Edge == "ss")
            P.OrderStoreStore = true;
          else
            return std::nullopt;
        }
      }
    } else if (Clause == "fwd") {
      P.StoreForwarding = true;
    } else if (Clause == "nofwd") {
      P.StoreForwarding = false;
    } else if (Clause == "serial") {
      P.SerialOps = true;
    } else {
      return std::nullopt;
    }
  }
  if (First)
    return std::nullopt; // bare "po:"
  return P;
}

const std::vector<ModelParams> &checkfence::memmodel::latticeModels() {
  static const std::vector<ModelParams> Models = [] {
    auto Pt = [](const char *S) {
      auto P = modelFromName(S);
      assert(P && "bad lattice point literal");
      return *P;
    };
    return std::vector<ModelParams>{
        ModelParams::serial(),
        ModelParams::sc(),
        Pt("po:ll+ls+sl,fwd"), // only store-store relaxed
        ModelParams::tso(),
        ModelParams::pso(),
        ModelParams::rmo(),
        Pt("po:ls,fwd"), // only load-store order preserved
        Pt("po:ss,fwd"), // only store-store order preserved
        ModelParams::relaxed(),
        Pt("po:none"), // relaxed without the store-queue bypass
    };
  }();
  return Models;
}

bool checkfence::memmodel::atLeastAsStrong(const ModelParams &A,
                                           const ModelParams &B) {
  // Serial *with full program order* (the registry's serial model) is
  // the global top: invocation-granularity total orders then embed all
  // of program order and need no forwarding, so every such execution is
  // an execution of every other model. Degenerate serial points with
  // partial program order (grammar-reachable as e.g. "po:none,serial")
  // order a thread's invocations freely, which full-order models forbid
  // - they are comparable only to themselves.
  if (A.SerialOps && A.fullProgramOrder())
    return true;
  if (A.SerialOps || B.SerialOps)
    return A == B;
  // B's forced program-order edges must be a subset of A's.
  if ((B.OrderLoadLoad && !A.OrderLoadLoad) ||
      (B.OrderLoadStore && !A.OrderLoadStore) ||
      (B.OrderStoreLoad && !A.OrderStoreLoad) ||
      (B.OrderStoreStore && !A.OrderStoreStore))
    return false;
  // Forwarding changes which store a load must read, in both directions,
  // so differing effective-forwarding bits are incomparable - except when
  // A preserves store-load order: its executions keep every own earlier
  // store <M-before the load, where B's forwarding is indistinguishable
  // from plain visibility.
  bool FA = A.effectiveForwarding(), FB = B.effectiveForwarding();
  if (FA == FB)
    return true;
  return FB && A.OrderStoreLoad;
}

bool checkfence::memmodel::strictlyStronger(const ModelParams &A,
                                            const ModelParams &B) {
  return atLeastAsStrong(A, B) && !atLeastAsStrong(B, A);
}

std::vector<size_t>
checkfence::memmodel::strengthOrder(const std::vector<ModelParams> &Models,
                                    bool StrongestFirst) {
  // A model strictly stronger than M has strictly fewer strictly stronger
  // members than M, so sorting by that count is a topological order. The
  // counts are computed up front (a comparator must not read the vector
  // being sorted) and stable_sort keeps incomparable models in place.
  std::vector<int> Stronger(Models.size(), 0);
  for (size_t I = 0; I < Models.size(); ++I)
    for (const ModelParams &O : Models)
      Stronger[I] += strictlyStronger(O, Models[I]);
  std::vector<size_t> Order(Models.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return StrongestFirst ? Stronger[A] < Stronger[B]
                          : Stronger[A] > Stronger[B];
  });
  return Order;
}

//===----------------------------------------------------------------------===//
// MemoryModelEncoder
//===----------------------------------------------------------------------===//

MemoryModelEncoder::MemoryModelEncoder(ValueEncoder &VE,
                                       const FlatProgram &P,
                                       const RangeInfo &R,
                                       const ModelParams &M,
                                       const EncodeOptions &EO)
    : VE(VE), Cnf(VE.cnf()), P(P), R(R), Params(M), EOpts(EO) {
  EventAccess.assign(P.Events.size(), -1);
  for (size_t I = 0; I < P.Events.size(); ++I) {
    if (!P.Events[I].isAccess())
      continue;
    EventAccess[I] = static_cast<int>(AccessEvent.size());
    AccessEvent.push_back(static_cast<int>(I));
  }
}

Lit MemoryModelEncoder::execLit(int EventIdx) {
  return VE.guardLit(P.Events[EventIdx].Guard);
}

Lit MemoryModelEncoder::addrEqLit(int AccessA, int AccessB) {
  if (AccessA > AccessB)
    std::swap(AccessA, AccessB);
  auto Key = std::make_pair(AccessA, AccessB);
  auto It = AddrEqCache.find(Key);
  if (It != AddrEqCache.end())
    return It->second;
  const FlatEvent &EA = P.Events[AccessEvent[AccessA]];
  const FlatEvent &EB = P.Events[AccessEvent[AccessB]];
  const EncValue &A = VE.value(EA.Addr);
  const EncValue &B = VE.value(EB.Addr);
  Lit L = Cnf.andLits({A.IsPtr, B.IsPtr, bvEq(Cnf, A.PtrBits, B.PtrBits)});
  AddrEqCache[Key] = L;
  return L;
}

void MemoryModelEncoder::collectForcedPairs(
    std::vector<std::pair<int, int>> &Forced) {
  int N = numAccesses();

  // Init thread (thread 0) precedes every other thread.
  if (P.ThreadZeroIsInit) {
    for (int A = 0; A < N; ++A) {
      if (P.Events[AccessEvent[A]].Thread != 0)
        continue;
      for (int B = 0; B < N; ++B)
        if (P.Events[AccessEvent[B]].Thread != 0)
          Forced.push_back({A, B});
    }
  }

  // Program order. Access indices within a thread are already in program
  // order (the flattener appends events in order); consecutive edges
  // suffice, the pairwise builder closes them transitively and the rank
  // builder gets transitivity from arithmetic.
  std::vector<int> LastOfThread; // last access index seen per thread
  LastOfThread.assign(P.NumThreads, -1);
  if (Params.fullProgramOrder()) {
    for (int A = 0; A < N; ++A) {
      int T = P.Events[AccessEvent[A]].Thread;
      if (LastOfThread[T] >= 0)
        Forced.push_back({LastOfThread[T], A});
      LastOfThread[T] = A;
    }
    return;
  }

  // Partial program order (TSO/PSO and other lattice points): every
  // same-thread pair whose edge kind the model preserves. The preserved
  // edge set is not closed under composition with relaxed edges (on TSO,
  // load->store and store->store do not compose into the relaxed
  // store->load), so all pairs are emitted, not just consecutive ones.
  if (Params.OrderLoadLoad || Params.OrderLoadStore ||
      Params.OrderStoreLoad || Params.OrderStoreStore) {
    for (int A = 0; A < N; ++A) {
      const FlatEvent &EA = P.Events[AccessEvent[A]];
      for (int B = A + 1; B < N; ++B) {
        const FlatEvent &EB = P.Events[AccessEvent[B]];
        if (EB.Thread != EA.Thread)
          continue;
        if (Params.ordersEdge(EA.isLoad(), EB.isLoad()))
          Forced.push_back({A, B});
      }
    }
  }

  // Relaxed: atomic-block interiors execute in program order.
  std::map<int, int> LastOfAtomic;
  for (int A = 0; A < N; ++A) {
    const FlatEvent &E = P.Events[AccessEvent[A]];
    if (E.AtomicId < 0)
      continue;
    auto It = LastOfAtomic.find(E.AtomicId);
    if (It != LastOfAtomic.end())
      Forced.push_back({It->second, A});
    LastOfAtomic[E.AtomicId] = A;
  }

  // Relaxed axiom 1, statically decided cases: same-thread accesses to
  // provably identical addresses where the later one is a store.
  for (int A = 0; A < N; ++A) {
    const FlatEvent &EA = P.Events[AccessEvent[A]];
    for (int B = A + 1; B < N; ++B) {
      const FlatEvent &EB = P.Events[AccessEvent[B]];
      if (EB.Thread != EA.Thread || !EB.isStore())
        continue;
      const ValueSet &SA = R.DefSets[EA.Addr];
      const ValueSet &SB = R.DefSets[EB.Addr];
      if (SA.isSingleton() && SB.isSingleton() &&
          *SA.Values.begin() == *SB.Values.begin() &&
          SA.Values.begin()->isPtr())
        Forced.push_back({A, B});
    }
  }
}

/// Relaxed axiom 1, dynamic cases: same-thread, possibly-aliasing pairs
/// whose second access is a store get a conditional order edge.
void MemoryModelEncoder::emitConditionalOrderAxioms() {
  if (Params.fullProgramOrder())
    return; // subsumed by the forced program order
  int N = numAccesses();
  for (int A = 0; A < N; ++A) {
    const FlatEvent &EA = P.Events[AccessEvent[A]];
    for (int B = A + 1; B < N; ++B) {
      const FlatEvent &EB = P.Events[AccessEvent[B]];
      if (EB.Thread != EA.Thread || !EB.isStore())
        continue;
      if (Params.ordersEdge(EA.isLoad(), /*LaterIsLoad=*/false))
        continue; // already forced unconditionally by the model
      if (EOpts.AliasPruning &&
          !R.cellsIntersect(AccessEvent[A], AccessEvent[B]))
        continue;
      Lit Before = Order->before(A, B);
      if (Cnf.isTrue(Before))
        continue;
      Cnf.addClause(~addrEqLit(A, B), Before);
    }
  }
}

/// Fence axiom: an executed X-Y fence orders every preceding access of
/// kind X before every following access of kind Y (same thread).
void MemoryModelEncoder::emitFenceAxioms() {
  if (Params.fullProgramOrder())
    return; // fences are no-ops under SC / Serial
  for (size_t F = 0; F < P.Events.size(); ++F) {
    const FlatEvent &EF = P.Events[F];
    if (EF.K != FlatEvent::Kind::Fence)
      continue;
    bool XIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::LoadStore;
    bool YIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::StoreLoad;
    Lit ExecF = execLit(static_cast<int>(F));
    int N = numAccesses();
    for (int A = 0; A < N; ++A) {
      const FlatEvent &EA = P.Events[AccessEvent[A]];
      if (EA.Thread != EF.Thread || EA.IndexInThread > EF.IndexInThread)
        continue;
      if (EA.isLoad() != XIsLoad)
        continue;
      for (int B = 0; B < N; ++B) {
        const FlatEvent &EB = P.Events[AccessEvent[B]];
        if (EB.Thread != EF.Thread || EB.IndexInThread < EF.IndexInThread)
          continue;
        if (EB.isLoad() != YIsLoad)
          continue;
        Lit Before = Order->before(A, B);
        if (Cnf.isTrue(Before))
          continue;
        Cnf.addClause(~ExecF, Before);
      }
    }
  }
}

/// Atomic blocks are indivisible: no outside access falls strictly between
/// two accesses of the same atomic instance.
void MemoryModelEncoder::emitAtomicExclusivity() {
  if (Params.SerialOps)
    return; // whole operations are already indivisible
  std::map<int, std::vector<int>> Members;
  int N = numAccesses();
  for (int A = 0; A < N; ++A) {
    const FlatEvent &E = P.Events[AccessEvent[A]];
    if (E.AtomicId >= 0)
      Members[E.AtomicId].push_back(A);
  }
  for (const auto &[Id, Accs] : Members) {
    if (Accs.size() < 2)
      continue;
    for (size_t I = 0; I + 1 < Accs.size(); ++I) {
      int X = Accs[I], Y = Accs[I + 1];
      for (int Z = 0; Z < N; ++Z) {
        const FlatEvent &EZ = P.Events[AccessEvent[Z]];
        if (EZ.AtomicId == Id)
          continue;
        Lit XZ = Order->before(X, Z);
        Lit ZY = Order->before(Z, Y);
        if (Cnf.isFalse(XZ) || Cnf.isFalse(ZY))
          continue;
        Lit Clause[2];
        size_t Len = 0;
        if (!Cnf.isTrue(XZ))
          Clause[Len++] = ~XZ;
        if (!Cnf.isTrue(ZY))
          Clause[Len++] = ~ZY;
        assert(Len > 0 && "contradictory atomic placement");
        Cnf.addClause(Clause, Len);
      }
    }
  }
}

/// Axioms 2 and 3: the value of each load.
void MemoryModelEncoder::emitValueAxioms() {
  int N = numAccesses();
  // All store accesses, by index.
  std::vector<int> Stores;
  for (int A = 0; A < N; ++A)
    if (P.Events[AccessEvent[A]].isStore())
      Stores.push_back(A);

  for (int L = 0; L < N; ++L) {
    const FlatEvent &EL = P.Events[AccessEvent[L]];
    if (!EL.isLoad())
      continue;
    Lit ExecL = execLit(AccessEvent[L]);

    // Candidate stores (alias-pruned).
    std::vector<int> Cands;
    for (int S : Stores) {
      if (EOpts.AliasPruning &&
          !R.cellsIntersect(AccessEvent[S], AccessEvent[L]))
        continue;
      Cands.push_back(S);
    }

    // Visibility literals: S(l) membership for each candidate store.
    std::vector<Lit> Vis(Cands.size());
    for (size_t I = 0; I < Cands.size(); ++I) {
      int S = Cands[I];
      const FlatEvent &ES = P.Events[AccessEvent[S]];
      Lit ExecS = execLit(AccessEvent[S]);
      Lit AddrEq = addrEqLit(S, L);
      Lit OrderTerm;
      bool POBefore = ES.Thread == EL.Thread &&
                      ES.IndexInThread < EL.IndexInThread;
      if (Params.StoreForwarding && POBefore)
        OrderTerm = Cnf.trueLit(); // forwarding: s <p l suffices
      else
        OrderTerm = Order->before(S, L);
      Vis[I] = Cnf.andLits({ExecS, AddrEq, OrderTerm});
    }

    // Init_l <-> S(l) empty.
    std::vector<Lit> NoVis;
    NoVis.reserve(Vis.size());
    for (Lit V : Vis)
      NoVis.push_back(~V);
    Lit InitL = Cnf.andLits(NoVis);

    // Axiom 2: empty S(l) loads the initial contents - undefined, since
    // all initialization happens through explicit stores of the init code.
    const EncValue &LV = VE.value(EL.Data);
    Cnf.addClause(~ExecL, ~InitL, ~LV.IsInt);
    Cnf.addClause(~ExecL, ~InitL, ~LV.IsPtr);

    // Flows_{s,l}: s is the <M-maximal element of S(l).
    std::vector<Lit> FlowsAny;
    for (size_t I = 0; I < Cands.size(); ++I) {
      if (Cnf.isFalse(Vis[I]))
        continue;
      std::vector<Lit> MaxTerms{Vis[I]};
      for (size_t J = 0; J < Cands.size(); ++J) {
        if (J == I || Cnf.isFalse(Vis[J]))
          continue;
        // not (vis_j && s_i <M s_j)
        MaxTerms.push_back(
            ~Cnf.andLit(Vis[J], Order->before(Cands[I], Cands[J])));
      }
      Lit Flows = Cnf.andLits(MaxTerms);
      FlowsAny.push_back(Flows);
      // Axiom 3: the load returns the value of the maximal visible store.
      const FlatEvent &ES = P.Events[AccessEvent[Cands[I]]];
      Lit ValEq = VE.eqLit(LV, VE.value(ES.Data));
      Cnf.addClause(~ExecL, ~Flows, ValEq);
    }

    // Completeness: an executed load either sees initial contents or some
    // maximal store flows to it.
    std::vector<Lit> Complete{~ExecL, InitL};
    for (Lit F : FlowsAny)
      Complete.push_back(F);
    Cnf.addClause(Complete);
  }
}

void MemoryModelEncoder::encode() {
  std::vector<AccessInfo> Infos;
  Infos.reserve(AccessEvent.size());
  for (int Ev : AccessEvent) {
    const FlatEvent &E = P.Events[Ev];
    AccessInfo AI;
    AI.Thread = E.Thread;
    AI.IndexInThread = E.IndexInThread;
    AI.Group = E.OpInvId;
    Infos.push_back(AI);
  }

  std::vector<std::pair<int, int>> Forced;
  collectForcedPairs(Forced);
  Order = std::make_unique<MemoryOrder>(Cnf, std::move(Infos),
                                        Params.SerialOps, Forced);

  emitConditionalOrderAxioms();
  emitFenceAxioms();
  emitAtomicExclusivity();
  emitValueAxioms();
}

std::vector<int> MemoryModelEncoder::modelOrderedAccesses(
    const sat::Solver &S) {
  std::vector<int> Executed;
  for (size_t A = 0; A < AccessEvent.size(); ++A)
    if (S.modelValue(execLit(AccessEvent[A])) == sat::LBool::True)
      Executed.push_back(static_cast<int>(A));
  std::sort(Executed.begin(), Executed.end(), [&](int A, int B) {
    Lit L = Order->before(A, B);
    if (Cnf.isTrue(L))
      return true;
    if (Cnf.isFalse(L))
      return false;
    return S.modelValue(L) == sat::LBool::True;
  });
  std::vector<int> Events;
  Events.reserve(Executed.size());
  for (int A : Executed)
    Events.push_back(AccessEvent[A]);
  return Events;
}
