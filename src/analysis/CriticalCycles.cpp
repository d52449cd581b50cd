//===--- CriticalCycles.cpp - delay-set robustness analysis -----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "analysis/CriticalCycles.h"

#include "support/Format.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

using namespace checkfence;
using namespace checkfence::analysis;
using namespace checkfence::trans;

DelaySet checkfence::analysis::delaySetFor(const memmodel::ModelParams &M) {
  DelaySet D;
  D.LoadLoad = !M.OrderLoadLoad;
  D.LoadStore = !M.OrderLoadStore;
  D.StoreLoad = !M.OrderStoreLoad;
  D.StoreStore = !M.OrderStoreStore;
  D.Forwarding = M.effectiveForwarding();
  D.MultiCopyAtomic = M.MultiCopyAtomic;
  return D;
}

namespace {

/// True when \p G is truthy in every execution: its value set contains
/// only defined non-zero integers. Guards of straight-line code are the
/// constant 1; anything data-dependent stays conservative.
bool alwaysExecuted(const RangeInfo &R, ValueId G) {
  if (G < 0 || G >= static_cast<ValueId>(R.DefSets.size()))
    return false;
  const ValueSet &VS = R.DefSets[G];
  if (VS.Top || VS.Values.empty())
    return false;
  for (const lsl::Value &V : VS.Values)
    if (!V.isInt() || V.intValue() == 0)
      return false;
  return true;
}

/// Sorted candidate-cell intersection (same test the encoder's alias
/// pruning uses).
bool cellsIntersect(const RangeInfo &R, int EventA, int EventB) {
  const std::vector<int> &A = R.EventCells[EventA];
  const std::vector<int> &B = R.EventCells[EventB];
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

/// Must-alias: both address sets are the same singleton pointer (the
/// statically decided case of Relaxed axiom 1).
bool mustAlias(const RangeInfo &R, const FlatEvent &A, const FlatEvent &B) {
  const ValueSet &SA = R.DefSets[A.Addr];
  const ValueSet &SB = R.DefSets[B.Addr];
  return SA.isSingleton() && SB.isSingleton() &&
         *SA.Values.begin() == *SB.Values.begin() &&
         SA.Values.begin()->isPtr();
}

/// Witness cycles rendered per result (RobustnessResult::Cycles).
constexpr int MaxCycleWitnesses = 16;

/// The innermost source line of \p E at or after MinLine, or -1.
/// Accesses inlined from shared builtins attribute to their call sites,
/// innermost first — the same policy FenceSynth uses for trace entries.
int attributedLine(const FlatEvent &E, const AnalysisOptions &Opts) {
  if (E.Loc.Line >= Opts.MinLine)
    return E.Loc.Line;
  for (auto It = E.CallLines.rbegin(); It != E.CallLines.rend(); ++It)
    if (*It >= Opts.MinLine)
      return *It;
  return -1;
}

CycleNode nodeFor(const FlatProgram &P, int EventIdx) {
  const FlatEvent &E = P.Events[EventIdx];
  CycleNode N;
  N.EventIndex = EventIdx;
  N.Thread = E.Thread;
  N.IndexInThread = E.IndexInThread;
  N.IsStore = E.isStore();
  N.Line = E.Loc.Line;
  return N;
}

/// Per-thread accesses plus the enforced-order closure among them.
struct ThreadGraph {
  std::vector<int> Events;        ///< access event indices, po order
  std::vector<char> Enforced;     ///< n*n matrix, row-major
  bool enforced(size_t I, size_t J) const {
    return Enforced[I * Events.size() + J] != 0;
  }
};

ThreadGraph buildThreadGraph(const FlatProgram &P, const RangeInfo &R,
                             const memmodel::ModelParams &M,
                             const std::vector<int> &AccessEvents,
                             const std::vector<int> &FenceEvents) {
  ThreadGraph G;
  G.Events = AccessEvents;
  size_t N = G.Events.size();
  G.Enforced.assign(N * N, 0);
  auto Set = [&](size_t I, size_t J) { G.Enforced[I * N + J] = 1; };

  if (M.fullProgramOrder()) {
    for (size_t I = 0; I < N; ++I)
      for (size_t J = I + 1; J < N; ++J)
        Set(I, J);
    return G;
  }

  for (size_t I = 0; I < N; ++I) {
    const FlatEvent &EA = P.Events[G.Events[I]];
    for (size_t J = I + 1; J < N; ++J) {
      const FlatEvent &EB = P.Events[G.Events[J]];
      // The model's unconditional program-order edge bits.
      if (M.ordersEdge(EA.isLoad(), EB.isLoad())) {
        Set(I, J);
        continue;
      }
      // Atomic-block interiors execute in program order.
      if (EA.AtomicId >= 0 && EA.AtomicId == EB.AtomicId) {
        Set(I, J);
        continue;
      }
      // Relaxed axiom 1, statically decided: must-alias, later is store.
      if (EB.isStore() && mustAlias(R, EA, EB))
        Set(I, J);
    }
  }

  // Always-executed fences order matching-kind accesses around them.
  for (int F : FenceEvents) {
    const FlatEvent &EF = P.Events[F];
    if (!alwaysExecuted(R, EF.Guard))
      continue;
    bool XIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::LoadStore;
    bool YIsLoad = EF.FenceK == lsl::FenceKind::LoadLoad ||
                   EF.FenceK == lsl::FenceKind::StoreLoad;
    for (size_t I = 0; I < N; ++I) {
      const FlatEvent &EA = P.Events[G.Events[I]];
      if (EA.isLoad() != XIsLoad || EA.IndexInThread > EF.IndexInThread)
        continue;
      for (size_t J = I + 1; J < N; ++J) {
        const FlatEvent &EB = P.Events[G.Events[J]];
        if (EB.isLoad() == YIsLoad && EB.IndexInThread > EF.IndexInThread)
          Set(I, J);
      }
    }
  }

  // Transitive closure: guaranteed <M edges compose (<M is total).
  for (size_t K = 0; K < N; ++K)
    for (size_t I = 0; I < N; ++I) {
      if (!G.Enforced[I * N + K])
        continue;
      for (size_t J = 0; J < N; ++J)
        if (G.Enforced[K * N + J])
          G.Enforced[I * N + J] = 1;
    }
  return G;
}

/// The cycle graph: program-order successor chains plus inter-thread
/// may-alias conflict edges (at least one store). The init thread is
/// excluded from conflicts — it is unconditionally <M-before every other
/// thread, so no cycle can pass through it.
struct CycleGraph {
  std::vector<int> Nodes; ///< access event indices (global po order)
  std::vector<std::vector<std::pair<int, bool>>> Adj; ///< (node, IsConflict)
  std::vector<int> Comp; ///< SCC id per node
  std::vector<int> NodeOf; ///< event index -> node id (-1 for fences)
};

CycleGraph buildCycleGraph(const FlatProgram &P, const RangeInfo &R,
                           const std::vector<ThreadGraph> &Threads) {
  CycleGraph G;
  G.NodeOf.assign(P.Events.size(), -1);
  for (const ThreadGraph &T : Threads)
    for (int E : T.Events) {
      G.NodeOf[E] = static_cast<int>(G.Nodes.size());
      G.Nodes.push_back(E);
    }
  size_t N = G.Nodes.size();
  G.Adj.resize(N);

  // Program order: consecutive same-thread accesses chain the rest.
  for (const ThreadGraph &T : Threads)
    for (size_t I = 0; I + 1 < T.Events.size(); ++I)
      G.Adj[G.NodeOf[T.Events[I]]].push_back(
          {G.NodeOf[T.Events[I + 1]], false});

  // Conflict edges, both directions.
  for (size_t U = 0; U < N; ++U) {
    const FlatEvent &EU = P.Events[G.Nodes[U]];
    if (P.ThreadZeroIsInit && EU.Thread == 0)
      continue;
    for (size_t V = U + 1; V < N; ++V) {
      const FlatEvent &EV = P.Events[G.Nodes[V]];
      if (EV.Thread == EU.Thread ||
          (P.ThreadZeroIsInit && EV.Thread == 0))
        continue;
      if (!EU.isStore() && !EV.isStore())
        continue;
      if (!cellsIntersect(R, G.Nodes[U], G.Nodes[V]))
        continue;
      G.Adj[U].push_back({static_cast<int>(V), true});
      G.Adj[V].push_back({static_cast<int>(U), true});
    }
  }
  for (auto &A : G.Adj)
    std::sort(A.begin(), A.end());

  // Iterative Tarjan SCC.
  G.Comp.assign(N, -1);
  std::vector<int> Index(N, -1), Low(N, 0), Stack, CallNode, CallEdge;
  std::vector<char> OnStack(N, 0);
  int NextIndex = 0, NextComp = 0;
  for (size_t Root = 0; Root < N; ++Root) {
    if (Index[Root] >= 0)
      continue;
    CallNode.push_back(static_cast<int>(Root));
    CallEdge.push_back(0);
    while (!CallNode.empty()) {
      int U = CallNode.back();
      if (CallEdge.back() == 0) {
        Index[U] = Low[U] = NextIndex++;
        Stack.push_back(U);
        OnStack[U] = 1;
      }
      bool Descended = false;
      while (CallEdge.back() < static_cast<int>(G.Adj[U].size())) {
        int V = G.Adj[U][CallEdge.back()].first;
        ++CallEdge.back();
        if (Index[V] < 0) {
          CallNode.push_back(V);
          CallEdge.push_back(0);
          Descended = true;
          break;
        }
        if (OnStack[V])
          Low[U] = std::min(Low[U], Index[V]);
      }
      if (Descended)
        continue;
      if (Low[U] == Index[U]) {
        for (;;) {
          int W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          G.Comp[W] = NextComp;
          if (W == U)
            break;
        }
        ++NextComp;
      }
      CallNode.pop_back();
      CallEdge.pop_back();
      if (!CallNode.empty())
        Low[CallNode.back()] = std::min(Low[CallNode.back()], Low[U]);
    }
  }
  return G;
}

/// Shortest path From -> To by BFS (deterministic: sorted adjacency).
/// Returns the node sequence excluding From, including To, with each
/// step's conflict flag; empty when unreachable.
std::vector<std::pair<int, bool>> shortestPath(const CycleGraph &G, int From,
                                               int To) {
  std::vector<int> Parent(G.Nodes.size(), -1);
  std::vector<char> ParentConflict(G.Nodes.size(), 0);
  std::deque<int> Queue{From};
  std::vector<char> Seen(G.Nodes.size(), 0);
  Seen[From] = 1;
  while (!Queue.empty()) {
    int U = Queue.front();
    Queue.pop_front();
    if (U == To)
      break;
    for (auto [V, Conflict] : G.Adj[U]) {
      if (Seen[V])
        continue;
      Seen[V] = 1;
      Parent[V] = U;
      ParentConflict[V] = Conflict ? 1 : 0;
      Queue.push_back(V);
    }
  }
  std::vector<std::pair<int, bool>> Path;
  if (!Seen[To] || From == To)
    return Path;
  for (int U = To; U != From; U = Parent[U])
    Path.push_back({U, ParentConflict[U] != 0});
  std::reverse(Path.begin(), Path.end());
  return Path;
}

} // namespace

std::string CriticalCycle::str() const {
  std::string Out;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const CycleNode &N = Nodes[I];
    Out += formatString("t%d[%d]:%s@L%d", N.Thread, N.IndexInThread,
                        N.IsStore ? "store" : "load", N.Line);
    Out += I == 0 ? " =po:delayed=> "
                  : (EdgeIsConflict[I] ? " -cf-> " : " -po-> ");
  }
  if (!Nodes.empty()) {
    const CycleNode &N = Nodes[0];
    Out += formatString("t%d[%d]:%s@L%d", N.Thread, N.IndexInThread,
                        N.IsStore ? "store" : "load", N.Line);
  }
  return Out;
}

RobustnessResult
checkfence::analysis::analyzeRobustness(const FlatProgram &P,
                                        const RangeInfo &R,
                                        const memmodel::ModelParams &M,
                                        const AnalysisOptions &Opts) {
  RobustnessResult Res;
  if (!analysisEligible(M)) {
    Res.Reason = "model is outside the analysis fragment (serial-"
                 "granularity or non-multi-copy-atomic)";
    return Res;
  }
  Res.Eligible = true;

  // Split each thread's events into accesses and fences, in po order.
  std::vector<std::vector<int>> AccessesOf(P.NumThreads);
  std::vector<std::vector<int>> FencesOf(P.NumThreads);
  for (size_t E = 0; E < P.Events.size(); ++E) {
    if (P.Events[E].isAccess())
      AccessesOf[P.Events[E].Thread].push_back(static_cast<int>(E));
    else
      FencesOf[P.Events[E].Thread].push_back(static_cast<int>(E));
  }

  std::vector<ThreadGraph> Threads;
  Threads.reserve(P.NumThreads);
  for (int T = 0; T < P.NumThreads; ++T)
    Threads.push_back(
        buildThreadGraph(P, R, M, AccessesOf[T], FencesOf[T]));

  CycleGraph G = buildCycleGraph(P, R, Threads);

  std::map<SuggestedCut, int> Cuts;
  for (const ThreadGraph &TG : Threads) {
    size_t N = TG.Events.size();
    for (size_t I = 0; I < N; ++I) {
      const FlatEvent &EA = P.Events[TG.Events[I]];
      for (size_t J = I + 1; J < N; ++J) {
        if (TG.enforced(I, J))
          continue;
        const FlatEvent &EB = P.Events[TG.Events[J]];
        ++Res.DelayedPairs;

        // Without store forwarding a load may overtake a same-address
        // store of its own thread and read stale or uninitialized
        // memory — a per-location hazard needing no inter-thread cycle.
        bool Hazard = !M.StoreForwarding && EA.isStore() && EB.isLoad() &&
                      cellsIntersect(R, TG.Events[I], TG.Events[J]);
        if (Hazard)
          ++Res.CoherenceHazards;

        int U = G.NodeOf[TG.Events[I]];
        int V = G.NodeOf[TG.Events[J]];
        bool OnCycle = G.Comp[U] == G.Comp[V];
        if (OnCycle)
          ++Res.CyclePairs;
        if (!Hazard && !OnCycle)
          continue;

        // A fence inserted before the statement of any access strictly
        // between the pair (or before the later access itself) separates
        // the two, so every such line is a candidate cut and its score
        // counts the harmful pairs it separates. Scoring only the later
        // access's line would systematically misrank cuts: a fence
        // between two hot lines cuts the pairs of both.
        lsl::FenceKind Kind = lsl::fenceKindFor(EA.isLoad(), EB.isLoad());
        int PrevLine = -1; // lines repeat consecutively; cheap dedup
        std::set<int> PairLines;
        for (size_t K = I + 1; K <= J; ++K) {
          int Line = attributedLine(P.Events[TG.Events[K]], Opts);
          if (Line >= 0 && Line != PrevLine)
            PairLines.insert(Line);
          PrevLine = Line;
        }
        for (int Line : PairLines)
          ++Cuts[{Line, Kind}];

        if (OnCycle &&
            static_cast<int>(Res.Cycles.size()) < MaxCycleWitnesses) {
          std::vector<std::pair<int, bool>> Path = shortestPath(G, V, U);
          if (!Path.empty()) {
            CriticalCycle C;
            C.Nodes.push_back(nodeFor(P, TG.Events[I]));
            C.EdgeIsConflict.push_back(false); // the delayed po edge
            C.Nodes.push_back(nodeFor(P, TG.Events[J]));
            for (size_t S = 0; S + 1 < Path.size(); ++S) {
              C.EdgeIsConflict.push_back(Path[S].second);
              C.Nodes.push_back(nodeFor(P, G.Nodes[Path[S].first]));
            }
            C.EdgeIsConflict.push_back(Path.back().second);
            Res.Cycles.push_back(std::move(C));
          }
        }
      }
    }
  }

  for (const auto &[Cut, Score] : Cuts) {
    Res.Cuts.push_back(Cut);
    Res.CutScores.push_back(Score);
  }
  Res.Robust = Res.CyclePairs == 0 && Res.CoherenceHazards == 0;
  if (Res.Robust) {
    Res.Reason =
        Res.DelayedPairs == 0
            ? "no delay pairs: the model enforces every program-order edge"
            : formatString("%d delay pairs, none on a critical cycle",
                           Res.DelayedPairs);
  } else {
    Res.Reason = formatString("%d of %d delay pairs lie on a critical cycle",
                              Res.CyclePairs, Res.DelayedPairs);
    if (Res.CoherenceHazards > 0)
      Res.Reason += formatString(" (plus %d store-load coherence hazards)",
                                 Res.CoherenceHazards);
  }
  return Res;
}
