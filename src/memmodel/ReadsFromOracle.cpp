//===--- ReadsFromOracle.cpp - polynomial reads-from oracle ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "memmodel/ReadsFromOracle.h"
#include "memmodel/StaticExecution.h"

using namespace checkfence;
using namespace checkfence::memmodel;

namespace {

constexpr int MaxNodes = StaticExecution::MaxAccesses;

/// A definite ordering requirement between two supernodes.
struct SuperEdge {
  int From = 0;
  int To = 0;
};

/// At least one of the two edges must hold in the final memory order.
struct Disjunct {
  SuperEdge E1, E2;
};

/// Transitive reachability over at most 62 supernodes, kept closed under
/// every edge insertion so feasibility questions are single bit tests.
struct ReachGraph {
  int N = 0;
  uint64_t Reach[MaxNodes] = {};

  void init(int Nodes) {
    N = Nodes;
    for (int I = 0; I < N; ++I)
      Reach[I] = 0;
  }
  bool has(int From, int To) const { return (Reach[From] >> To) & 1; }
  /// Adds From -> To and re-closes; false when the edge closes a cycle.
  bool add(int From, int To) {
    if (has(From, To))
      return true;
    if (From == To || has(To, From))
      return false;
    uint64_t Gain = (uint64_t(1) << To) | Reach[To];
    Reach[From] |= Gain;
    for (int U = 0; U < N; ++U)
      if (has(U, From))
        Reach[U] |= Gain;
    return true;
  }
};

/// The reads-from search over one static execution.
class RfSearch {
public:
  RfSearch(StaticExecution &X, std::set<RefObservation> &Observations,
           uint64_t MaxAssignments, uint64_t &Explored);

  OracleSkip run() {
    if (!ChoiceDead) {
      std::vector<Disjunct> Pending;
      searchLoads(0, Base, Pending);
    }
    return Skip;
  }

private:
  enum class EdgeClass { Implied, Infeasible, Lifted };

  /// Classifies the access-level requirement "A before B in <M": decided
  /// by rank inside a supernode, otherwise lifted to a supernode edge.
  EdgeClass classify(int A, int B, SuperEdge &E) const {
    if (SuperOf[A] == SuperOf[B])
      return RankOf[A] < RankOf[B] ? EdgeClass::Implied
                                   : EdgeClass::Infeasible;
    E.From = SuperOf[A];
    E.To = SuperOf[B];
    return EdgeClass::Lifted;
  }

  bool requireEdge(ReachGraph &G, int A, int B) const {
    SuperEdge E;
    switch (classify(A, B, E)) {
    case EdgeClass::Implied:
      return true;
    case EdgeClass::Infeasible:
      return false;
    case EdgeClass::Lifted:
      return G.add(E.From, E.To);
    }
    return false;
  }

  /// Records (A1 before B1) or (A2 before B2); statically decided parts
  /// collapse immediately.
  bool addDisjunct(ReachGraph &G, std::vector<Disjunct> &Pending, int A1,
                   int B1, int A2, int B2) const {
    SuperEdge E1, E2;
    EdgeClass C1 = classify(A1, B1, E1);
    EdgeClass C2 = classify(A2, B2, E2);
    if (C1 == EdgeClass::Implied || C2 == EdgeClass::Implied)
      return true;
    if (C1 == EdgeClass::Infeasible && C2 == EdgeClass::Infeasible)
      return false;
    if (C1 == EdgeClass::Infeasible)
      return G.add(E2.From, E2.To);
    if (C2 == EdgeClass::Infeasible)
      return G.add(E1.From, E1.To);
    Pending.push_back({E1, E2});
    return true;
  }

  /// Unit-propagates the pending disjunctions to a fixpoint: implied ones
  /// are dropped, ones with a dead branch force the other branch. False =
  /// no consistent completion exists.
  static bool saturate(ReachGraph &G, std::vector<Disjunct> &Pending) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t I = 0; I < Pending.size();) {
        const Disjunct &D = Pending[I];
        if (G.has(D.E1.From, D.E1.To) || G.has(D.E2.From, D.E2.To)) {
          Pending[I] = Pending.back();
          Pending.pop_back();
          Changed = true;
          continue;
        }
        bool Dead1 = G.has(D.E1.To, D.E1.From);
        bool Dead2 = G.has(D.E2.To, D.E2.From);
        if (Dead1 && Dead2)
          return false;
        if (Dead1 || Dead2) {
          const SuperEdge &Forced = Dead1 ? D.E2 : D.E1;
          if (!G.add(Forced.From, Forced.To))
            return false;
          Pending[I] = Pending.back();
          Pending.pop_back();
          Changed = true;
          continue;
        }
        ++I;
      }
    }
    return true;
  }

  /// Decides the disjunctions propagation left open by branching (each
  /// branch node is charged against the budget; in practice the eligible
  /// models resolve everything in saturate()).
  bool resolveOpen(ReachGraph G, std::vector<Disjunct> Pending) {
    if (!saturate(G, Pending))
      return false;
    if (Pending.empty())
      return true;
    if (!budget())
      return false;
    Disjunct D = Pending.back();
    Pending.pop_back();
    {
      ReachGraph G1 = G;
      std::vector<Disjunct> P1 = Pending;
      if (G1.add(D.E1.From, D.E1.To) && resolveOpen(G1, std::move(P1)))
        return true;
      if (Skip != OracleSkip::None)
        return false;
    }
    if (!G.add(D.E2.From, D.E2.To))
      return false;
    return resolveOpen(std::move(G), std::move(Pending));
  }

  /// Constrains the order so that \p Writer (-1 = initial memory) is the
  /// visibility-maximal same-address store for load \p L.
  bool applyAssignment(int L, int Writer, ReachGraph &G,
                       std::vector<Disjunct> &Pending) const {
    const std::vector<int> &Stores = X.accesses()[L].Stores;
    if (Writer < 0) {
      // Axiom 2 (initial memory): no same-address store may be visible.
      for (int S : Stores) {
        if (X.forwards(S, L) || !requireEdge(G, L, S))
          return false;
      }
      return true;
    }
    if (!X.forwards(Writer, L) && !requireEdge(G, Writer, L))
      return false;
    for (int S : Stores) {
      if (S == Writer)
        continue;
      if (X.forwards(S, L)) {
        // Always visible: it must sit below the chosen writer.
        if (!requireEdge(G, S, Writer))
          return false;
      } else if (!addDisjunct(G, Pending, S, Writer, L, S)) {
        // Forbidden: Writer < S < L. Complement: S < Writer or L < S.
        return false;
      }
    }
    return true;
  }

  bool budget() {
    if (++Explored > MaxAssignments) {
      if (Skip == OracleSkip::None)
        Skip = OracleSkip::BudgetExceeded;
      return false;
    }
    return true;
  }

  void searchLoads(size_t Idx, const ReachGraph &G,
                   const std::vector<Disjunct> &Pending);
  void leaf(const ReachGraph &G, const std::vector<Disjunct> &Pending);

  StaticExecution &X;
  std::set<RefObservation> &Observations;
  uint64_t MaxAssignments;
  uint64_t &Explored; // leaves + branch nodes, across all choices
  OracleSkip Skip = OracleSkip::None;

  std::vector<int> SuperOf; // access -> supernode
  std::vector<int> RankOf;  // access -> rank inside its supernode
  ReachGraph Base;          // closure of the static edges
  bool ChoiceDead = false;  // static edges already cyclic
  std::vector<int> RfOf;    // load access -> writer access, -1 = init
};

RfSearch::RfSearch(StaticExecution &X,
                   std::set<RefObservation> &Observations,
                   uint64_t MaxAssignments, uint64_t &Explored)
    : X(X), Observations(Observations), MaxAssignments(MaxAssignments),
      Explored(Explored) {
  const std::vector<StaticExecution::Access> &Accesses = X.accesses();
  int N = static_cast<int>(Accesses.size());

  // Supernode contraction. A contiguity cluster occupies consecutive
  // positions of <M, and its interior order is statically total (atomic
  // interiors are chained by program order; serial invocations are fully
  // ordered because Serial implies full program order), so each cluster
  // collapses to one node ranked by program order and the contiguity
  // constraint holds by construction.
  SuperOf.assign(N, -1);
  RankOf.assign(N, 0);
  std::vector<int> ClusterSuper(X.numClusters(), -1);
  int NumSuper = 0;
  for (int A = 0; A < N; ++A) {
    int Cluster = Accesses[A].Cluster;
    if (Cluster < 0) {
      SuperOf[A] = NumSuper++;
      continue;
    }
    if (ClusterSuper[Cluster] < 0)
      ClusterSuper[Cluster] = NumSuper++;
    SuperOf[A] = ClusterSuper[Cluster];
    RankOf[A] = Accesses[A].Rank;
  }
  Base.init(NumSuper);

  // The static edges; a cycle among them leaves this choice assignment
  // with no consistent order at all.
  for (int B = 0; B < N && !ChoiceDead; ++B)
    for (int A = 0; A < N; ++A)
      if (((Accesses[B].Preds >> A) & 1) && !requireEdge(Base, A, B)) {
        ChoiceDead = true;
        break;
      }
  RfOf.assign(N, -1);
}

void RfSearch::searchLoads(size_t Idx, const ReachGraph &G,
                           const std::vector<Disjunct> &Pending) {
  if (Skip != OracleSkip::None)
    return;
  if (Idx == X.loads().size()) {
    leaf(G, Pending);
    return;
  }
  int L = X.loads()[Idx];
  const std::vector<int> &Stores = X.accesses()[L].Stores;
  // Initial memory first, then the stores in access order; observation
  // sets are order-insensitive, but keep the walk deterministic.
  for (int C = -1; C < static_cast<int>(Stores.size()); ++C) {
    int Writer = C < 0 ? -1 : Stores[C];
    ReachGraph G2 = G;
    std::vector<Disjunct> P2 = Pending;
    if (!applyAssignment(L, Writer, G2, P2) || !saturate(G2, P2))
      continue; // this writer has no consistent completion
    RfOf[L] = Writer;
    searchLoads(Idx + 1, G2, P2);
    if (Skip != OracleSkip::None)
      return;
  }
}

void RfSearch::leaf(const ReachGraph &G, const std::vector<Disjunct> &Pending) {
  if (!budget())
    return;
  if (!Pending.empty() && !resolveOpen(G, Pending))
    return; // open disjunctions have no consistent resolution (or budget)
  Skip = X.evaluate(RfOf, Observations);
}

} // namespace

OracleResult
checkfence::memmodel::checkReadsFrom(const trans::FlatProgram &P,
                                     const ReadsFromOptions &Opts) {
  uint64_t Explored = 0;
  return forEachChoice(
      P, Opts.Model,
      [&](StaticExecution &X, std::set<RefObservation> &Observations) {
        return RfSearch(X, Observations, Opts.MaxAssignments, Explored)
            .run();
      });
}
