//===--- AxiomaticEnumerator.cpp - brute-force axiom oracle -----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/StaticExecution.h"

#include <string>
#include <unordered_set>

using namespace checkfence;
using namespace checkfence::memmodel;

namespace {

/// Reads-from maps one static execution remembers having evaluated; a
/// leaf past the cap evaluates its map again.
constexpr size_t MaxEvaluatedMaps = size_t(1) << 14;

/// Enumerates the axiom-consistent total orders of one static execution.
class OrderSearch {
public:
  OrderSearch(StaticExecution &X, std::set<RefObservation> &Observations,
              uint64_t MaxOrders, uint64_t &Orders)
      : X(X), Observations(Observations), MaxOrders(MaxOrders),
        Orders(Orders), PosOf(X.accesses().size(), -1),
        WriterOf(X.accesses().size(), -1),
        ClusterSize(X.numClusters(), 0), ClusterPlaced(X.numClusters(), 0) {
    for (const StaticExecution::Access &A : X.accesses())
      if (A.Cluster >= 0)
        ++ClusterSize[A.Cluster];
  }

  OracleSkip run() {
    extend(0);
    return Skip;
  }

private:
  void extend(size_t Depth);
  void leaf();

  StaticExecution &X;
  std::set<RefObservation> &Observations;
  uint64_t MaxOrders;
  uint64_t &Orders; // leaves, across all choice assignments
  OracleSkip Skip = OracleSkip::None;

  std::vector<int> PosOf;    // access -> position in <M, or -1
  std::vector<int> WriterOf; // load access -> writer access, -1 = init
  std::vector<int> ClusterSize;   // accesses per cluster id
  std::vector<int> ClusterPlaced; // placed so far
  uint64_t PlacedMask = 0;
  int OpenCluster = -1;
  // Each load's writer + 1 in one byte (at most 62 accesses), per map
  // evaluated so far; RfKey is the current leaf's.
  std::unordered_set<std::string> Evaluated;
  std::string RfKey;
};

void OrderSearch::leaf() {
  if (++Orders > MaxOrders) {
    Skip = OracleSkip::BudgetExceeded;
    return;
  }
  RfKey.clear();
  for (int L : X.loads()) {
    WriterOf[L] = X.latestVisibleStore(L, PosOf);
    RfKey.push_back(static_cast<char>(WriterOf[L] + 1));
  }
  // Many orders share a reads-from map, and evaluate() depends on nothing
  // else: a map seen before adds no observation. (A map whose evaluation
  // was a skip has already ended the search.)
  bool Seen = Evaluated.size() < MaxEvaluatedMaps
                  ? !Evaluated.insert(RfKey).second
                  : Evaluated.count(RfKey) != 0;
  if (!Seen)
    Skip = X.evaluate(WriterOf, Observations);
}

void OrderSearch::extend(size_t Depth) {
  if (Skip != OracleSkip::None)
    return;
  const std::vector<StaticExecution::Access> &Accesses = X.accesses();
  if (Depth == Accesses.size()) {
    leaf();
    return;
  }
  for (size_t A = 0; A < Accesses.size(); ++A) {
    if (PlacedMask & (uint64_t(1) << A))
      continue;
    if ((Accesses[A].Preds & PlacedMask) != Accesses[A].Preds)
      continue;
    int Cluster = Accesses[A].Cluster;
    // Exclusivity/contiguity: an opened cluster must be completed before
    // any outside access is placed.
    if (OpenCluster >= 0 && Cluster != OpenCluster)
      continue;

    int SavedOpen = OpenCluster;
    PlacedMask |= uint64_t(1) << A;
    PosOf[A] = static_cast<int>(Depth);
    if (Cluster >= 0) {
      ++ClusterPlaced[Cluster];
      OpenCluster = ClusterPlaced[Cluster] < ClusterSize[Cluster]
                        ? Cluster
                        : -1;
    }

    extend(Depth + 1);

    if (Cluster >= 0)
      --ClusterPlaced[Cluster];
    OpenCluster = SavedOpen;
    PosOf[A] = -1;
    PlacedMask &= ~(uint64_t(1) << A);
  }
}

} // namespace

OracleResult
checkfence::memmodel::enumerateAxiomatic(const trans::FlatProgram &P,
                                         const AxiomaticOptions &Opts) {
  uint64_t Orders = 0;
  return forEachChoice(
      P, Opts.Model,
      [&](StaticExecution &X, std::set<RefObservation> &Observations) {
        return OrderSearch(X, Observations, Opts.MaxOrders, Orders).run();
      });
}
